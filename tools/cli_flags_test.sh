#!/usr/bin/env bash
# A flag the command does not take is a usage error (exit 2); observability
# flags parse on every command. usage: tools/cli_flags_test.sh <mivid_cli>
CLI=${1:?usage: cli_flags_test.sh <mivid_cli>}
expect_exit() {
  local want=$1 rc
  shift
  "$CLI" "$@" >/dev/null 2>&1
  rc=$?
  [ "$rc" -eq "$want" ] && return
  echo "FAIL: mivid_cli $* exited $rc, want $want" >&2
  exit 1
}
expect_exit 2 engines --threads 4
expect_exit 2 list /nonexistent-mivid-db --max-pendign=3
expect_exit 0 engines --metrics-report
echo "cli flags: ok"
