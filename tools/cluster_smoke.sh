#!/usr/bin/env bash
# End-to-end smoke test for the sharded coordinator/worker fleet, run by
# CI alongside tools/serve_smoke.sh (which covers the single daemon).
#
# Simulates a city-scale database (120 camera corpora), then:
#
#   1. Boots a plain single-process mivid_serve over a copy of the
#      database and records a session's post-feedback ranking — the
#      baseline every cluster answer must reproduce bit-for-bit.
#   2. Boots 3 workers (ephemeral TCP ports) + 1 coordinator over the
#      shared database and replays the same conversation through the
#      coordinator: responses must be byte-identical to the baseline
#      (single-camera sessions are pure passthrough).
#   3. SIGKILLs the session's home worker mid-session (no graceful
#      shutdown) and ranks again: the coordinator must fail over to a
#      survivor, replay the feedback journal, and return the SAME bytes.
#   4. Opens a multi-camera session on the 3-worker fleet and on a
#      1-worker "fleet" over another copy of the database: the merged
#      scatter-gather ranking must be identical regardless of sharding.
#
# usage: tools/cluster_smoke.sh <build-dir> [work-dir]
set -euo pipefail

BUILD_DIR=${1:?usage: cluster_smoke.sh <build-dir> [work-dir]}
WORK_DIR=${2:-$(mktemp -d)}
CLI="$BUILD_DIR/tools/mivid_cli"
CLIENT="$BUILD_DIR/tools/mivid_client"
DB="$WORK_DIR/fleetdb"         # shared by the 3-worker fleet
DB_SOLO="$WORK_DIR/solodb"     # single-process baseline copy
DB_ONE="$WORK_DIR/onedb"       # 1-worker fleet copy (sharding invariance)
COORD_SOCK="$WORK_DIR/coord.sock"
SOLO_SOCK="$WORK_DIR/solo.sock"
ONE_SOCK="$WORK_DIR/one.sock"
NUM_CAMERAS=${NUM_CAMERAS:-120}

PIDS=()
WORKER_PIDS=()
WORKER_PORTS=()

fail() { echo "FAIL: $*" >&2; exit 1; }

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap cleanup EXIT

wait_for_socket() {
  local sock=$1
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && return 0
    sleep 0.1
  done
  fail "daemon did not create $sock"
}

# Waits for the "tcp_port=N" boot line in a log file and prints N.
wait_for_port() {
  local log=$1
  for _ in $(seq 1 100); do
    if grep -q 'tcp_port=' "$log" 2>/dev/null; then
      grep -o 'tcp_port=[0-9]*' "$log" | head -1 | cut -d= -f2
      return 0
    fi
    sleep 0.1
  done
  fail "no tcp_port line in $log"
}

echo "== build database: $NUM_CAMERAS simulated camera corpora =="
rm -rf "$DB" "$DB_SOLO" "$DB_ONE"
"$CLI" init "$DB" >/dev/null
for i in $(seq 0 $((NUM_CAMERAS - 1))); do
  "$CLI" simulate "$DB" tunnel "cam$i" 300 >/dev/null
done
cp -r "$DB" "$DB_SOLO"
cp -r "$DB" "$DB_ONE"

echo "== single-process baseline =="
"$CLI" serve "$DB_SOLO" "$SOLO_SOCK" >"$WORK_DIR/solo.log" 2>&1 &
SOLO_PID=$!
PIDS+=("$SOLO_PID")
wait_for_socket "$SOLO_SOCK"
"$CLIENT" "$SOLO_SOCK" <<'EOF' >"$WORK_DIR/solo_conv.out"
{"cmd":"open","session":"s1","camera":"cam7"}
{"cmd":"feedback","session":"s1","labels":[{"bag":0,"label":"relevant"},{"bag":1,"label":"irrelevant"}]}
EOF
"$CLIENT" "$SOLO_SOCK" '{"cmd":"rank","session":"s1","top":-1}' \
  >"$WORK_DIR/solo_rank.json"
"$CLIENT" "$SOLO_SOCK" '{"cmd":"shutdown"}' >/dev/null
wait "$SOLO_PID" 2>/dev/null || true

echo "== boot fleet: 3 workers + coordinator (metrics/tracing/logs on) =="
# Workers take the slow threshold from --slow-ms, the coordinator from
# the MIVID_SLOW_QUERY_MS environment variable — both paths exercised.
# Threshold 0 makes every request "slow", so the slow log is
# deterministically non-empty.
for i in 0 1 2; do
  MIVID_METRICS=1 MIVID_TRACE=1 \
    "$CLI" serve "$DB" none --tcp-port=0 --worker-id="w$i" \
    --access-log="$WORK_DIR/worker$i.access.log" \
    --slow-log="$WORK_DIR/worker$i.slow.log" --slow-ms=0 \
    >"$WORK_DIR/worker$i.log" 2>&1 &
  WORKER_PIDS[$i]=$!
  PIDS+=("${WORKER_PIDS[$i]}")
  WORKER_PORTS[$i]=$(wait_for_port "$WORK_DIR/worker$i.log")
done
WORKERS="127.0.0.1:${WORKER_PORTS[0]},127.0.0.1:${WORKER_PORTS[1]},127.0.0.1:${WORKER_PORTS[2]}"
MIVID_METRICS=1 MIVID_TRACE=1 MIVID_SLOW_QUERY_MS=0 \
  "$CLI" coord "$COORD_SOCK" --workers="$WORKERS" \
  --access-log="$WORK_DIR/coord.access.log" \
  --slow-log="$WORK_DIR/coord.slow.log" \
  >"$WORK_DIR/coord.log" 2>&1 &
COORD_PID=$!
PIDS+=("$COORD_PID")
wait_for_socket "$COORD_SOCK"

echo "== same conversation through the coordinator =="
"$CLIENT" "$COORD_SOCK" <<'EOF' >"$WORK_DIR/fleet_conv.out"
{"cmd":"open","session":"s1","camera":"cam7"}
{"cmd":"feedback","session":"s1","labels":[{"bag":0,"label":"relevant"},{"bag":1,"label":"irrelevant"}]}
EOF
cmp "$WORK_DIR/solo_conv.out" "$WORK_DIR/fleet_conv.out" \
  || fail "coordinator passthrough responses differ from single-process"
"$CLIENT" "$COORD_SOCK" '{"cmd":"rank","session":"s1","top":-1}' \
  >"$WORK_DIR/fleet_rank_before.json"
cmp "$WORK_DIR/solo_rank.json" "$WORK_DIR/fleet_rank_before.json" \
  || fail "fleet ranking differs from single-process baseline"

echo "== SIGKILL the session's home worker mid-session =="
"$CLIENT" "$COORD_SOCK" '{"cmd":"stats"}' >"$WORK_DIR/stats_before.json"
# The home worker is the one that served s1's open/rank/feedback — the
# fleet worker with the most requests.
VICTIM_PORT=$(tr '{' '\n' <"$WORK_DIR/stats_before.json" \
  | grep '"endpoint"' \
  | sed -E 's/.*"endpoint":"127\.0\.0\.1:([0-9]+)".*"requests":([0-9]+).*/\2 \1/' \
  | sort -rn | head -1 | awk '{print $2}')
[ -n "$VICTIM_PORT" ] || fail "could not pick a victim from coordinator stats"
VICTIM_PID=""
for i in 0 1 2; do
  if [ "${WORKER_PORTS[$i]}" = "$VICTIM_PORT" ]; then
    VICTIM_PID=${WORKER_PIDS[$i]}
  fi
done
[ -n "$VICTIM_PID" ] || fail "victim port $VICTIM_PORT matches no worker"
echo "killing worker on port $VICTIM_PORT (pid $VICTIM_PID)"
kill -9 "$VICTIM_PID"
wait "$VICTIM_PID" 2>/dev/null || true

echo "== rank after failover: must match the baseline bytes =="
"$CLIENT" "$COORD_SOCK" '{"cmd":"rank","session":"s1","top":-1}' \
  >"$WORK_DIR/fleet_rank_after.json"
cmp "$WORK_DIR/solo_rank.json" "$WORK_DIR/fleet_rank_after.json" \
  || fail "ranking after worker death differs from single-process baseline"
"$CLIENT" "$COORD_SOCK" '{"cmd":"stats"}' >"$WORK_DIR/stats_after.json"
grep -q '"workers_alive":2' "$WORK_DIR/stats_after.json" \
  || fail "coordinator did not mark the killed worker dead: $(cat "$WORK_DIR/stats_after.json")"

echo "== multi-camera scatter-gather: sharding must not change the merge =="
MULTI_OPEN='{"cmd":"open","session":"m1","cameras":["cam0","cam1","cam2","cam3","cam4","cam5","cam6","cam8","cam9","cam10","cam11","cam12"]}'
MULTI_FEEDBACK='{"cmd":"feedback","session":"m1","labels":[{"bag":0,"label":"relevant","camera":"cam3"},{"bag":0,"label":"irrelevant","camera":"cam9"}]}'
MULTI_RANK='{"cmd":"rank","session":"m1","top":40}'

# The 1-worker fleet doubles as smoke coverage for supervised spawning:
# the coordinator forks/execs its own worker instead of attaching to one
# we started by hand.
"$CLI" coord "$ONE_SOCK" --spawn-workers=1 --db="$DB_ONE" \
  --worker-log-dir="$WORK_DIR/one_logs" \
  >"$WORK_DIR/coord_one.log" 2>&1 &
ONE_COORD_PID=$!
PIDS+=("$ONE_COORD_PID")
wait_for_socket "$ONE_SOCK"
for _ in $(seq 1 100); do
  "$CLIENT" "$ONE_SOCK" '{"cmd":"stats"}' 2>/dev/null \
    | grep -q '"workers_alive":1' && break
  sleep 0.1
done
"$CLIENT" "$ONE_SOCK" '{"cmd":"stats"}' | grep -q '"workers_alive":1' \
  || fail "spawned worker never came alive behind $ONE_SOCK"

for side in fleet one; do
  sock=$COORD_SOCK
  [ "$side" = one ] && sock=$ONE_SOCK
  "$CLIENT" "$sock" <<EOF >"$WORK_DIR/multi_$side.out"
$MULTI_OPEN
$MULTI_FEEDBACK
$MULTI_RANK
EOF
done
# The open response reports per-sub-session detail, but feedback + the
# merged ranking must be identical no matter how cameras are sharded.
tail -2 "$WORK_DIR/multi_fleet.out" >"$WORK_DIR/multi_fleet_rank.json"
tail -2 "$WORK_DIR/multi_one.out" >"$WORK_DIR/multi_one_rank.json"
cmp "$WORK_DIR/multi_fleet_rank.json" "$WORK_DIR/multi_one_rank.json" \
  || fail "merged multi-camera ranking depends on sharding"
grep -q '"camera":"cam' "$WORK_DIR/multi_fleet_rank.json" \
  || fail "merged ranking entries are not camera-tagged"

echo "== fleet observability: cluster stats, stitched trace, logs =="
CHECK="$BUILD_DIR/tools/check_obs_outputs"

# cluster_stats: fleet rollup must be the exact merge of the per-worker
# snapshots (bucket-wise histogram sums, recomputed percentiles).
"$CLIENT" "$COORD_SOCK" '{"cmd":"cluster_stats"}' \
  >"$WORK_DIR/cluster_stats.json"
"$CHECK" --cluster-stats "$WORK_DIR/cluster_stats.json" \
  || fail "cluster_stats aggregation is not exact"
grep -q '"worker_id":"w' "$WORK_DIR/cluster_stats.json" \
  || fail "cluster_stats entries are not tagged with worker ids"

# trace_dump: one stitched Chrome trace; the multi-camera rank must show
# one trace id spanning the coordinator and every involved worker
# (3 processes: coordinator + the 2 surviving workers).
"$CLIENT" "$COORD_SOCK" '{"cmd":"trace_dump"}' \
  >"$WORK_DIR/stitched_trace.json"
"$CHECK" --stitched-trace "$WORK_DIR/stitched_trace.json" 3 \
  || fail "no single trace id spans coordinator + workers"

# mivid_cli top must render the fleet against the live coordinator.
"$CLI" top "$COORD_SOCK" --iterations=1 >"$WORK_DIR/top.out" \
  || fail "mivid_cli top failed against the coordinator"
grep -q '^w' "$WORK_DIR/top.out" \
  || fail "mivid_cli top shows no worker rows: $(cat "$WORK_DIR/top.out")"

# Access logs: the coordinator logged the fan-out rank with its latency
# breakdown, and the same trace id shows up in a worker's access log —
# cross-process propagation visible from the logs alone.
grep -q '"role":"coordinator"' "$WORK_DIR/coord.access.log" \
  || fail "coordinator access log is empty"
COORD_RANK_LINE=$(grep '"cmd":"rank"' "$WORK_DIR/coord.access.log" | tail -1)
[ -n "$COORD_RANK_LINE" ] || fail "coordinator access log has no rank entry"
echo "$COORD_RANK_LINE" | grep -q '"merge_ms":' \
  || fail "coordinator rank entry lacks a merge_ms breakdown"
TRACE_ID=$(echo "$COORD_RANK_LINE" \
  | sed -E 's/.*"trace":"([0-9a-f]{16})".*/\1/')
[ ${#TRACE_ID} -eq 16 ] \
  || fail "coordinator rank entry carries no trace id: $COORD_RANK_LINE"
grep -q "\"trace\":\"$TRACE_ID\"" "$WORK_DIR"/worker*.access.log \
  || fail "trace id $TRACE_ID not found in any worker access log"

# Slow-query log: with a 0ms threshold the deliberately slow rank (full
# corpus extraction fan-out) must be mirrored there, flagged slow.
grep -q '"cmd":"rank"' "$WORK_DIR/coord.slow.log" \
  || fail "slow-query log has no rank entry"
grep -q '"slow":true' "$WORK_DIR/coord.slow.log" \
  || fail "slow-query entries are not flagged slow"
grep -q '"slow":true' "$WORK_DIR"/worker*.slow.log \
  || fail "no worker slow-query entry"

echo "== graceful shutdown =="
"$CLIENT" "$COORD_SOCK" '{"cmd":"shutdown"}' >/dev/null
"$CLIENT" "$ONE_SOCK" '{"cmd":"shutdown"}' >/dev/null
# Give both coordinators up to ~5 s to exit on their own: the spawning
# one SIGTERMs its supervised worker on the way out, which the EXIT
# trap's kill -9 would otherwise cut short and leave the worker running.
for _ in $(seq 1 50); do
  kill -0 "$COORD_PID" 2>/dev/null || kill -0 "$ONE_COORD_PID" 2>/dev/null \
    || break
  sleep 0.1
done

echo "PASS: cluster smoke ($WORK_DIR)"
