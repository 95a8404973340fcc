#!/usr/bin/env bash
# Chaos smoke test for the fleet's robustness machinery, run by CI
# alongside tools/cluster_smoke.sh (which covers the happy paths).
#
# Every scenario injects a real failure through the deterministic fault
# harness (MIVID_FAULTS, see docs/robustness.md) or plain SIGKILL, then
# asserts that the client-visible answer is byte-identical to a
# single-process baseline and that the fleet's latency stays bounded by
# the RPC deadline budget — never by the fault's duration:
#
#   1. Hung worker: the session's home worker hangs every rank for 60s.
#      The coordinator must cut the call at its deadline slice, fail
#      over (journal replay on a survivor), and return the baseline
#      bytes in ~1s, not 60.
#   2. Supervised restart: a --spawn-workers fleet loses a worker to
#      SIGKILL; the supervisor must restart it, the heartbeat re-admit
#      it, cluster/worker_restarts must tick, and a mid-session rank
#      must still return the pre-crash bytes.
#   3. Slow replicas + hedged rank: with --replication=2 both replicas
#      of a camera hang; the rank must hedge (cluster/hedged_ranks),
#      fail over to the remaining worker, and return baseline bytes
#      within the budget.
#   4. Torn journal: a worker crashes halfway through a feedback
#      journal append (journal.write.torn). The reader must treat the
#      torn record as the tail and resume at the last whole one (here
#      none: the session opens fresh), the coordinator must replay it on
#      a survivor and transparently retry the feedback — the final
#      ranking matches the no-crash baseline bit-for-bit.
#
# usage: tools/chaos_smoke.sh <build-dir> [work-dir]
set -euo pipefail

BUILD_DIR=${1:?usage: chaos_smoke.sh <build-dir> [work-dir]}
WORK_DIR=${2:-$(mktemp -d)}
CLI="$BUILD_DIR/tools/mivid_cli"
CLIENT="$BUILD_DIR/tools/mivid_client"
DB="$WORK_DIR/fleetdb"       # shared by the manual fleets (1, 3, 4)
DB_SOLO="$WORK_DIR/solodb"   # pristine copy for single-process baselines
DB_SUP="$WORK_DIR/supdb"     # supervised fleet's copy (scenario 2)
NUM_CAMERAS=${NUM_CAMERAS:-8}

PIDS=()

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
  for _ in $(seq 1 150); do
    if grep -q 'tcp_port=' "$log" 2>/dev/null; then
      grep -o 'tcp_port=[0-9]*' "$log" | head -1 | cut -d= -f2
      return 0
    fi
    sleep 0.1
  done
  fail "no tcp_port line in $log"
}

# Total "requests" count the coordinator has seen for a worker endpoint,
# from a {"cmd":"stats"} response file.
requests_for_port() {
  local stats_file=$1 port=$2
  tr '{' '\n' <"$stats_file" \
    | grep "\"endpoint\":\"127\.0\.0\.1:$port\"" \
    | sed -E 's/.*"requests":([0-9]+).*/\1/' | head -1
}

# Polls a coordinator socket until {"cmd":"stats"} reports N live
# workers (heartbeat re-admission after a restart).
wait_workers_alive() {
  local sock=$1 n=$2
  for _ in $(seq 1 150); do
    if "$CLIENT" "$sock" '{"cmd":"stats"}' 2>/dev/null \
        | grep -q "\"workers_alive\":$n"; then
      return 0
    fi
    sleep 0.1
  done
  fail "fleet on $sock never reached $n live workers"
}

# Reads one "cluster/<name>" counter from a cluster_stats response.
cluster_counter() {
  local sock=$1 name=$2
  "$CLIENT" "$sock" '{"cmd":"cluster_stats"}' \
    | grep -o "\"cluster/$name\":[0-9.]*" | head -1 | cut -d: -f2
}

# Prints the index (into the port array named $3) whose per-worker
# "requests" count grew the most between two stats snapshots. Heartbeat
# pings tick every worker's count, so only the *largest* delta
# identifies the worker that served the probe request.
busiest_delta_index() {
  local before_file=$1 after_file=$2 ports_name=$3
  local -n ports=$ports_name
  local best_idx="" best_delta=0
  for i in "${!ports[@]}"; do
    local before after delta
    before=$(requests_for_port "$before_file" "${ports[$i]}")
    after=$(requests_for_port "$after_file" "${ports[$i]}")
    delta=$(( ${after:-0} - ${before:-0} ))
    if [ "$delta" -gt "$best_delta" ]; then
      best_delta=$delta
      best_idx=$i
    fi
  done
  [ -n "$best_idx" ] || return 1
  echo "$best_idx"
}

now_ms() { date +%s%3N; }

echo "== build database: $NUM_CAMERAS simulated camera corpora =="
rm -rf "$DB" "$DB_SOLO" "$DB_SUP"
"$CLI" init "$DB" >/dev/null
for i in $(seq 0 $((NUM_CAMERAS - 1))); do
  "$CLI" simulate "$DB" tunnel "cam$i" 300 >/dev/null
done
cp -r "$DB" "$DB_SOLO"
cp -r "$DB" "$DB_SUP"

# Records the single-process baseline for a session on one camera:
# open + feedback responses in <prefix>_conv.out, the full post-feedback
# ranking in <prefix>_rank.json.
solo_baseline() {
  local camera=$1 session=$2 prefix=$3
  local sock="$WORK_DIR/solo.sock"
  "$CLI" serve "$DB_SOLO" "$sock" >"$WORK_DIR/solo.log" 2>&1 &
  local pid=$!
  PIDS+=("$pid")
  wait_for_socket "$sock"
  "$CLIENT" "$sock" <<EOF >"$WORK_DIR/${prefix}_conv.out"
{"cmd":"open","session":"$session","camera":"$camera"}
{"cmd":"feedback","session":"$session","labels":[{"bag":0,"label":"relevant"},{"bag":1,"label":"irrelevant"}]}
EOF
  "$CLIENT" "$sock" "{\"cmd\":\"rank\",\"session\":\"$session\",\"top\":-1}" \
    >"$WORK_DIR/${prefix}_rank.json"
  "$CLIENT" "$sock" '{"cmd":"shutdown"}' >/dev/null
  wait "$pid" 2>/dev/null || true
  rm -f "$sock"
}

# ---------------------------------------------------------------------------
# Scenario 1: hung worker — deadline cuts the call, failover answers.

echo "== scenario 1: hung rank fails over within the deadline budget =="
S1_SOCK="$WORK_DIR/s1.sock"
S1_PORTS=()
S1_PIDS=()
for i in 0 1; do
  MIVID_METRICS=1 "$CLI" serve "$DB" none --tcp-port=0 --worker-id="s1w$i" \
    >"$WORK_DIR/s1_worker$i.log" 2>&1 &
  S1_PIDS[$i]=$!
  PIDS+=("${S1_PIDS[$i]}")
  S1_PORTS[$i]=$(wait_for_port "$WORK_DIR/s1_worker$i.log")
done
MIVID_METRICS=1 "$CLI" coord "$S1_SOCK" \
  --workers="127.0.0.1:${S1_PORTS[0]},127.0.0.1:${S1_PORTS[1]}" \
  --rpc-deadline-ms=2000 --heartbeat-ms=300 \
  >"$WORK_DIR/s1_coord.log" 2>&1 &
PIDS+=("$!")
wait_for_socket "$S1_SOCK"

# Find cam0's home worker: with replication 1 the probe open lands on
# exactly one endpoint.
"$CLIENT" "$S1_SOCK" '{"cmd":"stats"}' >"$WORK_DIR/s1_stats0.json"
"$CLIENT" "$S1_SOCK" '{"cmd":"open","session":"s1probe","camera":"cam0"}' >/dev/null
"$CLIENT" "$S1_SOCK" '{"cmd":"stats"}' >"$WORK_DIR/s1_stats1.json"
HOME_IDX=$(busiest_delta_index "$WORK_DIR/s1_stats0.json" \
  "$WORK_DIR/s1_stats1.json" S1_PORTS) \
  || fail "could not locate cam0's home worker"
echo "cam0 lives on worker s1w$HOME_IDX (port ${S1_PORTS[$HOME_IDX]})"

# Restart the home worker on its pinned port with rank hung for 60s.
# Wait for the heartbeat to notice the death before relaunching, so the
# restarted process goes through the full dead -> re-admitted cycle.
kill -9 "${S1_PIDS[$HOME_IDX]}"
wait "${S1_PIDS[$HOME_IDX]}" 2>/dev/null || true
wait_workers_alive "$S1_SOCK" 1
MIVID_METRICS=1 MIVID_FAULTS="worker.rank.hang=1:60000" \
  "$CLI" serve "$DB" none --tcp-port="${S1_PORTS[$HOME_IDX]}" \
  --worker-id="s1w$HOME_IDX" \
  >"$WORK_DIR/s1_worker${HOME_IDX}_hung.log" 2>&1 &
PIDS+=("$!")
wait_workers_alive "$S1_SOCK" 2

solo_baseline cam0 hang1 s1
"$CLIENT" "$S1_SOCK" <<'EOF' >"$WORK_DIR/s1_fleet_conv.out"
{"cmd":"open","session":"hang1","camera":"cam0"}
{"cmd":"feedback","session":"hang1","labels":[{"bag":0,"label":"relevant"},{"bag":1,"label":"irrelevant"}]}
EOF
cmp "$WORK_DIR/s1_conv.out" "$WORK_DIR/s1_fleet_conv.out" \
  || fail "open/feedback through the hung-home fleet differ from solo"

START=$(now_ms)
"$CLIENT" "$S1_SOCK" '{"cmd":"rank","session":"hang1","top":-1}' \
  >"$WORK_DIR/s1_fleet_rank.json"
ELAPSED=$(( $(now_ms) - START ))
cmp "$WORK_DIR/s1_rank.json" "$WORK_DIR/s1_fleet_rank.json" \
  || fail "ranking after hung-worker failover differs from solo baseline"
[ "$ELAPSED" -lt 6000 ] \
  || fail "rank took ${ELAPSED}ms — blocked on the 60s hang, not the deadline"
MISSES=$(cluster_counter "$S1_SOCK" deadline_misses || true)
[ -n "$MISSES" ] && [ "${MISSES%.*}" -ge 1 ] \
  || fail "cluster/deadline_misses did not tick (got '$MISSES')"
echo "scenario 1 ok: failover rank in ${ELAPSED}ms, deadline_misses=$MISSES"
"$CLIENT" "$S1_SOCK" '{"cmd":"shutdown"}' >/dev/null

# ---------------------------------------------------------------------------
# Scenario 2: SIGKILL a supervised worker — the supervisor restarts it.

echo "== scenario 2: supervised worker restart after SIGKILL =="
S2_SOCK="$WORK_DIR/s2.sock"
mkdir -p "$WORK_DIR/s2_logs"
MIVID_METRICS=1 "$CLI" coord "$S2_SOCK" \
  --spawn-workers=2 --db="$DB_SUP" --worker-log-dir="$WORK_DIR/s2_logs" \
  >"$WORK_DIR/s2_coord.log" 2>&1 &
PIDS+=("$!")
wait_for_socket "$S2_SOCK"
wait_workers_alive "$S2_SOCK" 2

"$CLIENT" "$S2_SOCK" <<'EOF' >/dev/null
{"cmd":"open","session":"sup1","camera":"cam3"}
{"cmd":"feedback","session":"sup1","labels":[{"bag":0,"label":"relevant"},{"bag":1,"label":"irrelevant"}]}
EOF
"$CLIENT" "$S2_SOCK" '{"cmd":"rank","session":"sup1","top":-1}' \
  >"$WORK_DIR/s2_rank_before.json"

VICTIM_PID=$(pgrep -f -- "$DB_SUP.*--worker-id=w0" | head -1)
[ -n "$VICTIM_PID" ] || fail "could not find supervised worker w0"
echo "SIGKILLing supervised worker w0 (pid $VICTIM_PID)"
kill -9 "$VICTIM_PID"

RESTARTS=""
for _ in $(seq 1 150); do
  RESTARTS=$(cluster_counter "$S2_SOCK" worker_restarts || true)
  [ -n "$RESTARTS" ] && [ "${RESTARTS%.*}" -ge 1 ] && break
  sleep 0.1
done
[ -n "$RESTARTS" ] && [ "${RESTARTS%.*}" -ge 1 ] \
  || fail "supervisor never restarted the killed worker"
wait_workers_alive "$S2_SOCK" 2
pgrep -f -- "$DB_SUP.*--worker-id=w0" >/dev/null \
  || fail "no replacement w0 process is running"

"$CLIENT" "$S2_SOCK" '{"cmd":"rank","session":"sup1","top":-1}' \
  >"$WORK_DIR/s2_rank_after.json"
cmp "$WORK_DIR/s2_rank_before.json" "$WORK_DIR/s2_rank_after.json" \
  || fail "ranking changed across the supervised restart"
"$CLI" top "$S2_SOCK" --iterations=1 >"$WORK_DIR/s2_top.out" \
  || fail "mivid_cli top failed against the supervised fleet"
grep -q '^coord: .*worker_restarts=' "$WORK_DIR/s2_top.out" \
  || fail "mivid_cli top shows no coordinator robustness counters"
echo "scenario 2 ok: worker_restarts=$RESTARTS, ranking stable"
"$CLIENT" "$S2_SOCK" '{"cmd":"shutdown"}' >/dev/null

# ---------------------------------------------------------------------------
# Scenario 3: both replicas hang — hedged rank, then failover.

echo "== scenario 3: hung replicas force a hedged rank (replication=2) =="
S3_SOCK="$WORK_DIR/s3.sock"
S3_PORTS=()
S3_PIDS=()
for i in 0 1 2; do
  MIVID_METRICS=1 "$CLI" serve "$DB" none --tcp-port=0 --worker-id="s3w$i" \
    >"$WORK_DIR/s3_worker$i.log" 2>&1 &
  S3_PIDS[$i]=$!
  PIDS+=("${S3_PIDS[$i]}")
  S3_PORTS[$i]=$(wait_for_port "$WORK_DIR/s3_worker$i.log")
done
MIVID_METRICS=1 "$CLI" coord "$S3_SOCK" \
  --workers="127.0.0.1:${S3_PORTS[0]},127.0.0.1:${S3_PORTS[1]},127.0.0.1:${S3_PORTS[2]}" \
  --replication=2 --rpc-deadline-ms=3000 --heartbeat-ms=300 \
  >"$WORK_DIR/s3_coord.log" 2>&1 &
PIDS+=("$!")
wait_for_socket "$S3_SOCK"

solo_baseline cam1 hedge1 s3
# The replicated open + feedback touch exactly cam1's two replicas
# (primary + mirror); the third worker stays untouched.
"$CLIENT" "$S3_SOCK" '{"cmd":"stats"}' >"$WORK_DIR/s3_stats0.json"
"$CLIENT" "$S3_SOCK" <<'EOF' >"$WORK_DIR/s3_fleet_conv.out"
{"cmd":"open","session":"hedge1","camera":"cam1"}
{"cmd":"feedback","session":"hedge1","labels":[{"bag":0,"label":"relevant"},{"bag":1,"label":"irrelevant"}]}
EOF
cmp "$WORK_DIR/s3_conv.out" "$WORK_DIR/s3_fleet_conv.out" \
  || fail "replicated open/feedback differ from solo baseline"
"$CLIENT" "$S3_SOCK" '{"cmd":"stats"}' >"$WORK_DIR/s3_stats1.json"
# The two replicas are the two workers with the largest request deltas
# (primary and mirror each served the open + feedback; the clean worker
# saw at most heartbeat pings).
REPLICAS=()
DELTAS=""
for i in 0 1 2; do
  before=$(requests_for_port "$WORK_DIR/s3_stats0.json" "${S3_PORTS[$i]}")
  after=$(requests_for_port "$WORK_DIR/s3_stats1.json" "${S3_PORTS[$i]}")
  DELTAS+="$(( ${after:-0} - ${before:-0} )) $i"$'\n'
done
REPLICAS=($(printf '%s' "$DELTAS" | sort -rn | head -2 | awk '{print $2}'))
[ "${#REPLICAS[@]}" -eq 2 ] \
  || fail "expected 2 replicas for cam1, found ${#REPLICAS[@]}"
echo "cam1 replicas: s3w${REPLICAS[0]} and s3w${REPLICAS[1]}"

# Restart both replicas on their pinned ports with rank hung: the first
# attempt must miss its deadline slice, the hedged retry must miss too,
# and the failover re-open on the clean third worker must answer. Wait
# for the heartbeat to see both deaths before relaunching.
for i in "${REPLICAS[@]}"; do
  kill -9 "${S3_PIDS[$i]}"
  wait "${S3_PIDS[$i]}" 2>/dev/null || true
done
wait_workers_alive "$S3_SOCK" 1
for i in "${REPLICAS[@]}"; do
  MIVID_METRICS=1 MIVID_FAULTS="worker.rank.hang=1:60000" \
    "$CLI" serve "$DB" none --tcp-port="${S3_PORTS[$i]}" \
    --worker-id="s3w$i" \
    >"$WORK_DIR/s3_worker${i}_hung.log" 2>&1 &
  PIDS+=("$!")
done
wait_workers_alive "$S3_SOCK" 3

START=$(now_ms)
"$CLIENT" "$S3_SOCK" '{"cmd":"rank","session":"hedge1","top":-1}' \
  >"$WORK_DIR/s3_fleet_rank.json"
ELAPSED=$(( $(now_ms) - START ))
cmp "$WORK_DIR/s3_rank.json" "$WORK_DIR/s3_fleet_rank.json" \
  || fail "hedged/failover ranking differs from solo baseline"
[ "$ELAPSED" -lt 8000 ] \
  || fail "rank took ${ELAPSED}ms — blocked on the hang, not the budget"
HEDGES=$(cluster_counter "$S3_SOCK" hedged_ranks || true)
[ -n "$HEDGES" ] && [ "${HEDGES%.*}" -ge 1 ] \
  || fail "cluster/hedged_ranks did not tick (got '$HEDGES')"
echo "scenario 3 ok: rank in ${ELAPSED}ms, hedged_ranks=$HEDGES"
"$CLIENT" "$S3_SOCK" '{"cmd":"shutdown"}' >/dev/null

# ---------------------------------------------------------------------------
# Scenario 4: torn journal write — crash mid-feedback loses nothing.

echo "== scenario 4: torn journal write, failover replays and retries =="
S4_SOCK="$WORK_DIR/s4.sock"
S4_PORTS=()
S4_PIDS=()
for i in 0 1; do
  MIVID_METRICS=1 "$CLI" serve "$DB" none --tcp-port=0 --worker-id="s4w$i" \
    >"$WORK_DIR/s4_worker$i.log" 2>&1 &
  S4_PIDS[$i]=$!
  PIDS+=("${S4_PIDS[$i]}")
  S4_PORTS[$i]=$(wait_for_port "$WORK_DIR/s4_worker$i.log")
done
MIVID_METRICS=1 "$CLI" coord "$S4_SOCK" \
  --workers="127.0.0.1:${S4_PORTS[0]},127.0.0.1:${S4_PORTS[1]}" \
  --heartbeat-ms=300 \
  >"$WORK_DIR/s4_coord.log" 2>&1 &
PIDS+=("$!")
wait_for_socket "$S4_SOCK"

# Find cam2's home worker, then restart it with every journal append torn
# (half the record reaches the journal, then the process dies — the
# reader skips the torn tail, so the journal still reads as the previous
# round).
"$CLIENT" "$S4_SOCK" '{"cmd":"stats"}' >"$WORK_DIR/s4_stats0.json"
"$CLIENT" "$S4_SOCK" '{"cmd":"open","session":"s4probe","camera":"cam2"}' >/dev/null
"$CLIENT" "$S4_SOCK" '{"cmd":"stats"}' >"$WORK_DIR/s4_stats1.json"
HOME_IDX=$(busiest_delta_index "$WORK_DIR/s4_stats0.json" \
  "$WORK_DIR/s4_stats1.json" S4_PORTS) \
  || fail "could not locate cam2's home worker"
kill -9 "${S4_PIDS[$HOME_IDX]}"
wait "${S4_PIDS[$HOME_IDX]}" 2>/dev/null || true
wait_workers_alive "$S4_SOCK" 1
MIVID_METRICS=1 MIVID_FAULTS="journal.write.torn=1" \
  "$CLI" serve "$DB" none --tcp-port="${S4_PORTS[$HOME_IDX]}" \
  --worker-id="s4w$HOME_IDX" \
  >"$WORK_DIR/s4_worker${HOME_IDX}_torn.log" 2>&1 &
PIDS+=("$!")
wait_workers_alive "$S4_SOCK" 2

solo_baseline cam2 torn1 s4
# The feedback call crashes the home worker mid-journal-append. The
# coordinator must fail over, replay the journal's last whole record (none
# yet: the session opens fresh) on the survivor, retry the feedback there,
# and answer with the same bytes a healthy fleet would have produced.
"$CLIENT" "$S4_SOCK" <<'EOF' >"$WORK_DIR/s4_fleet_conv.out"
{"cmd":"open","session":"torn1","camera":"cam2"}
{"cmd":"feedback","session":"torn1","labels":[{"bag":0,"label":"relevant"},{"bag":1,"label":"irrelevant"}]}
EOF
cmp "$WORK_DIR/s4_conv.out" "$WORK_DIR/s4_fleet_conv.out" \
  || fail "feedback across the torn-journal crash differs from solo"
"$CLIENT" "$S4_SOCK" '{"cmd":"rank","session":"torn1","top":-1}' \
  >"$WORK_DIR/s4_fleet_rank.json"
cmp "$WORK_DIR/s4_rank.json" "$WORK_DIR/s4_fleet_rank.json" \
  || fail "ranking after torn-journal failover differs from solo baseline"
FAILOVERS=$(cluster_counter "$S4_SOCK" sessions_failed_over || true)
[ -n "$FAILOVERS" ] && [ "${FAILOVERS%.*}" -ge 1 ] \
  || fail "cluster/sessions_failed_over did not tick (got '$FAILOVERS')"
echo "scenario 4 ok: failovers=$FAILOVERS, ranking identical"
"$CLIENT" "$S4_SOCK" '{"cmd":"shutdown"}' >/dev/null

echo "PASS: chaos smoke ($WORK_DIR)"
