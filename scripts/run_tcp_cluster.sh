#!/usr/bin/env bash
# Launches an n-replica consensus cluster as real OS processes on
# 127.0.0.1 and asserts cluster-wide agreement.
#
#   usage: scripts/run_tcp_cluster.sh [BUILD_DIR] [PROTOCOL] [N]
#
#   BUILD_DIR  directory containing examples/probft_node (default: build)
#   PROTOCOL   probft | pbft | hotstuff | client | restart | reads
#              (default: probft)
#   N          cluster size                                (default: 4)
#
# The consensus protocols run the single-shot smoke in two phases. First
# all N processes must print a DECIDED line with one common value within
# the timeout. Then the same cluster runs with a silent leader: replica 1
# never starts, replicas 2..N run with f = floor((N-1)/3) and l = 1.5,
# and all N-1 must decide one value at view >= 2. The second phase is
# skipped, with a note, when N < 4 (f = 0).
#
# PROTOCOL=client runs the SMR client-path smoke instead: every node runs
# the pipelined replicated log (--smr) with a client port, a real
# probft_client submits $REQUESTS requests (with a forced retry of the
# first one), and the script asserts that the client got a reply for every
# request, that every replica executed exactly $REQUESTS commands (the
# retry must not double-execute), and that all replicas ended with
# identical log digests. The client's --servers list ends with one
# address nothing listens on, so a dead server must not stall it.
#
# PROTOCOL=restart runs the crash-restart durability smoke: an SMR
# cluster with per-node write-ahead logs (--wal-dir, checkpoint interval
# 2) and f=1 / l=1.5 (so 3 of 4 replicas keep committing and can form
# 2f+1 checkpoint certificates with one replica down). Mid-load, replica
# 2 is killed with SIGKILL — the one place this script uses an uncatchable
# signal, because the point is surviving a crash with no shutdown path —
# then restarted against the same WAL. All intentional stops elsewhere
# use SIGTERM: probft_node flushes its WAL and prints its final
# SMRLOG/STATS lines on the way out. A client submits 192 requests; the
# script asserts the restarted process printed RECOVERED with a nonzero
# checkpoint base (it resumed from its last stable checkpoint, not
# genesis) and that all N replicas, the reborn one included, executed 192
# commands and finish with identical chained log digests.
#
# PROTOCOL=reads runs the linearizable-read smoke: an SMR cluster with
# the read fast path on (--reads 1, f=1 / l=1.5 so the leader needs real
# lease grants from 2f other replicas), and the client interleaves reads
# at READ_RATIO (default 0.9) under READ_CONSISTENCY (default
# linearizable). The script asserts every write AND every read completed
# (READS ok — a read only counts as executed when a replica answered it
# with a non-rejected reply), that read values were never stale (the
# client keys each read by its own completed write, so probft_client
# exits nonzero on a mismatch), and that all replicas ended with
# identical log digests.
#
# NODE_EXTRA_FLAGS appends extra probft_node flags to every node in any
# mode — e.g. NODE_EXTRA_FLAGS="--checkpoint-interval 4" checkpoints
# every 4 slots in the SMR modes.
#
# A node that cannot bind its ports prints "cannot start transport"; the
# script then retries on a fresh port range, also when that shows first
# as a failed client.
#
# This is the CI smoke test for the TCP backend. ctest runs the protocol
# modes at N = 4 as `tcp_cluster_probft|pbft|hotstuff` and the client
# mode as `tcp_cluster_client`, so every job that runs ctest (the
# sanitize job under ASan/UBSan too) runs them. Beyond ctest,
# .github/workflows/ci.yml job `tcp-smoke` runs `restart` and `reads`;
# the sanitize job runs `restart 4`; the tsan job runs `client 4`;
# nightly `smr-smoke`, `read-smoke` and `restart-smoke` run `client`,
# `reads` and `restart`.
set -u

BUILD_DIR=${1:-build}
PROTOCOL=${2:-probft}
N=${3:-4}
NODE_BIN="$BUILD_DIR/examples/probft_node"
CLIENT_BIN="$BUILD_DIR/examples/probft_client"
DEADLINE_MS=${DEADLINE_MS:-30000}
LINGER_MS=${LINGER_MS:-2000}
REQUESTS=${REQUESTS:-16}
NODE_EXTRA_FLAGS=${NODE_EXTRA_FLAGS:-}

if [[ ! -x "$NODE_BIN" ]]; then
  echo "error: $NODE_BIN not found (build the examples first)" >&2
  exit 2
fi
if [[ ( "$PROTOCOL" == client || "$PROTOCOL" == restart \
        || "$PROTOCOL" == reads ) && ! -x "$CLIENT_BIN" ]]; then
  echo "error: $CLIENT_BIN not found (build the examples first)" >&2
  exit 2
fi

# Derive a port range from the PID so concurrent CI jobs don't collide;
# retry the whole cluster on a fresh range if a port was taken.
workdir=$(mktemp -d)
pids=()
cleanup() {
  # Clean stops are SIGTERM: probft_node traps it, flushes its WAL and
  # prints final SMRLOG/STATS lines. SIGKILL is reserved for the
  # crash-restart smoke, where an uncatchable death is the test.
  (( ${#pids[@]} )) && kill -TERM "${pids[@]}" 2>/dev/null
  rm -rf "$workdir"
}
trap cleanup EXIT

# client_servers BASE_PORT [DEAD]: the nodes' client ports,
# comma-separated; DEAD = 1 appends the next port, where nothing listens.
client_servers() {
  local list="" i
  for (( i = 0; i < N + ${2:-0}; i++ )); do
    list+="${list:+,}127.0.0.1:$(( $1 + 100 + i ))"
  done
  echo "$list"
}

# port_clash: whether a node could not bind its ports (retryable).
port_clash() {
  grep -lq "cannot start transport" "$workdir"/node-*.err 2>/dev/null
}

# client_failed: the client exited nonzero. Stops the nodes; returns 2 on
# a port clash, else 1 after printing the client's output.
client_failed() {
  (( ${#pids[@]} )) && kill -TERM "${pids[@]}" 2>/dev/null
  wait "${pids[@]}" 2>/dev/null
  pids=()
  port_clash && return 2
  echo "FAIL: the client did not complete" >&2
  cat "$workdir/client.out" >&2
  return 1
}

# wait_nodes WHAT: waits for every process in pids. Returns 0 when all
# exited 0, 2 on a port clash (retryable), else 1 after reporting WHAT
# and the nodes' stderr.
wait_nodes() {
  local failures=0 started=${#pids[@]} pid
  for pid in "${pids[@]}"; do
    wait "$pid" || failures=$((failures + 1))
  done
  pids=()
  (( failures == 0 )) && return 0
  # A bind failure (port stolen between attempts) is retryable; anything
  # else is a real failure — tell them apart by stderr content.
  port_clash && return 2
  echo "FAIL: $failures/$started $1" >&2
  cat "$workdir"/node-*.err >&2
  return 1
}

# logs_agree PATTERN FILE...: exactly N lines in FILEs match PATTERN, all
# with one log digest.
logs_agree() {
  local pattern=$1
  shift
  [[ $(grep -h "$pattern" "$@" | wc -l) -eq "$N"
     && $(grep -h "$pattern" "$@" | sed 's/.*digest=//' | sort -u | wc -l) -eq 1 ]]
}

# The client path (READS=0: the first request is retried and must not
# execute twice, and the client also lists one dead server) and the read
# smoke (READS=1: reads on, f=1 / l=1.5).
run_serving_mode() {
  local base_port=$1 peers=$2 reads=$3
  local ratio=${READ_RATIO:-0.9}
  local consistency=${READ_CONSISTENCY:-linearizable}
  local node_flags=() client_flags=(--force-retry 1) dead=1
  if (( reads )); then
    node_flags=(--f 1 --l 1.5 --reads 1)
    client_flags=(--read-ratio "$ratio" --consistency "$consistency")
    dead=0
  fi
  rm -rf "$workdir"/node-*.out "$workdir"/node-*.err

  pids=()
  for (( id = 1; id <= N; id++ )); do
    timeout $(( DEADLINE_MS / 1000 + LINGER_MS / 1000 + 15 )) \
      "$NODE_BIN" --id "$id" --peers "$peers" --smr 1 "${node_flags[@]}" \
        --client-port $(( base_port + 100 + id - 1 )) \
        --expect-cmds "$REQUESTS" --run-ms "$DEADLINE_MS" \
        --linger-ms "$LINGER_MS" --stats 1 $NODE_EXTRA_FLAGS \
        > "$workdir/node-$id.out" 2> "$workdir/node-$id.err" &
    pids+=($!)
  done

  sleep 1
  if ! timeout $(( DEADLINE_MS / 1000 + 10 )) \
      "$CLIENT_BIN" --servers "$(client_servers "$base_port" "$dead")" \
        --requests "$REQUESTS" "${client_flags[@]}" \
        --retry-ms 3000 --timeout-ms "$DEADLINE_MS" \
        > "$workdir/client.out" 2>&1; then
    client_failed
    return $?
  fi
  wait_nodes "SMR nodes did not reach $REQUESTS commands" || return $?

  cat "$workdir/client.out"
  grep -h "^SMRLOG" "$workdir"/node-*.out
  if ! logs_agree "^SMRLOG .*cmds=$REQUESTS " "$workdir"/node-*.out; then
    echo "FAIL: logs diverged or a request executed twice" >&2
    return 1
  fi
  if ! grep -q "^CLIENT ok requests=$REQUESTS replies=$REQUESTS" \
      "$workdir/client.out"; then
    echo "FAIL: client reply accounting is off" >&2
    return 1
  fi
  echo "OK: $N/$N replicas executed $REQUESTS client commands with" \
       "identical logs"
  (( reads )) || return 0
  if ! grep -q "^READS ok consistency=$consistency .*stale=0 " \
      "$workdir/client.out"; then
    echo "FAIL: reads incomplete or stale" >&2
    return 1
  fi
  echo "OK: $consistency reads at ratio $ratio all answered, none stale"
  return 0
}

run_restart_mode() {
  local base_port=$1
  local peers=$2
  local victim=2
  local linger=8000  # survivors must outlive the victim's catch-up
  # Enough closed-loop requests that the SIGKILL at ~t+5s lands mid-load,
  # so the victim must catch up (state transfer + per-slot proofs) after
  # recovery, not merely replay a finished log.
  local reqs=192
  # A port-clash retry must not inherit the previous attempt's WALs or
  # stale stderr (the retryable-failure grep reads node-*.err).
  rm -rf "$workdir"/wal-* "$workdir"/node-*.out "$workdir"/node-*.err

  start_node() {  # id, outfile
    local id=$1 out=$2
    timeout $(( DEADLINE_MS / 1000 + linger / 1000 + 20 )) \
      "$NODE_BIN" --id "$id" --peers "$peers" --smr 1 --f 1 --l 1.5 \
        --client-port $(( base_port + 100 + id - 1 )) \
        --wal-dir "$workdir/wal-$id" --checkpoint-interval 2 \
        --expect-cmds "$reqs" --run-ms "$DEADLINE_MS" \
        --linger-ms "$linger" --stats 1 $NODE_EXTRA_FLAGS \
        > "$workdir/$out" 2>> "$workdir/node-$id.err" &
    pids+=($!)
  }

  pids=()
  for (( id = 1; id <= N; id++ )); do
    start_node "$id" "node-$id.out"
  done

  sleep 1
  timeout $(( DEADLINE_MS / 1000 + 10 )) \
    "$CLIENT_BIN" --servers "$(client_servers "$base_port")" \
      --requests "$reqs" --retry-ms 2000 \
      --timeout-ms "$DEADLINE_MS" > "$workdir/client.out" 2>&1 &
  local client_pid=$!
  pids+=("$client_pid")

  # Crash the victim mid-load with an uncatchable SIGKILL: no WAL flush,
  # no goodbye — recovery must work from whatever fsync'd state is on
  # disk. Then restart it against the same WAL directory. The pause first
  # lets several checkpoint intervals stabilize, so the recovery base
  # must be past genesis.
  sleep 4
  # The tracked pid is the timeout(1) wrapper; SIGKILL is not forwarded
  # to children, so kill the probft_node child first or it would survive
  # as an orphan still holding the victim's ports.
  local victim_pid=${pids[$((victim - 1))]}
  pkill -KILL -P "$victim_pid" 2>/dev/null
  kill -KILL "$victim_pid" 2>/dev/null
  wait "$victim_pid" 2>/dev/null
  sleep 1
  start_node "$victim" "node-$victim-restart.out"

  if ! wait "$client_pid"; then
    client_failed
    return $?
  fi
  # The survivors and the restarted victim (the last pid).
  pids=("${pids[@]:0:victim-1}" "${pids[@]:victim:N-victim}" "${pids[-1]}")
  wait_nodes "nodes did not reach $reqs executed commands" || return $?

  # Final-state files: the survivors plus the victim's second life.
  # (The victim's first life was SIGKILLed and printed nothing.)
  local finals=()
  for (( id = 1; id <= N; id++ )); do
    if (( id == victim )); then continue; fi
    finals+=("$workdir/node-$id.out")
  done
  finals+=("$workdir/node-$victim-restart.out")

  grep -h "^RECOVERED\|^SMRLOG" "$workdir/node-$victim-restart.out"
  if ! grep -q "^RECOVERED id=$victim base=[1-9]" \
      "$workdir/node-$victim-restart.out"; then
    echo "FAIL: victim did not recover from a stable checkpoint" >&2
    cat "$workdir/node-$victim-restart.out" >&2
    return 1
  fi
  grep -h "^SMRLOG" "${finals[@]}"
  if ! logs_agree "^SMRLOG .*cmds=$reqs " "${finals[@]}"; then
    echo "FAIL: logs diverged after crash-restart" >&2
    return 1
  fi
  echo "OK: replica $victim died (SIGKILL), recovered from its WAL and" \
       "rejoined; $N/$N replicas ended with identical log digests"
  return 0
}

# decide_once FIRST MIN_VIEW [FLAG...]: starts replicas FIRST..N in
# single-shot mode with FLAGs (replicas below FIRST never start) and
# asserts one DECIDED line per started replica, one common value, and
# view >= MIN_VIEW on every line.
decide_once() {
  local first=$1 min_view=$2
  shift 2
  local live=$(( N - first + 1 ))
  rm -f "$workdir"/node-*.out "$workdir"/node-*.err
  pids=()
  for (( id = first; id <= N; id++ )); do
    timeout $(( DEADLINE_MS / 1000 + LINGER_MS / 1000 + 15 )) \
      "$NODE_BIN" --id "$id" --peers "$peers" --protocol "$PROTOCOL" "$@" \
        --deadline-ms "$DEADLINE_MS" --linger-ms "$LINGER_MS" \
        $NODE_EXTRA_FLAGS \
        > "$workdir/node-$id.out" 2> "$workdir/node-$id.err" &
    pids+=($!)
  done
  wait_nodes "nodes did not decide" || return $?

  local decided values low_views
  decided=$(grep -h "^DECIDED" "$workdir"/node-*.out)
  values=$(sed 's/.*value=//' <<< "$decided" | sort -u)
  low_views=$(sed 's/.* view=\([0-9]*\) .*/\1/' <<< "$decided" \
                | awk -v min="$min_view" '$1 < min' | wc -l)
  if [[ $(grep -c . <<< "$decided") -ne "$live"
        || $(wc -l <<< "$values") -ne 1 || "$low_views" -ne 0 ]]; then
    echo "FAIL: agreement violated, decisions missing or view < $min_view" >&2
    echo "$decided" >&2
    return 1
  fi
  echo "OK: $live/$N replicas decided value=$values at view >= $min_view"
}

# The fault-free run, then the silent leader: replica 1 (view 1's
# leader) never starts, so replicas 2..N must change view to decide.
run_single_shot_mode() {
  decide_once 1 1 || return $?
  local f=$(( (N - 1) / 3 ))
  if (( f == 0 )); then
    echo "note: n=$N tolerates no fault; silent-leader phase skipped"
    return 0
  fi
  decide_once 2 2 --f "$f" --l 1.5
}

attempt=0
while (( attempt < 3 )); do
  attempt=$((attempt + 1))
  base_port=$(( 20000 + ( ( $$ + attempt * 1000 + RANDOM % 997 ) % 40000 ) ))
  peers=""
  for (( i = 0; i < N; i++ )); do
    peers+="${peers:+,}127.0.0.1:$(( base_port + i ))"
  done
  echo "attempt $attempt: protocol=$PROTOCOL n=$N peers=$peers"

  if [[ "$PROTOCOL" == client ]]; then
    run_serving_mode "$base_port" "$peers" 0
  elif [[ "$PROTOCOL" == reads ]]; then
    run_serving_mode "$base_port" "$peers" 1
  elif [[ "$PROTOCOL" == restart ]]; then
    run_restart_mode "$base_port" "$peers"
  else
    run_single_shot_mode
  fi
  rc=$?
  if (( rc == 0 )); then
    exit 0
  elif (( rc == 2 )); then
    echo "port clash, retrying on a new range" >&2
    continue
  else
    exit 1
  fi
done

echo "FAIL: could not find a free port range" >&2
exit 1
