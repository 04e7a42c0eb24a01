#!/usr/bin/env bash
# Launches an n-replica consensus cluster as real OS processes on
# 127.0.0.1 and asserts cluster-wide agreement.
#
#   usage: scripts/run_tcp_cluster.sh [BUILD_DIR] [PROTOCOL] [N] [--shards S]
#
#   BUILD_DIR  directory containing examples/probft_node (default: build)
#   PROTOCOL   probft | pbft | hotstuff | client | restart | shard | reads
#              (default: probft)
#   N          cluster size                                (default: 4)
#   --shards S consensus groups per node; anywhere on the command line.
#              S > 1 selects the shard smoke (PROTOCOL=shard defaults S=4).
#
# The consensus protocols run the single-shot smoke: exits 0 iff all N
# processes printed a DECIDED line with one common value within the
# timeout.
#
# PROTOCOL=client runs the SMR client-path smoke instead: every node runs
# the pipelined replicated log (--smr) with a client port, a real
# probft_client submits $REQUESTS requests (with a forced retry of the
# first one), and the script asserts that the client got a reply for every
# request, that every replica executed exactly $REQUESTS commands (the
# retry must not double-execute), and that all replicas ended with
# identical log digests.
#
# PROTOCOL=restart runs the crash-restart durability smoke: an SMR
# cluster with per-node write-ahead logs (--wal-dir, checkpoint interval
# 2) and f=1 / l=1.5 (so 3 of 4 replicas keep committing and can form
# 2f+1 checkpoint certificates with one replica down). Mid-load, replica
# 2 is killed with SIGKILL — the one place this script uses an uncatchable
# signal, because the point is surviving a crash with no shutdown path —
# then restarted against the same WAL. The script asserts the restarted
# process printed RECOVERED with a nonzero checkpoint base (it resumed
# from its last stable checkpoint, not genesis) and that all four
# replicas, the reborn one included, finish with identical chained log
# digests. All intentional stops elsewhere use SIGTERM: probft_node
# flushes its WAL and prints its final SMRLOG/STATS lines on the way out.
#
# PROTOCOL=shard runs the sharded-SMR smoke: every node serves S
# consensus groups (--shards S), a sharded client routes $SHARD_REQUESTS
# requests by placement hash, a second client submits cross-shard
# transactions while replica 2 is SIGKILLed mid-load and restarted
# against its per-shard WALs. The script asserts (a) every client
# request and every dtx got its reply, with every dtx committed, (b)
# the restarted victim printed per-shard RECOVERED lines, (c) all N
# replicas agree per shard: for each s, the N "SMRLOG ... shard=s"
# digests are identical, and (d) every replica's dtx tracker converged
# to the same committed/aborted counts with nothing in flight.
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
# mode — e.g. NODE_EXTRA_FLAGS="--window 16 --batch 32" runs every node
# with a wider pipeline.
#
# This is the CI smoke test for the TCP backend (.github/workflows/ci.yml
# job `tcp-smoke`, nightly `smr-smoke` and `restart-smoke`; job
# `shard-smoke` runs the shard mode).
set -u

# --shards S may appear anywhere; the remaining args stay positional.
SHARDS=0
positional=()
while (( $# )); do
  if [[ "$1" == "--shards" && $# -ge 2 ]]; then
    SHARDS=$2
    shift 2
  else
    positional+=("$1")
    shift
  fi
done
BUILD_DIR=${positional[0]:-build}
PROTOCOL=${positional[1]:-probft}
N=${positional[2]:-4}
if [[ "$PROTOCOL" == shard ]]; then
  (( SHARDS > 1 )) || SHARDS=4
elif (( SHARDS > 1 )); then
  PROTOCOL=shard
fi
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
        || "$PROTOCOL" == shard || "$PROTOCOL" == reads ) \
      && ! -x "$CLIENT_BIN" ]]; then
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

run_client_mode() {
  local base_port=$1
  local peers=$2
  local client_servers=""
  for (( i = 0; i < N; i++ )); do
    client_servers+="${client_servers:+,}127.0.0.1:$(( base_port + 100 + i ))"
  done

  pids=()
  for (( id = 1; id <= N; id++ )); do
    timeout $(( DEADLINE_MS / 1000 + LINGER_MS / 1000 + 15 )) \
      "$NODE_BIN" --id "$id" --peers "$peers" --smr 1 \
        --client-port $(( base_port + 100 + id - 1 )) \
        --expect-cmds "$REQUESTS" --run-ms "$DEADLINE_MS" \
        --linger-ms "$LINGER_MS" --stats 1 $NODE_EXTRA_FLAGS \
        > "$workdir/node-$id.out" 2> "$workdir/node-$id.err" &
    pids+=($!)
  done

  sleep 1
  if ! timeout $(( DEADLINE_MS / 1000 + 10 )) \
      "$CLIENT_BIN" --servers "$client_servers" --requests "$REQUESTS" \
        --mode closed --force-retry 1 --retry-ms 3000 \
        --timeout-ms "$DEADLINE_MS" > "$workdir/client.out" 2>&1; then
    echo "FAIL: client did not complete" >&2
    cat "$workdir/client.out" >&2
    return 1
  fi

  local failures=0
  for (( id = 1; id <= N; id++ )); do
    wait "${pids[$((id - 1))]}" || failures=$((failures + 1))
  done
  pids=()
  if (( failures > 0 )); then
    if grep -lq "cannot start transport" "$workdir"/node-*.err 2>/dev/null; then
      return 2  # retryable port clash
    fi
    echo "FAIL: $failures/$N SMR nodes did not reach $REQUESTS commands" >&2
    cat "$workdir"/node-*.err >&2
    return 1
  fi

  cat "$workdir/client.out"
  grep -h "^SMRLOG" "$workdir"/node-*.out
  local digests cmds
  digests=$(grep -h "^SMRLOG" "$workdir"/node-*.out \
              | sed 's/.*digest=//' | sort -u | wc -l)
  cmds=$(grep -h "^SMRLOG" "$workdir"/node-*.out \
           | grep -c "cmds=$REQUESTS ")
  if [[ "$digests" -ne 1 || "$cmds" -ne "$N" ]]; then
    echo "FAIL: logs diverged or a retry double-executed" >&2
    return 1
  fi
  if ! grep -q "^CLIENT ok requests=$REQUESTS replies=$REQUESTS" \
      "$workdir/client.out"; then
    echo "FAIL: client reply accounting is off" >&2
    return 1
  fi
  echo "OK: $N/$N replicas executed $REQUESTS client commands with identical logs"
  return 0
}

run_reads_mode() {
  local base_port=$1
  local peers=$2
  local ratio=${READ_RATIO:-0.9}
  local consistency=${READ_CONSISTENCY:-linearizable}
  local client_servers=""
  for (( i = 0; i < N; i++ )); do
    client_servers+="${client_servers:+,}127.0.0.1:$(( base_port + 100 + i ))"
  done
  rm -rf "$workdir"/node-*.out "$workdir"/node-*.err

  pids=()
  for (( id = 1; id <= N; id++ )); do
    timeout $(( DEADLINE_MS / 1000 + LINGER_MS / 1000 + 15 )) \
      "$NODE_BIN" --id "$id" --peers "$peers" --smr 1 --f 1 --l 1.5 \
        --reads 1 \
        --client-port $(( base_port + 100 + id - 1 )) \
        --expect-cmds "$REQUESTS" --run-ms "$DEADLINE_MS" \
        --linger-ms "$LINGER_MS" --stats 1 $NODE_EXTRA_FLAGS \
        > "$workdir/node-$id.out" 2> "$workdir/node-$id.err" &
    pids+=($!)
  done

  sleep 1
  if ! timeout $(( DEADLINE_MS / 1000 + 10 )) \
      "$CLIENT_BIN" --servers "$client_servers" --requests "$REQUESTS" \
        --mode closed --read-ratio "$ratio" --consistency "$consistency" \
        --retry-ms 3000 --timeout-ms "$DEADLINE_MS" \
        > "$workdir/client.out" 2>&1; then
    echo "FAIL: client did not complete its writes and reads" >&2
    cat "$workdir/client.out" >&2
    return 1
  fi

  local failures=0
  for (( id = 1; id <= N; id++ )); do
    wait "${pids[$((id - 1))]}" || failures=$((failures + 1))
  done
  pids=()
  if (( failures > 0 )); then
    if grep -lq "cannot start transport" "$workdir"/node-*.err 2>/dev/null; then
      return 2  # retryable port clash
    fi
    echo "FAIL: $failures/$N SMR nodes did not reach $REQUESTS commands" >&2
    cat "$workdir"/node-*.err >&2
    return 1
  fi

  cat "$workdir/client.out"
  grep -h "^SMRLOG" "$workdir"/node-*.out
  local digests cmds
  digests=$(grep -h "^SMRLOG" "$workdir"/node-*.out \
              | sed 's/.*digest=//' | sort -u | wc -l)
  cmds=$(grep -h "^SMRLOG" "$workdir"/node-*.out \
           | grep -c "cmds=$REQUESTS ")
  if [[ "$digests" -ne 1 || "$cmds" -ne "$N" ]]; then
    echo "FAIL: logs diverged under the read workload" >&2
    return 1
  fi
  if ! grep -q "^CLIENT ok requests=$REQUESTS replies=$REQUESTS" \
      "$workdir/client.out"; then
    echo "FAIL: client reply accounting is off" >&2
    return 1
  fi
  if ! grep -q "^READS ok consistency=$consistency .*stale=0 " \
      "$workdir/client.out"; then
    echo "FAIL: reads incomplete or stale" >&2
    return 1
  fi
  echo "OK: $N/$N replicas executed $REQUESTS writes with identical logs;" \
       "$consistency reads at ratio $ratio all answered, none stale"
  return 0
}

run_restart_mode() {
  local base_port=$1
  local peers=$2
  local victim=2
  # Enough closed-loop requests that the SIGKILL at ~t+5s lands mid-load:
  # the victim must then catch up (state transfer + per-slot proofs) after
  # recovery, not merely replay a finished log. (REQUESTS has a global
  # client-mode default of 16, hence the separate override knob.)
  local reqs=${RESTART_REQUESTS:-192}
  local linger=8000  # survivors must outlive the victim's catch-up
  local client_servers=""
  for (( i = 0; i < N; i++ )); do
    client_servers+="${client_servers:+,}127.0.0.1:$(( base_port + 100 + i ))"
  done
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
    "$CLIENT_BIN" --servers "$client_servers" --requests "$reqs" \
      --mode closed --retry-ms 2000 \
      --timeout-ms "$DEADLINE_MS" > "$workdir/client.out" 2>&1 &
  local client_pid=$!
  pids+=("$client_pid")

  # Crash the victim mid-load with an uncatchable SIGKILL: no WAL flush,
  # no goodbye — recovery must work from whatever fsync'd state is on
  # disk. Then restart it against the same WAL directory. The pause
  # first lets several checkpoint intervals stabilize, so the recovery
  # base must be past genesis.
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

  local failures=0
  for (( id = 1; id <= N; id++ )); do
    if (( id == victim )); then continue; fi
    wait "${pids[$((id - 1))]}" || failures=$((failures + 1))
  done
  wait "${pids[-1]}" || failures=$((failures + 1))  # restarted victim
  if ! wait "$client_pid"; then
    echo "FAIL: client did not complete" >&2
    cat "$workdir/client.out" >&2
    pids=()
    return 1
  fi
  pids=()
  if (( failures > 0 )); then
    if grep -lq "cannot start transport" "$workdir"/node-*.err 2>/dev/null; then
      return 2  # retryable port clash
    fi
    echo "FAIL: $failures nodes did not reach $reqs commands" >&2
    cat "$workdir"/node-*.err >&2
    return 1
  fi

  grep -h "^RECOVERED\|^SMRLOG" "$workdir/node-$victim-restart.out"
  if ! grep -q "^RECOVERED id=$victim base=[1-9]" \
      "$workdir/node-$victim-restart.out"; then
    echo "FAIL: victim did not recover from a stable checkpoint" >&2
    cat "$workdir/node-$victim-restart.out" >&2
    return 1
  fi

  # Final-state files: the three survivors plus the victim's second life.
  # (The victim's first life was SIGKILLed and printed nothing.)
  local finals=()
  for (( id = 1; id <= N; id++ )); do
    if (( id == victim )); then continue; fi
    finals+=("$workdir/node-$id.out")
  done
  finals+=("$workdir/node-$victim-restart.out")
  grep -h "^SMRLOG" "${finals[@]}"
  local digests cmds
  digests=$(grep -h "^SMRLOG" "${finals[@]}" \
              | sed 's/.*digest=//' | sort -u | wc -l)
  cmds=$(grep -h "^SMRLOG" "${finals[@]}" | grep -c "cmds=$reqs ")
  if [[ "$digests" -ne 1 || "$cmds" -ne "$N" ]]; then
    echo "FAIL: logs diverged after crash-restart" >&2
    return 1
  fi
  echo "OK: replica $victim died (SIGKILL), recovered from its WAL and" \
       "rejoined; $N/$N replicas ended with identical log digests"
  return 0
}

run_shard_mode() {
  local base_port=$1
  local peers=$2
  local victim=2
  local reqs=${SHARD_REQUESTS:-96}
  local dtx=${SHARD_DTX:-2}
  # Every entry count is deterministic: the client mines one key per
  # shard into each tx, so each tx commits exactly 2 + 2*SHARDS entries
  # (BEGIN + DECIDE + per-participant PREPARE/APPLY) on top of the
  # ordinary requests. --expect-cmds counts total executed entries.
  local expect=$(( reqs + dtx * (2 + 2 * SHARDS) ))
  local linger=8000
  local client_servers=""
  for (( i = 0; i < N; i++ )); do
    client_servers+="${client_servers:+,}127.0.0.1:$(( base_port + 100 + i ))"
  done
  rm -rf "$workdir"/wal-* "$workdir"/node-*.out "$workdir"/node-*.err

  start_node() {  # id, outfile
    local id=$1 out=$2
    timeout $(( DEADLINE_MS / 1000 + linger / 1000 + 20 )) \
      "$NODE_BIN" --id "$id" --peers "$peers" --smr 1 --shards "$SHARDS" \
        --f 1 --l 1.5 \
        --client-port $(( base_port + 100 + id - 1 )) \
        --wal-dir "$workdir/wal-$id" --checkpoint-interval 2 \
        --expect-cmds "$expect" --run-ms "$DEADLINE_MS" \
        --linger-ms "$linger" --stats 1 $NODE_EXTRA_FLAGS \
        > "$workdir/$out" 2>> "$workdir/node-$id.err" &
    pids+=($!)
  }

  pids=()
  for (( id = 1; id <= N; id++ )); do
    start_node "$id" "node-$id.out"
  done

  sleep 1
  # Load client: closed-loop sharded requests, routed by placement hash.
  timeout $(( DEADLINE_MS / 1000 + 10 )) \
    "$CLIENT_BIN" --servers "$client_servers" --shards "$SHARDS" \
      --requests "$reqs" --mode closed --retry-ms 2000 \
      --timeout-ms "$DEADLINE_MS" > "$workdir/client.out" 2>&1 &
  local client_pid=$!
  pids+=("$client_pid")

  # Dtx client: cross-shard transactions in flight around the SIGKILL
  # below, so atomicity is exercised against a crashing replica.
  sleep 2
  timeout $(( DEADLINE_MS / 1000 + 10 )) \
    "$CLIENT_BIN" --servers "$client_servers" --shards "$SHARDS" \
      --requests 0 --dtx "$dtx" --client-id 88001 --mode open \
      --retry-ms 1000 --timeout-ms "$DEADLINE_MS" \
      > "$workdir/dtx.out" 2>&1 &
  local dtx_pid=$!
  pids+=("$dtx_pid")

  # Crash the victim mid-load (uncatchable SIGKILL — no WAL flush), then
  # restart it against the same per-shard WAL directories.
  sleep 1
  local victim_pid=${pids[$((victim - 1))]}
  pkill -KILL -P "$victim_pid" 2>/dev/null
  kill -KILL "$victim_pid" 2>/dev/null
  wait "$victim_pid" 2>/dev/null
  sleep 1
  start_node "$victim" "node-$victim-restart.out"

  local failures=0
  for (( id = 1; id <= N; id++ )); do
    if (( id == victim )); then continue; fi
    wait "${pids[$((id - 1))]}" || failures=$((failures + 1))
  done
  wait "${pids[-1]}" || failures=$((failures + 1))  # restarted victim
  local client_ok=0
  wait "$client_pid" || client_ok=1
  wait "$dtx_pid" || client_ok=1
  pids=()
  if (( client_ok != 0 )); then
    echo "FAIL: a client did not complete" >&2
    cat "$workdir/client.out" "$workdir/dtx.out" >&2
    return 1
  fi
  if (( failures > 0 )); then
    if grep -lq "cannot start transport" "$workdir"/node-*.err 2>/dev/null; then
      return 2  # retryable port clash
    fi
    echo "FAIL: $failures nodes did not reach $expect executed entries" >&2
    cat "$workdir"/node-*.err >&2
    return 1
  fi

  cat "$workdir/client.out" "$workdir/dtx.out"
  if ! grep -q "^DTXCLIENT requests=$dtx committed=$dtx aborted=0" \
      "$workdir/dtx.out"; then
    echo "FAIL: not every cross-shard transaction committed" >&2
    return 1
  fi
  if ! grep -q "^RECOVERED id=$victim shard=" \
      "$workdir/node-$victim-restart.out"; then
    echo "FAIL: victim did not recover its per-shard WALs" >&2
    cat "$workdir/node-$victim-restart.out" >&2
    return 1
  fi

  local finals=()
  for (( id = 1; id <= N; id++ )); do
    if (( id == victim )); then continue; fi
    finals+=("$workdir/node-$id.out")
  done
  finals+=("$workdir/node-$victim-restart.out")
  grep -h "^RECOVERED" "$workdir/node-$victim-restart.out"
  grep -h "^SMRLOG\|^DTX " "${finals[@]}"
  # Per-shard agreement: for each group, the N digests must be identical.
  local s digests lines
  for (( s = 0; s < SHARDS; s++ )); do
    digests=$(grep -h "^SMRLOG id=[0-9]* shard=$s " "${finals[@]}" \
                | sed 's/.*digest=//' | sort -u | wc -l)
    lines=$(grep -h "^SMRLOG id=[0-9]* shard=$s " "${finals[@]}" | wc -l)
    if [[ "$digests" -ne 1 || "$lines" -ne "$N" ]]; then
      echo "FAIL: shard $s logs diverged across the fleet" >&2
      return 1
    fi
  done
  # Dtx atomicity: every survivor's tracker converged to all-committed,
  # and NO replica observed an abort or left a tx in flight. The
  # restarted victim may legitimately report committed=0 — a transaction
  # wholly below its adopted checkpoint is garbage-collected bookkeeping;
  # the per-shard digest identity above already proves its logs carry the
  # same APPLY entries as everyone else's.
  local dtx_full dtx_clean
  dtx_full=$(grep -h \
      "^DTX id=[0-9]* committed=$dtx aborted=0 in_flight=0" \
      "${finals[@]}" | wc -l)
  dtx_clean=$(grep -h "^DTX id=[0-9]* committed=[0-9]* aborted=0 in_flight=0" \
      "${finals[@]}" | wc -l)
  if [[ "$dtx_full" -lt $(( N - 1 )) || "$dtx_clean" -ne "$N" ]]; then
    echo "FAIL: dtx outcomes diverged across the fleet" >&2
    grep -h "^DTX " "${finals[@]}" >&2
    return 1
  fi
  echo "OK: $N nodes x $SHARDS shards agreed per-shard through a SIGKILL" \
       "restart; $dtx/$dtx cross-shard transactions committed atomically"
  return 0
}

run_single_shot_mode() {
  local peers=$1
  pids=()
  for (( id = 1; id <= N; id++ )); do
    timeout $(( DEADLINE_MS / 1000 + LINGER_MS / 1000 + 15 )) \
      "$NODE_BIN" --id "$id" --peers "$peers" --protocol "$PROTOCOL" \
        --deadline-ms "$DEADLINE_MS" --linger-ms "$LINGER_MS" \
        $NODE_EXTRA_FLAGS \
        > "$workdir/node-$id.out" 2> "$workdir/node-$id.err" &
    pids+=($!)
  done

  local failures=0
  for (( id = 1; id <= N; id++ )); do
    wait "${pids[$((id - 1))]}" || failures=$((failures + 1))
  done
  pids=()
  if (( failures > 0 )); then
    # A bind failure (port stolen between attempts) is retryable; anything
    # else is a real failure — tell them apart by stderr content.
    if grep -lq "cannot start transport" "$workdir"/node-*.err 2>/dev/null; then
      return 2
    fi
    echo "FAIL: $failures/$N nodes did not decide" >&2
    cat "$workdir"/node-*.err >&2
    return 1
  fi

  local values count
  values=$(grep -h "^DECIDED" "$workdir"/node-*.out \
             | sed 's/.*value=//' | sort -u)
  count=$(cat "$workdir"/node-*.out | grep -c "^DECIDED")
  if [[ $(wc -l <<< "$values") -ne 1 || "$count" -ne "$N" ]]; then
    echo "FAIL: agreement violated or missing decisions" >&2
    grep -h "^DECIDED" "$workdir"/node-*.out >&2
    return 1
  fi

  echo "OK: $N/$N replicas decided value=$values"
  return 0
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
    run_client_mode "$base_port" "$peers"
  elif [[ "$PROTOCOL" == reads ]]; then
    run_reads_mode "$base_port" "$peers"
  elif [[ "$PROTOCOL" == restart ]]; then
    run_restart_mode "$base_port" "$peers"
  elif [[ "$PROTOCOL" == shard ]]; then
    run_shard_mode "$base_port" "$peers"
  else
    run_single_shot_mode "$peers"
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
