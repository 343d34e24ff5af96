#!/usr/bin/env bash
# Partition smoke: boots a probing coordinator, two masters, one replica
# and the RESP proxy; acknowledges a batch of writes and waits for the
# replica to catch up; then SIGSTOPs a master mid-YCSB — the process is
# alive but black-holed, exactly what a network partition looks like from
# the outside. The prober must mark it failed and promote the replica, the
# smart client must ride through on bounded timeouts, and every
# acknowledged write must still be readable after the heal. Used by the CI
# partition-smoke job; runnable locally:
#
#   ./scripts/partition_smoke.sh ./build
set -euo pipefail

BUILD_DIR="${1:-./build}"
COORD="$BUILD_DIR/tierbase_coordinator"
SERVER="$BUILD_DIR/tierbase_server"
PROXY="$BUILD_DIR/tierbase_proxy"
CLI="$BUILD_DIR/tierbase_cli"
YCSB="$BUILD_DIR/ycsb_runner"
WORK="$(mktemp -d)"
PIDS=()

fail() { echo "PARTITION SMOKE FAIL: $1" >&2; exit 1; }
cleanup() {
  # A SIGSTOPped process ignores SIGKILL until it runs again.
  for pid in "${PIDS[@]:-}"; do kill -CONT "$pid" 2>/dev/null || true; done
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

for bin in "$COORD" "$SERVER" "$PROXY" "$CLI" "$YCSB"; do
  [ -x "$bin" ] || fail "missing $bin"
done

wait_port_file() { # wait_port_file <path> <pid>
  for _ in $(seq 1 100); do
    [ -s "$1" ] && return 0
    kill -0 "$2" 2>/dev/null || fail "process died during startup ($1)"
    sleep 0.1
  done
  fail "never wrote port file $1"
}

# --- Boot: probing coordinator + n1, n2 (masters) + r1 (replica of n1).
# The probe interval is the failure detector: nobody will call CLUSTER
# FAIL by hand in this smoke.
"$COORD" --port 0 --port-file "$WORK/coord.port" --probe-interval-ms 250 &
PIDS+=($!); COORD_PID=$!
"$SERVER" --port 0 --port-file "$WORK/n1.port" --cluster-id n1 &
PIDS+=($!); N1_PID=$!
"$SERVER" --port 0 --port-file "$WORK/n2.port" --cluster-id n2 &
PIDS+=($!)
"$SERVER" --port 0 --port-file "$WORK/r1.port" --cluster-id r1 &
PIDS+=($!)
wait_port_file "$WORK/coord.port" "$COORD_PID"
wait_port_file "$WORK/n1.port" "$N1_PID"
wait_port_file "$WORK/n2.port" "${PIDS[2]}"
wait_port_file "$WORK/r1.port" "${PIDS[3]}"
CP=$(cat "$WORK/coord.port"); N1=$(cat "$WORK/n1.port")
N2=$(cat "$WORK/n2.port");    R1=$(cat "$WORK/r1.port")

expect() { # expect <want> <port> <cmd...>
  local want="$1" port="$2"; shift 2
  local got
  got="$("$CLI" -p "$port" "$@")" || fail "command failed: $*"
  [ "$got" = "$want" ] || fail "command $*: got '$got', want '$want'"
}

expect "OK" "$CP" CLUSTER ADDNODE n1 127.0.0.1 "$N1"
expect "OK" "$CP" CLUSTER ADDNODE n2 127.0.0.1 "$N2"
expect "OK" "$CP" CLUSTER ADDNODE r1 127.0.0.1 "$R1" REPLICAOF n1
EPOCH0=$("$CLI" -p "$CP" CLUSTER EPOCH | tr -dc '0-9')
echo "smoke: cluster up (coord=$CP n1=$N1 n2=$N2 r1=$R1, epoch $EPOCH0)"

"$PROXY" --coordinator "127.0.0.1:$CP" --port 0 --port-file "$WORK/proxy.port" &
PIDS+=($!); PROXY_PID=$!
wait_port_file "$WORK/proxy.port" "$PROXY_PID"
PP=$(cat "$WORK/proxy.port")

# --- Acknowledged writes: every SET below replied +OK, and WAIT pins the
# replica as caught up. These keys are the "zero lost acknowledged
# writes" contract — they must survive the partition.
KEYS=40
for i in $(seq 1 $KEYS); do
  expect "OK" "$PP" SET "acked:$i" "v$i"
done
ACKED=$("$CLI" -p "$N1" WAIT 1 5000 | tr -dc '0-9')
[ "$ACKED" -ge 1 ] || fail "replica never acked (WAIT -> $ACKED)"
echo "smoke: $KEYS writes acknowledged and replicated"

# --- Partition n1 mid-YCSB. SIGSTOP, not SIGKILL: the process stays
# alive, its sockets stay open, and nothing answers — a black hole.
# stdbuf keeps the runner line-buffered so the "load" line is the signal
# that the run phase has started; the op count keeps that phase seconds
# wide at local throughput.
stdbuf -oL "$YCSB" --workload A --records 2000 --ops 200000 --batch 8 \
  --cluster "127.0.0.1:$CP" > "$WORK/ycsb.out" 2>&1 &
YCSB_PID=$!
for _ in $(seq 1 100); do
  grep -q "^load " "$WORK/ycsb.out" 2>/dev/null && break
  kill -0 "$YCSB_PID" 2>/dev/null || fail "YCSB died before the partition"
  sleep 0.1
done
grep -q "^load " "$WORK/ycsb.out" || fail "YCSB never reached the run phase"
kill -0 "$YCSB_PID" 2>/dev/null || fail "YCSB finished before the partition"
kill -STOP "$N1_PID"
echo "smoke: n1 partitioned (SIGSTOP) mid-YCSB"

# --- The prober must notice, bump the epoch and promote r1 — with no
# manual CLUSTER FAIL. Probe timeout is 2 s, interval 250 ms, so well
# inside this budget.
for _ in $(seq 1 150); do
  EPOCH1=$("$CLI" -p "$CP" CLUSTER EPOCH | tr -dc '0-9')
  [ "$EPOCH1" -gt "$EPOCH0" ] && break
  sleep 0.1
done
[ "$EPOCH1" -gt "$EPOCH0" ] || fail "prober never marked n1 failed"
# Promotion lands once r1's pull link times out of its bounded read and
# the coordinator's REPLICAOF NO ONE gets dispatched — poll for it.
PROMOTED=0
for _ in $(seq 1 150); do
  if "$CLI" -p "$R1" INFO | grep -q "role:master"; then PROMOTED=1; break; fi
  sleep 0.1
done
[ "$PROMOTED" -eq 1 ] || fail "replica not promoted"
grep -q "probe_marked_failed:" <<< "$("$CLI" -p "$CP" INFO)" || \
  fail "coordinator INFO lacks probe counters"
echo "smoke: prober failed n1, replica promoted (epoch $EPOCH0 -> $EPOCH1)"

# --- YCSB must finish: bounded node timeouts plus the circuit breaker
# turn the dead shard into fast errors, not a hung client.
for _ in $(seq 1 1200); do
  kill -0 "$YCSB_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$YCSB_PID" 2>/dev/null && fail "YCSB hung through the partition"
wait "$YCSB_PID" || fail "YCSB exited non-zero: $(cat "$WORK/ycsb.out")"
grep -q "run " "$WORK/ycsb.out" || fail "YCSB produced no run phase"
echo "smoke: YCSB rode through the partition"

# --- Zero lost acknowledged writes: every acked key must read back
# through the proxy from the promoted replica.
for i in $(seq 1 $KEYS); do
  got=$("$CLI" -p "$PP" GET "acked:$i")
  [ "$got" = "\"v$i\"" ] || fail "lost acked:$i after failover (got $got)"
done
expect "OK" "$PP" SET acked:after failover
expect "\"failover\"" "$PP" GET acked:after
echo "smoke: all $KEYS acknowledged writes survived the failover"

# --- Heal. n1 wakes up as a deposed master; the cluster must keep
# serving from the new topology and n1 must still answer directly.
kill -CONT "$N1_PID"
sleep 0.5
expect "PONG" "$N1" PING
expect "\"failover\"" "$PP" GET acked:after
echo "smoke: partition healed, cluster still serving"

# --- Clean shutdown, no leaked processes. ---
expect "OK" "$PP" SHUTDOWN
expect "OK" "$N1" SHUTDOWN
expect "OK" "$N2" SHUTDOWN
expect "OK" "$R1" SHUTDOWN
expect "OK" "$CP" SHUTDOWN
# (pgrep -x matches the 15-char truncated comm name, which also covers
# tierbase_coordinator.)
leaked() {
  pgrep -x tierbase_server >/dev/null 2>&1 ||
    pgrep -x tierbase_proxy >/dev/null 2>&1 ||
    pgrep -x tierbase_coordi >/dev/null 2>&1
}
for _ in $(seq 1 50); do
  leaked || break
  sleep 0.1
done
if leaked; then fail "leaked cluster process"; fi
PIDS=()
echo "partition smoke: OK"
