#!/usr/bin/env bash
# Cluster smoke: boots a coordinator, two masters, one replica and the
# RESP proxy; checks that the coordinator and the proxy refuse a malformed
# --port; registers the topology; checks the proxy and the coordinator
# answer the shared commands as a node does; drives traffic through the
# proxy and the smart client; kills a master mid-flight and verifies the
# replica is promoted with no lost keys; checks SCAN/DBSIZE key placement;
# then shuts everything down without leaking a process. Used by the CI cluster-smoke
# job; runnable locally:
#
#   ./scripts/cluster_smoke.sh ./build
set -euo pipefail

BUILD_DIR="${1:-./build}"
COORD="$BUILD_DIR/tierbase_coordinator"
SERVER="$BUILD_DIR/tierbase_server"
PROXY="$BUILD_DIR/tierbase_proxy"
CLI="$BUILD_DIR/tierbase_cli"
YCSB="$BUILD_DIR/ycsb_runner"
WORK="$(mktemp -d)"
PIDS=()

fail() { echo "CLUSTER SMOKE FAIL: $1" >&2; exit 1; }
cleanup() {
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

# --- Boot: coordinator + n1, n2 (masters) + r1 (replica of n1). ---
"$COORD" --port 0 --port-file "$WORK/coord.port" &
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

# --- Numeric flags parse strictly: an out-of-range or malformed --port is
# a usage error (exit 2), never a wrapped port. The timeout only bounds a
# binary that wrongly starts serving; its 124 fails the check too. ---
for bad in 70000 12ab; do
  for cmd in "$COORD" "$PROXY --coordinator 127.0.0.1:$CP"; do
    rc=0
    timeout 5 $cmd --port "$bad" --port-file "$WORK/bad.port" \
      >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ] || fail "$cmd --port $bad: exit $rc, want 2"
    [ ! -e "$WORK/bad.port" ] || fail "$cmd --port $bad wrote a port file"
  done
done
echo "smoke: coordinator and proxy refuse --port 70000 and --port 12ab"

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

# --- One command registry: the proxy and the coordinator answer a shared
# command exactly as a node does, and the proxy's COMMAND lists what it
# forwards. ---
NODE_PING=$("$CLI" -p "$N1" PING a b || true)
case "$NODE_PING" in
  "(error) ERR wrong number of arguments for 'ping' command") ;;
  *) fail "node PING a b: got '$NODE_PING'" ;;
esac
for port in "$CP" "$PP"; do
  got=$("$CLI" -p "$port" PING a b || true)
  [ "$got" = "$NODE_PING" ] || \
    fail "PING a b on port $port: got '$got', want '$NODE_PING'"
done
PROXY_COMMANDS=$("$CLI" -p "$PP" COMMAND)
grep -q '"get"' <<< "$PROXY_COMMANDS" || fail "proxy COMMAND lists no get"
echo "smoke: proxy and coordinator answer shared commands as a node does"

# --- Data path through the proxy; placement checked via SCAN/DBSIZE. ---
KEYS=40
for i in $(seq 1 $KEYS); do
  expect "OK" "$PP" SET "smoke:$i" "v$i"
done
expect "\"v7\"" "$PP" GET smoke:7
N1_KEYS=$("$CLI" -p "$N1" DBSIZE | tr -dc '0-9')
N2_KEYS=$("$CLI" -p "$N2" DBSIZE | tr -dc '0-9')
[ "$((N1_KEYS + N2_KEYS))" -eq "$KEYS" ] || \
  fail "DBSIZE split $N1_KEYS+$N2_KEYS != $KEYS"
[ "$N1_KEYS" -gt 0 ] && [ "$N2_KEYS" -gt 0 ] || fail "one-sided key split"
SCANNED=$("$CLI" -p "$N1" SCAN 0 COUNT 1000 | grep -c 'smoke:' || true)
[ "$SCANNED" -eq "$N1_KEYS" ] || fail "SCAN saw $SCANNED of $N1_KEYS on n1"

# Replica catch-up is observable via WAIT and DBSIZE.
ACKED=$("$CLI" -p "$N1" WAIT 1 5000 | tr -dc '0-9')
[ "$ACKED" -ge 1 ] || fail "replica never acked (WAIT -> $ACKED)"
R1_KEYS=$("$CLI" -p "$R1" DBSIZE | tr -dc '0-9')
[ "$R1_KEYS" -eq "$N1_KEYS" ] || fail "replica holds $R1_KEYS != $N1_KEYS"
echo "smoke: $KEYS keys split $N1_KEYS/$N2_KEYS, replica caught up"

# --- YCSB through both cluster paths. ---
"$YCSB" --workload A --records 5000 --ops 5000 --batch 16 \
  --cluster "127.0.0.1:$CP" | grep -q "run " || fail "smart-client YCSB"
# INFO is read whole before it is searched: a reader that stops at the
# first match would SIGPIPE the CLI, and pipefail would fail the smoke.
info_field() { # info_field <port> <key>
  "$CLI" -p "$1" INFO | tr -d '\r"' | sed -n "s/^$2://p"
}
N2_CMDS0=$(info_field "$N2" total_commands_processed)
N2_BATCHES0=$(info_field "$N2" dispatched_batches)
"$YCSB" --workload A --records 5000 --ops 5000 --batch 16 \
  --remote "127.0.0.1:$PP" | grep -q "run " || fail "proxy YCSB"
echo "smoke: YCSB-A over smart client and proxy OK"
# The proxy pipelines each client batch per node: n2 must see several
# commands per upstream batch, not one at a time.
N2_CMDS=$(( $(info_field "$N2" total_commands_processed) - N2_CMDS0 ))
N2_BATCHES=$(( $(info_field "$N2" dispatched_batches) - N2_BATCHES0 ))
[ "$N2_BATCHES" -gt 0 ] && [ "$N2_CMDS" -ge "$((2 * N2_BATCHES))" ] || \
  fail "proxy sent n2 $N2_CMDS commands in $N2_BATCHES batches (< 2 per batch)"
echo "smoke: proxy -> n2 $N2_CMDS commands in $N2_BATCHES batches"

# --- Kill a master; the replica must take over with no lost smoke keys. ---
kill -9 "$N1_PID"
expect "OK" "$CP" CLUSTER FAIL n1
EPOCH1=$("$CLI" -p "$CP" CLUSTER EPOCH | tr -dc '0-9')
[ "$EPOCH1" -gt "$EPOCH0" ] || fail "epoch did not bump on failover"
grep -q "role:master" <<< "$("$CLI" -p "$R1" INFO)" || \
  fail "replica not promoted"
for i in $(seq 1 $KEYS); do
  got=$("$CLI" -p "$PP" GET "smoke:$i")
  [ "$got" = "\"v$i\"" ] || fail "lost smoke:$i after failover (got $got)"
done
expect "OK" "$PP" SET smoke:after failover
expect "\"failover\"" "$PP" GET smoke:after
echo "smoke: master killed, replica promoted (epoch $EPOCH0 -> $EPOCH1), no keys lost"

# --- FLUSHALL through the proxy reaches the whole cluster. ---
expect "OK" "$N2" FLUSHALL
expect "OK" "$R1" FLUSHALL
[ "$("$CLI" -p "$N2" DBSIZE | tr -dc '0-9')" -eq 0 ] || fail "FLUSHALL n2"

# --- Clean shutdown, no leaked processes. ---
expect "OK" "$PP" SHUTDOWN
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
echo "cluster smoke: OK"
