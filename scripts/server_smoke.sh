#!/usr/bin/env bash
# Server smoke: boots tierbase_server on an ephemeral port, drives the
# basic command set through the bundled CLI, shuts the server down via the
# SHUTDOWN command, and verifies a clean exit with no leaked process.
# Used by the CI server-smoke job; runnable locally:
#
#   ./scripts/server_smoke.sh ./build
set -euo pipefail

BUILD_DIR="${1:-./build}"
SERVER="$BUILD_DIR/tierbase_server"
CLI="$BUILD_DIR/tierbase_cli"
PORT_FILE="$(mktemp)"
rm -f "$PORT_FILE"

fail() { echo "SMOKE FAIL: $1" >&2; exit 1; }

[ -x "$SERVER" ] || fail "missing $SERVER"
[ -x "$CLI" ] || fail "missing $CLI"

"$SERVER" --port 0 --port-file "$PORT_FILE" &
SERVER_PID=$!

# Wait for the port file (the server writes it once it is listening).
for _ in $(seq 1 50); do
  [ -s "$PORT_FILE" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died during startup"
  sleep 0.1
done
[ -s "$PORT_FILE" ] || fail "server never wrote the port file"
PORT="$(cat "$PORT_FILE")"
echo "smoke: server up on port $PORT (pid $SERVER_PID)"

expect() { # expect <want> <cmd...>
  local want="$1"; shift
  local got
  got="$("$CLI" -p "$PORT" "$@")" || fail "command failed: $*"
  [ "$got" = "$want" ] || fail "command $*: got '$got', want '$want'"
}

expect "PONG" PING
expect "OK" SET smoke:key hello
expect '"hello"' GET smoke:key
expect "OK" MSET a 1 b 2
expect '1) "1"
2) "2"
3) (nil)' MGET a b nosuch
expect "(integer) 1" INCR smoke:counter
expect "(integer) 1" DEL a
INFO=$("$CLI" -p "$PORT" INFO)
grep -q "keyspace_hits:" <<< "$INFO" || fail "INFO missing stats"
grep -q "bytes_cached:" <<< "$INFO" || fail "INFO missing memory"

expect "OK" SHUTDOWN

# The server must exit cleanly (SHUTDOWN ends the event loop) and leave no
# process behind.
for _ in $(seq 1 50); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  kill -9 "$SERVER_PID"
  fail "server still running after SHUTDOWN (leaked process)"
fi
RC=0
wait "$SERVER_PID" || RC=$?
[ "$RC" -eq 0 ] || fail "server exited with status $RC"

rm -f "$PORT_FILE"
echo "smoke: OK"
