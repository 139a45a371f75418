#!/usr/bin/env bash
# The front door of `are_cli serve` on the real binary. With one idle TCP
# client on --metrics-port and one idle AF_UNIX client on --socket, a
# /healthz scrape and a PING each answer within 2 s, and SHUTDOWN ends the
# process with status 0 within 2 s. A --socket naming a regular file fails
# with "not a socket" and leaves the file as it was.
#
# usage: smoke_serve_front_door.sh ARE_CLI WORK_DIR
# WORK_DIR is emptied first, so the smoke can be rerun.
set -euo pipefail
cli=$(realpath "$1")
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

serve_pid=
idle_pid=
trap 'kill $serve_pid $idle_pid 2> /dev/null || true' EXIT

"$cli" gen-elt --out book.elt --catalog-size 20000 --entries 2000 > /dev/null
"$cli" gen-yet --out years.yet --trials 1000 --events 20 --catalog-size 20000 > /dev/null

"$cli" serve --yet years.yet --elt book.elt --socket s.sock --metrics-port 0 \
  > serve.out 2> serve.err &
serve_pid=$!
for _ in $(seq 1 100); do [ -S s.sock ] && break; sleep 0.1; done
test -S s.sock
port=$(sed -n 's|.* metrics on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' serve.out)
test -n "$port"

# Both idle clients connect and send nothing until killed.
python3 - "$port" s.sock << 'EOF' &
import pathlib, socket, sys, time
tcp = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
local = socket.socket(socket.AF_UNIX)
local.connect(sys.argv[2])
pathlib.Path("idle.ready").touch()
time.sleep(60)
EOF
idle_pid=$!
for _ in $(seq 1 100); do [ -e idle.ready ] && break; sleep 0.1; done
test -e idle.ready

test "$(curl -sf -m 2 "http://127.0.0.1:$port/healthz")" = ok
timeout 2 "$cli" quote --socket s.sock --ping | grep -q '"pong":true'

"$cli" quote --socket s.sock --shutdown > /dev/null
for _ in $(seq 1 20); do kill -0 "$serve_pid" 2> /dev/null || break; sleep 0.1; done
if kill -0 "$serve_pid" 2> /dev/null; then
  echo "serve still running 2 s after SHUTDOWN" >&2
  exit 1
fi
status=0
wait "$serve_pid" || status=$?
serve_pid=
test "$status" -eq 0
test ! -e s.sock

# --socket naming a regular file: an error, and the file stays byte-identical.
cp book.elt victim.elt
if timeout 10 "$cli" serve --yet years.yet --elt book.elt --socket victim.elt \
  > victim.out 2> victim.err; then
  echo "serve over a regular file must fail" >&2
  exit 1
fi
grep -q "not a socket" victim.err
cmp victim.elt book.elt
