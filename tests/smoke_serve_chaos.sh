#!/usr/bin/env bash
# `are_cli serve` under injected faults, on the real binary (CI also runs it
# in the ASan+UBSan build). A quote whose kernel allocation fails comes back
# as a structured, retryable resource-exhausted error and the client exits
# nonzero; a 1 ms deadline on a cold quote is a structured
# deadline-exceeded error; the server survives both and serves a clean
# quote. On a second server, `quote --retries 2 --retry-base-ms 50` recovers
# from a connection the service.socket site drops and then from a retryable
# allocation failure. SHUTDOWN drains each server and it exits 0.
#
# The book makes the deadline certain: 20000 trials of ~200 events priced
# against three ELTs is ~20 ms of kernel blocks over ~78 blocks (a few
# times that under ASan), and the kernel checks the deadline before every
# block, so a 1 ms budget always expires with blocks still to run.
#
# usage: smoke_serve_chaos.sh ARE_CLI WORK_DIR
# WORK_DIR is emptied first, so the smoke can be rerun.
set -euo pipefail
cli=$(realpath "$1")
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

serve_pid=
trap 'kill $serve_pid 2> /dev/null || true' EXIT

for seed in 1 2 3; do
  "$cli" gen-elt --out book$seed.elt --catalog-size 50000 --entries 5000 --seed $seed > /dev/null
done
"$cli" gen-yet --out years.yet --trials 20000 --events 200 --catalog-size 50000 > /dev/null

start_serve() {  # SOCKET FAULTS LOG
  "$cli" serve --yet years.yet --elt book1.elt --elt book2.elt --elt book3.elt \
    --engine fused --threads 2 --socket "$1" --fault "$2" --verbose > "$3.out" 2> "$3.err" &
  serve_pid=$!
  for _ in $(seq 1 100); do [ -S "$1" ] && break; sleep 0.1; done
  test -S "$1"
}

stop_serve() {  # SOCKET
  "$cli" quote --socket "$1" --shutdown > /dev/null
  local status=0
  wait "$serve_pid" || status=$?
  serve_pid=
  test "$status" -eq 0
}

start_serve chaos.sock kernel.alloc=once chaos

# The armed allocation fault: a structured error, and the client's exit
# status reflects it.
if "$cli" quote --socket chaos.sock --no-cache > alloc.json; then
  echo "expected the quote to fail under kernel.alloc=once" >&2
  exit 1
fi
grep -q '"status":"error"' alloc.json
grep -q '"code":"resource-exhausted"' alloc.json
grep -q '"retryable":true' alloc.json

# Deadline semantics over the wire: an expired budget is a structured,
# retryable deadline-exceeded error.
if "$cli" quote --socket chaos.sock --no-cache --no-delta --deadline-ms 1 > deadline.json; then
  echo "expected a 1 ms deadline to expire" >&2
  cat deadline.json >&2
  exit 1
fi
grep -q '"status":"error"' deadline.json
grep -q '"code":"deadline-exceeded"' deadline.json
grep -q '"retryable":true' deadline.json

# The server survived both: a clean quote is served.
"$cli" quote --socket chaos.sock > clean.json
grep -q '"status":"ok"' clean.json
stop_serve chaos.sock
grep -q 'failed=2 fault.injected.kernel.alloc=1' chaos.err

# Retries: the first connection is dropped unread, the second attempt's
# quote fails its allocation, the third is served.
start_serve retry.sock kernel.alloc=once,service.socket=once retry
"$cli" quote --socket retry.sock --retries 2 --retry-base-ms 50 > retried.json 2> retried.err
grep -q '"status":"ok"' retried.json
grep -q '^quote attempt 1: connection closed' retried.err
grep -q '^quote attempt 2: retryable failure: .*"code":"resource-exhausted"' retried.err
stop_serve retry.sock
