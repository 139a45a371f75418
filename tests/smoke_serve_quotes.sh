#!/usr/bin/env bash
# The quote lifecycle of `are_cli serve` over its AF_UNIX socket, on the real
# binary. A cold quote captures the book's ground-up losses; terms-only and
# window-only re-quotes must take the delta path. Every server-side YLT CSV
# must be byte-identical to a one-shot `are_cli run --engine fused` with the
# same terms: the resident session changes where the kernel runs, never what
# it computes. The delta legs cover what the replay's lane recurrence must
# get right: plain occurrence terms, aggregate terms that bind (the
# retention absorbs whole years, the limit caps others) and a coverage
# window. Each response's per-request telemetry carries the kernel's phase
# laps and lookup counts: the cold quote looks up every event inside the
# combine phase; a delta reads the capture in place, so it shows zero
# lookups, no combine/lookup time, no fetch phase and a non-zero layer phase
# over every event. The transport survives a client that sends 20000 PINGs
# and leaves without reading, and a 1 MiB line without a newline
# (invalid-argument, connection closed). engine=openmp, a name the
# registry does not list, is refused naming the known engines, and `serve
# --engine openmp` fails before it loads its inputs.
#
# usage: smoke_serve_quotes.sh ARE_CLI WORK_DIR
# WORK_DIR is emptied first, so the smoke can be rerun.
set -euo pipefail
cli=$(realpath "$1")
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

serve_pid=
trap 'kill $serve_pid 2> /dev/null || true' EXIT

"$cli" gen-elt --out book.elt --catalog-size 50000 --entries 5000 > /dev/null
"$cli" gen-yet --out years.yet --trials 2000 --events 100 --catalog-size 50000 > /dev/null

"$cli" serve --yet years.yet --elt book.elt \
  --engine fused --threads 2 --socket are.sock --verbose > serve.out 2> serve.err &
serve_pid=$!
for _ in $(seq 1 100); do [ -S are.sock ] && break; sleep 0.1; done
test -S are.sock
"$cli" quote --socket are.sock --ping > /dev/null

# A client that floods PINGs and disconnects without reading must not take
# the server down (SIGPIPE).
python3 - << 'EOF'
import socket
client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
client.connect('are.sock')
try:
    client.sendall(b'PING\n' * 20000)
except BrokenPipeError:
    pass  # the server may already have dropped the connection
client.close()
EOF
"$cli" quote --socket are.sock --ping > /dev/null

# A 1 MiB request line without a newline: invalid-argument, not echoed.
python3 - << 'EOF'
import socket
client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
client.connect('are.sock')
client.settimeout(10)
try:
    client.sendall(b'x' * (1 << 20))
except (BrokenPipeError, ConnectionResetError):
    pass  # the server stops reading past the 64 KiB cap
response = b''
try:
    while not response.endswith(b'\n'):
        chunk = client.recv(4096)
        if not chunk:
            break
        response += chunk
except ConnectionResetError:
    pass
client.close()
assert b'"code":"invalid-argument"' in response, response[:200]
assert len(response) < 1024, 'the oversized line must not be echoed'
EOF
"$cli" quote --socket are.sock --ping > /dev/null

# openmp is parallel's schedule, not an engine of its own.
if "$cli" quote --socket are.sock --engine openmp > openmp.json; then
  echo "a quote on engine=openmp must be refused" >&2
  exit 1
fi
grep -q '"code":"invalid-argument"' openmp.json
grep -q 'known engines: seq, parallel, fused' openmp.json

"$cli" quote --socket are.sock \
  --occ-retention 200000 --occ-limit 2000000 \
  --csv served_cold.csv > cold.json
"$cli" quote --socket are.sock \
  --occ-retention 500000 --occ-limit 1000000 \
  --csv served_delta.csv > delta.json
"$cli" quote --socket are.sock \
  --occ-retention 500000 --occ-limit 1000000 --agg-retention 500000 --agg-limit 1500000 \
  --csv served_aggregate.csv > aggregate.json
"$cli" quote --socket are.sock \
  --occ-retention 500000 --occ-limit 1000000 --window 0.25:0.75 \
  --csv served_window.csv > window.json
"$cli" quote --socket are.sock --shutdown > /dev/null
status=0
wait "$serve_pid" || status=$?
serve_pid=
test "$status" -eq 0

run() {
  "$cli" run --yet years.yet --elt book.elt --engine fused --threads 2 "$@" 2> /dev/null
}
run --occ-retention 200000 --occ-limit 2000000 --out oneshot_cold.csv > /dev/null
cmp served_cold.csv oneshot_cold.csv
run --occ-retention 500000 --occ-limit 1000000 --out oneshot_delta.csv > /dev/null
cmp served_delta.csv oneshot_delta.csv
run --occ-retention 500000 --occ-limit 1000000 --agg-retention 500000 --agg-limit 1500000 \
  --out oneshot_aggregate.csv > /dev/null
cmp served_aggregate.csv oneshot_aggregate.csv
run --occ-retention 500000 --occ-limit 1000000 --window 0.25:0.75 \
  --out oneshot_window.csv > /dev/null
cmp served_window.csv oneshot_window.csv
if cmp -s served_window.csv served_delta.csv; then
  echo "the window must change the YLT" >&2
  exit 1
fi

python3 - << 'EOF'
import csv, json

def losses(path):
    with open(path) as f:
        return [float(row[1]) for row in list(csv.reader(f))[1:]]

cold = json.load(open('cold.json'))
assert cold['source'] == 'cold', cold['source']

def lookups(counters):
    return sum(v for k, v in counters.items()
               if k.startswith('elt.') and k.endswith('.lookups'))

cc = cold['telemetry']['counters']
assert cc['kernel.ground_up.captured_events'] > 0, cc
assert lookups(cc) == cc['kernel.events'] > 0, cc
assert cc['kernel.phase.combine_ns'] > 0, cc

for leg in ('delta', 'aggregate', 'window'):
    response = json.load(open(leg + '.json'))
    assert response['source'] == 'delta', (leg, response['source'])
    dc = response['telemetry']['counters']
    assert lookups(dc) == 0, (leg, {k: v for k, v in dc.items() if '.lookups' in k})
    assert dc.get('kernel.phase.combine_ns', 0) == 0, (leg, dc)
    assert dc.get('kernel.phase.lookup_ns', 0) == 0, (leg, dc)
    assert 'kernel.phase.fetch_ns' not in dc, (leg, dc)
    assert dc['kernel.phase.layer_ns'] > 0, (leg, dc)
    assert dc['kernel.ground_up.replayed_events'] > 0, (leg, dc)
    assert dc['kernel.ground_up.replayed_events'] == dc['kernel.events'], (leg, dc)

# The aggregate terms bind both ways: the retention absorbs a year the
# occurrence terms alone leave a loss in, and the limit caps another.
plain, aggregate = losses('served_delta.csv'), losses('served_aggregate.csv')
assert any(p > 0 and a == 0 for p, a in zip(plain, aggregate)), 'retention never binds'
assert any(a == 1500000 and p > 2000000 for p, a in zip(plain, aggregate)), 'limit never binds'
EOF

# `serve --engine openmp` fails at startup with the same message, before
# it loads inputs (the YET named here does not exist) or binds a socket.
if "$cli" serve --yet missing.yet --elt book.elt --engine openmp --socket openmp.sock \
  > openmp_serve.out 2> openmp_serve.err; then
  echo "serve --engine openmp must fail" >&2
  exit 1
fi
grep -q 'known engines: seq, parallel, fused' openmp_serve.err
test ! -e openmp.sock
