#!/usr/bin/env bash
# The observability plane of `are_cli serve` on the real binary. The server
# boots with the scrape endpoint (on an ephemeral port, read back from its
# startup line), a JSONL access log, a Chrome trace and a once-only
# allocation fault armed, then answers one quote per outcome class: failed,
# cold, delta, cached. Mid-load, the live /metrics exposition must pass the
# structural checker (cumulative buckets, +Inf == _count, one TYPE per
# family) and carry the per-source histogram series the operator view
# reads; /healthz answers ok; /statusz reports the same per-source counts;
# `are_cli top` renders one frame from the same endpoint. After shutdown
# the access log holds exactly one JSONL line per quote (the fault-injected
# failure included) and every request id appears in the trace twice (span
# args + instant), and the served CSV is byte-identical to a one-shot run
# even with telemetry on and a scraper attached. A second server whose
# broker rejects everything still logs its one quote, with the structured
# reason.
#
# usage: smoke_serve_observability.sh ARE_CLI WORK_DIR CHECK_PROMETHEUS_PY
# WORK_DIR is emptied first, so the smoke can be rerun.
set -euo pipefail
cli=$(realpath "$1")
work=$2
check_prometheus=$(realpath "$3")
rm -rf "$work"
mkdir -p "$work"
cd "$work"

serve_pid=
trap 'kill $serve_pid 2> /dev/null || true' EXIT

"$cli" gen-elt --out book.elt --catalog-size 50000 --entries 5000 > /dev/null
"$cli" gen-yet --out years.yet --trials 2000 --events 100 --catalog-size 50000 > /dev/null

"$cli" serve --yet years.yet --elt book.elt \
  --engine fused --threads 2 --socket obs.sock \
  --metrics-port 0 --access-log access.jsonl \
  --trace-out serve_trace.json --fault kernel.alloc=once --verbose \
  > serve_obs.out 2> serve_obs.err &
serve_pid=$!
for _ in $(seq 1 100); do [ -S obs.sock ] && break; sleep 0.1; done
test -S obs.sock
port=$(sed -n 's|.* metrics on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' serve_obs.out)
test -n "$port"
export METRICS_PORT=$port

# Quote 1 fails on the armed once-only allocation fault; 2 = cold (captures
# ground-up), 3 = delta, 4 = cache hit of 3.
if "$cli" quote --socket obs.sock --no-cache > obs_fault.json; then
  echo "expected the first quote to fail under kernel.alloc=once" >&2
  exit 1
fi
grep -q '"code":"resource-exhausted"' obs_fault.json
"$cli" quote --socket obs.sock \
  --occ-retention 200000 --occ-limit 2000000 --csv obs_cold.csv > obs_cold.json
"$cli" quote --socket obs.sock \
  --occ-retention 500000 --occ-limit 1000000 > obs_delta.json
"$cli" quote --socket obs.sock \
  --occ-retention 500000 --occ-limit 1000000 > obs_cached.json
grep -q '"request_id":"q-000002"' obs_cold.json
grep -q '"source":"delta"' obs_delta.json
grep -q '"source":"cached"' obs_cached.json

# Mid-load scrape: structural validation of the live exposition.
python3 -c 'import os, sys, urllib.request; sys.stdout.write(urllib.request.urlopen("http://127.0.0.1:%s/metrics" % os.environ["METRICS_PORT"]).read().decode())' > metrics.prom
python3 "$check_prometheus" metrics.prom \
  --require 'are_service_quote_ns_bucket\{source="cold",le="\+Inf"\} 1' \
  --require 'are_service_quote_ns_p50_ns\{source="cold"\}' \
  --require 'are_service_requests_total 4' \
  --require 'are_uptime_seconds' \
  --require 'are_fault_injected_kernel_alloc_total 1'
python3 - << 'EOF'
import json, os, urllib.request
base = 'http://127.0.0.1:%s' % os.environ['METRICS_PORT']
assert urllib.request.urlopen(base + '/healthz').read() == b'ok\n'
s = json.load(urllib.request.urlopen(base + '/statusz'))
q = s['quotes']
assert q['requests'] == 4 and q['cold'] == 1 and q['delta'] == 1, q
assert q['cached'] == 1 and q['failed'] == 1 and q['rejected'] == 0, q
assert 'kernel.alloc' in s['armed_fault_sites'], s['armed_fault_sites']
assert s['embedder']['default_engine'] == 'fused', s
EOF
"$cli" top --connect "127.0.0.1:$port" --iterations 1 --no-clear > top.out
grep -q 'cold' top.out
"$cli" quote --socket obs.sock --shutdown > /dev/null
status=0
wait "$serve_pid" || status=$?
serve_pid=
test "$status" -eq 0

# Zero-cost contract, end to end: served bytes unchanged by the metrics
# server + access log + trace all being on.
"$cli" run --yet years.yet --elt book.elt --engine fused --threads 2 \
  --occ-retention 200000 --occ-limit 2000000 --out oneshot_cold.csv > /dev/null 2>&1
cmp obs_cold.csv oneshot_cold.csv
test "$(wc -l < access.jsonl)" -eq 4
python3 - << 'EOF'
import json
lines = [json.loads(l) for l in open('access.jsonl')]
assert [l['source'] for l in lines] == ['failed', 'cold', 'delta', 'cached'], lines
ids = [l['request_id'] for l in lines]
assert ids == ['q-%06d' % i for i in range(1, 5)], ids
assert lines[0]['status'] == 'error', lines[0]
assert lines[0]['fault_fires'] == {'kernel.alloc': 1}, lines[0]
assert lines[2]['elt_lookups'] == 0, lines[2]  # delta replays, never looks up
# The cold quote did not fail: its diff of the failed-quote histogram is
# empty, with none of q-000001's latency in its extremes.
cold = json.load(open('obs_cold.json'))
assert cold['request_id'] == 'q-000002', cold['request_id']
failed = cold['telemetry']['histograms']['service.quote_ns{source=failed}']
assert (failed['count'], failed['min_ns'], failed['max_ns']) == (0, 0, 0), failed
keys = {'request_id', 'portfolio', 'source', 'status', 'code', 'engine',
        'fingerprint', 'admission', 'reason', 'queue_wait_seconds',
        'deadline_ms', 'wall_ns', 'elt_lookups', 'fault_fires'}
for l in lines:
    assert keys <= set(l), sorted(keys - set(l))
# Request ids correlate into the Chrome trace: the service.quote span's
# args and the service.quote.done instant ('i' events appear in serve
# traces; run traces stay B/E only).
trace = json.load(open('serve_trace.json'))['traceEvents']
assert trace, 'serve trace is empty'
for e in trace:
    assert e['ph'] in 'BEi', e
for rid in ids:
    hits = [e for e in trace if rid in json.dumps(e.get('args', {}))]
    assert len(hits) == 2, (rid, [e['name'] for e in hits])
EOF

# A broker that rejects everything still logs every quote: one line,
# structured reason, no outcome.
"$cli" serve --yet years.yet --elt book.elt \
  --engine fused --threads 2 --socket obs2.sock \
  --access-log access_rejected.jsonl --max-request-cost 1 > serve_rejected.out 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do [ -S obs2.sock ] && break; sleep 0.1; done
test -S obs2.sock
if "$cli" quote --socket obs2.sock > rejected.json; then
  echo "expected rejection under --max-request-cost 1" >&2
  exit 1
fi
# An oversized request is the caller's to fix: the wire code is
# invalid-argument, the admission reason request-too-large.
grep -q '"code":"invalid-argument"' rejected.json
grep -q '"reason":"request-too-large"' rejected.json
"$cli" quote --socket obs2.sock --shutdown > /dev/null
status=0
wait "$serve_pid" || status=$?
serve_pid=
test "$status" -eq 0
test "$(wc -l < access_rejected.jsonl)" -eq 1
grep -q '"source":"rejected"' access_rejected.jsonl
grep -q '"reason":"request-too-large"' access_rejected.jsonl
