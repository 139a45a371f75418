#!/usr/bin/env bash
# Every exporter the CLI wires up, and the zero-cost-when-disabled contract
# at the byte level: a run with counters or spans collecting writes the
# CSV of the run without. The JSON snapshot is schema-checked (counter
# values included), the Prometheus text is grepped for the sanitised
# names, and the Chrome-trace JSON of a spilling sharded run must parse
# with balanced B/E phases: the file chrome://tracing and Perfetto load.
#
# usage: smoke_telemetry.sh ARE_CLI WORK_DIR
# WORK_DIR is emptied first, so the smoke can be rerun; its trace.json is
# the trace artifact CI uploads.
set -euo pipefail
cli=$(realpath "$1")
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

"$cli" gen-elt --out book.elt --catalog-size 50000 --entries 5000 > /dev/null
"$cli" gen-yet --out years.yet --trials 2000 --events 100 --catalog-size 50000 > /dev/null
"$cli" gen-yet --out big.yet --trials 300000 --events 5 --catalog-size 50000 > /dev/null
"$cli" run --yet years.yet --elt book.elt --engine seq --threads 2 --out seq.csv
"$cli" run --yet big.yet --elt book.elt --engine seq --out big_seq.csv

"$cli" run --yet years.yet --elt book.elt --engine fused --threads 2 \
  --telemetry json --telemetry-out telemetry.json --out fused_telemetry.csv
cmp fused_telemetry.csv seq.csv
python3 - << 'PY'
import json
s = json.load(open('telemetry.json'))
assert {'counters', 'gauges', 'histograms'} <= set(s), sorted(s)
c = s['counters']
assert c['kernel.trials'] == 2000, c
assert c['kernel.launches'] >= 1 and c['kernel.blocks'] >= 1, c
assert c['kernel.events'] > 0 and c['parallel.costed_chunks'] >= 1, c
# One direct-table ELT: the kernel counts its own gathers, one per event,
# and laps them as the combine phase.
assert c['elt.direct_access.lookups'] == c['kernel.events'], c
assert c['kernel.phase.combine_ns'] > 0, c
PY

"$cli" run --yet years.yet --elt book.elt --engine parallel --threads 2 \
  --telemetry prom --out parallel_telemetry.csv 2> telemetry.prom
cmp parallel_telemetry.csv seq.csv
grep -q '^are_kernel_trials_total 2000$' telemetry.prom
grep -q '^# TYPE are_kernel_launches_total counter$' telemetry.prom

"$cli" run --yet big.yet --elt book.elt --engine fused \
  --output sharded --shard-trials 4096 --memory-budget-mb 1 \
  --spill-dir spill_telemetry --threads 2 \
  --telemetry trace --telemetry-out trace.json --out sharded_telemetry.csv
cmp sharded_telemetry.csv big_seq.csv
python3 - << 'PY'
import json
from collections import Counter
events = json.load(open('trace.json'))['traceEvents']
assert events, 'trace is empty'
depth = Counter()
for e in events:
    assert e['ph'] in 'BE', e
    depth[e['tid']] += 1 if e['ph'] == 'B' else -1
    assert depth[e['tid']] >= 0, f"unbalanced E on tid {e['tid']}"
assert not +depth, f'unclosed spans: {dict(depth)}'
names = {e['name'] for e in events}
assert 'kernel.launch' in names and 'shard.spill' in names, names
PY
