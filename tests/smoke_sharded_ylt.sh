#!/usr/bin/env bash
# The sharded output mode with a deliberately small memory budget: 300K
# trials x 8 B = 2.4 MB of YLT against a 1 MB budget, so shards must spill
# to disk and fault back, and the streamed CSV must still be the in-memory
# seq run's, byte for byte, on every engine. The --verbose stderr line,
# rendered from the telemetry registry, must show the spills happened (a
# quietly-fitting budget would make this smoke vacuous).
#
# usage: smoke_sharded_ylt.sh ARE_CLI WORK_DIR
# WORK_DIR is emptied first, so the smoke can be rerun.
set -euo pipefail
cli=$(realpath "$1")
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

"$cli" gen-elt --out book.elt --catalog-size 50000 --entries 5000 > /dev/null
"$cli" gen-yet --out big.yet --trials 300000 --events 5 --catalog-size 50000 > /dev/null

"$cli" run --yet big.yet --elt book.elt --engine seq --out big_seq.csv
for engine in $("$cli" list-engines --names); do
  "$cli" run --yet big.yet --elt book.elt --engine "$engine" \
    --output sharded --shard-trials 4096 --memory-budget-mb 1 \
    --spill-dir spill_"$engine" --threads 2 --verbose \
    --out big_sharded_"$engine".csv 2> sharded_"$engine".err
  cat sharded_"$engine".err
  grep -E 'sharded YLT: .* [1-9][0-9]* spills' sharded_"$engine".err
  cmp big_sharded_"$engine".csv big_seq.csv
done
