#!/usr/bin/env bash
# The engine registry and the kernel knobs on the real binary. Every engine
# `list-engines --names` prints (the kernel's four schedules) writes the
# YLT CSV seq writes, byte for byte: plain, under a mid-year window (which
# must change the YLT), and with each of --chunk 4, --phases, --simd-ext
# scalar and --tile 128 --partition guided. The former engine names are
# knobs now and must fail naming the four.
#
# usage: smoke_engines.sh ARE_CLI WORK_DIR
# WORK_DIR is emptied first, so the smoke can be rerun.
set -euo pipefail
cli=$(realpath "$1")
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

"$cli" list-engines > list-engines.txt
test "$("$cli" list-engines --names | tr '\n' ' ')" = "seq parallel openmp fused "

"$cli" gen-elt --out book.elt --catalog-size 50000 --entries 5000 > /dev/null
"$cli" gen-yet --out years.yet --trials 2000 --events 100 --catalog-size 50000 > /dev/null

run() {
  "$cli" run --yet years.yet --elt book.elt "$@"
}

# seq comes first, so seq.csv exists before any other engine compares.
for engine in $("$cli" list-engines --names); do
  run --engine "$engine" --threads 2 --out "$engine.csv"
  cmp "$engine.csv" seq.csv
done

for removed in chunked simd windowed instrumented; do
  if run --engine "$removed" --out removed.csv 2> removed.err; then
    echo "--engine $removed must fail" >&2
    exit 1
  fi
  grep -q 'known engines: seq, parallel, openmp, fused' removed.err
done

run --engine seq --window 0.25:0.75 --out seq_part.csv
if cmp -s seq_part.csv seq.csv; then
  echo "--window 0.25:0.75 must change the YLT" >&2
  exit 1
fi
for engine in $("$cli" list-engines --names); do
  run --engine "$engine" --threads 2 --window 0.25:0.75 --out "$engine"_part.csv
  cmp "$engine"_part.csv seq_part.csv
done

for engine in $("$cli" list-engines --names); do
  for knob in "--chunk 4" "--phases" "--simd-ext scalar" "--tile 128 --partition guided"; do
    # $knob unquoted: a flag and its value are two words.
    run --engine "$engine" --threads 2 $knob --out knob.csv
    cmp knob.csv seq.csv
  done
done
