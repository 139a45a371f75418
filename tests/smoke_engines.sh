#!/usr/bin/env bash
# The engine registry and the kernel knobs on the real binary. Every engine
# `list-engines --names` prints (the kernel's three schedules) writes the
# YLT CSV seq writes, byte for byte: plain, under a mid-year window (which
# must change the YLT), and with each of --chunk 4, --phases, --simd-ext
# scalar and --tile 128; and `price` prints seq's quote line. The former engine names are knobs now, or parallel's schedule
# (openmp): run, report and price must refuse them naming the three, before
# any input loads. So must `price --output sharded`, a negative or NaN
# pricing loading, and a MiB budget or metrics port that does not fit once
# scaled or narrowed.
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
test "$("$cli" list-engines --names | tr '\n' ' ')" = "seq parallel fused "

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

# The YET named here does not exist, so each refusal must come from the
# flags, before anything loads.
for removed in chunked simd windowed instrumented openmp; do
  for command in run report price; do
    if "$cli" "$command" --yet missing.yet --elt book.elt --engine "$removed" \
      > /dev/null 2> removed.err; then
      echo "$command --engine $removed must fail" >&2
      exit 1
    fi
    grep -q 'known engines: seq, parallel, fused' removed.err
  done
done
if "$cli" price --yet missing.yet --elt book.elt --output sharded > /dev/null 2> sharded.err; then
  echo "price --output sharded must fail" >&2
  exit 1
fi
grep -q 'price.*--output' sharded.err
for loading in "--tvar-loading -5:tvar loading" "--stddev-loading nan:stddev loading"; do
  if "$cli" price --yet missing.yet --elt book.elt ${loading%%:*} > /dev/null 2> loading.err; then
    echo "price ${loading%%:*} must fail" >&2
    exit 1
  fi
  grep -q "${loading#*:}" loading.err
done
# 2^44 MiB wraps to 0 bytes (no budget); 2^32 truncates to port 0.
for leg in "run:--memory-budget-mb 17592186044416" "serve:--ground-up-budget-mb 17592186044416" \
  "serve:--metrics-port 4294967296"; do
  flag=${leg#*:}
  if "$cli" "${leg%%:*}" --yet missing.yet --elt book.elt --out never.csv --socket never.sock \
    $flag > /dev/null 2> flag.err; then
    echo "${leg%%:*} $flag must fail" >&2
    exit 1
  fi
  grep -q -- "${flag%% *}" flag.err
done
test ! -e never.sock

# `price` on every engine prints seq's quote line, byte for byte.
for engine in $("$cli" list-engines --names); do
  "$cli" price --yet years.yet --elt book.elt --occ-retention 200000 --occ-limit 2000000 \
    --engine "$engine" --threads 2 > price_"$engine".txt
  grep -q . price_"$engine".txt
  cmp price_"$engine".txt price_seq.txt
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
  for knob in "--chunk 4" "--phases" "--simd-ext scalar" "--tile 128"; do
    # $knob unquoted: a flag and its value are two words.
    run --engine "$engine" --threads 2 $knob --out knob.csv
    cmp knob.csv seq.csv
  done
done
