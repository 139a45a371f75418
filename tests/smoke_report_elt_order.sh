#!/usr/bin/env bash
# The CLI's whole load phase on real files, then the pool-driven kernel, on
# a three-ELT book. Repeated --elt flags must price every ELT, in order:
# the report equals the one with the same paths given positionally. The
# TSan build runs this smoke too (label tsan), so the load phase's threads
# run on real files there.
#
# usage: smoke_report_elt_order.sh ARE_CLI WORK_DIR
# WORK_DIR is emptied first, so the smoke can be rerun.
set -euo pipefail
cli=$(realpath "$1")
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

for i in 1 2 3; do
  "$cli" gen-elt --out book$i.elt --catalog-size 50000 --entries 5000 --seed $i > /dev/null
done
"$cli" gen-yet --out years.yet --trials 20000 --events 100 --catalog-size 50000 > /dev/null

"$cli" report --yet years.yet --elt book1.elt --elt book2.elt --elt book3.elt \
  --threads 2 | tee report_flags.txt
"$cli" report --yet years.yet book1.elt book2.elt book3.elt \
  --threads 2 > report_positional.txt
cmp report_flags.txt report_positional.txt
