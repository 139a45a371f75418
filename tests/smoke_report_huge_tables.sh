#!/usr/bin/env bash
# `are_cli report` on direct tables of 2 MiB and more (a 300K-event catalog,
# 2.4 MB per table, so every table takes the huge-page allocation path):
# the parallel and fused engines under auto and under every runnable
# --simd-ext must print exactly what seq prints, and --verbose must report
# how much of the tables sits on 2 MiB pages.
#
# usage: smoke_report_huge_tables.sh ARE_CLI WORK_DIR
# WORK_DIR is emptied first, so the smoke can be rerun.
set -euo pipefail
cli=$(realpath "$1")
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"

for i in 1 2 3; do
  "$cli" gen-elt --out book$i.elt --catalog-size 300000 --entries 5000 --seed $i \
    --elt-id $i > /dev/null
done
"$cli" gen-yet --out years.yet --trials 500 --events 200 --catalog-size 300000 > /dev/null

report() {
  "$cli" report --yet years.yet --elt book1.elt --elt book2.elt --elt book3.elt \
    --catalog-size 300000 --threads 2 "$@"
}

report --engine seq > seq.txt 2> /dev/null
for engine in parallel fused; do
  for ext in auto $("$cli" simd-info --runnable); do
    report --engine "$engine" --simd-ext "$ext" > "$engine-$ext.txt" 2> /dev/null
    cmp "$engine-$ext.txt" seq.txt
  done
done

report --engine fused --verbose > verbose.txt 2> verbose.err
cmp verbose.txt seq.txt
grep -E '^direct tables: [0-9]+\.[0-9] MiB, [0-9]+\.[0-9] MiB on 2 MiB pages$' verbose.err
