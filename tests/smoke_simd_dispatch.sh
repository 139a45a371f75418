#!/usr/bin/env bash
# Runtime SIMD dispatch on the real binary. The per-extension kernel TUs
# carry their own -m flags, so even a baseline (-DARE_MARCH_NATIVE=OFF)
# build must pick a wide extension at load time on a host whose cpuid
# reports AVX2 or AVX-512: one baseline binary, best host ISA. Then every
# runnable extension is pinned through ARE_SIMD_EXT (kAuto of parallel and
# fused) and through --simd-ext (seq too), on the direct table and on the
# robin-hood and cuckoo tables, and each YLT CSV must be the direct-table
# seq reference, byte for byte.
#
# usage: smoke_simd_dispatch.sh ARE_CLI WORK_DIR
# WORK_DIR is emptied first, so the smoke can be rerun.
set -euo pipefail
cli=$(realpath "$1")
work=$2
rm -rf "$work"
mkdir -p "$work"
cd "$work"
unset ARE_SIMD_EXT  # the auto check below is about cpuid, not an override

"$cli" simd-info | tee simd-info.txt
if grep -qE '^cpuid detected : .*avx(2|512)' simd-info.txt; then
  "$cli" list-engines | grep -E 'auto runs avx(2|512)'
fi

"$cli" gen-elt --out book.elt --catalog-size 50000 --entries 5000 > /dev/null
"$cli" gen-yet --out years.yet --trials 2000 --events 100 --catalog-size 50000 > /dev/null

run() {
  "$cli" run --yet years.yet --elt book.elt "$@"
}

run --engine seq --threads 2 --out seq.csv
for ext in $("$cli" simd-info --runnable); do
  for engine in parallel fused; do
    ARE_SIMD_EXT=$ext run --engine "$engine" --threads 2 --verbose \
      --out dispatch_"$engine"_"$ext".csv
    cmp dispatch_"$engine"_"$ext".csv seq.csv
    # The hash tables' one probe loop, under every extension the kernel
    # can run beside it.
    for lookup in robinhood cuckoo; do
      ARE_SIMD_EXT=$ext run --engine "$engine" --threads 2 --lookup "$lookup" \
        --out dispatch_"$engine"_"$ext"_"$lookup".csv
      cmp dispatch_"$engine"_"$ext"_"$lookup".csv seq.csv
    done
  done
  run --engine seq --simd-ext "$ext" --out dispatch_seq_"$ext".csv
  cmp dispatch_seq_"$ext".csv seq.csv
done
