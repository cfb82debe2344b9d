#!/usr/bin/env bash
# Codegen check of the delegate host loop's AVX2 build.
#
#   scripts/check_avx2_codegen.sh   (from anywhere inside the repo)
#
# `delegates_into` runs 32-bit keys through `delegates_into_avx2`
# (crates/core/src/delegate.rs), whose per-lane loop (`per_lane_avx2`, one
# never-inlined instance per β ≤ 4) does each compare-exchange as one
# `vpmaxud`/`vpminud` pair on ymm registers. Its per-lane limits were
# measured on that code, so a change that turns it back into the six-op
# xor swap LLVM makes of the portable mask form (`vpcmpeqd`, `vpandn`) or
# into scalar `cmov`s slows construction without failing a test. The
# script builds the release `drtopk-core` lib test binary, finds
# `delegates_into_avx2<u32>` and the four `per_lane_avx2<u32, β>`
# instances by their debug-info names (the release profile keeps debug
# info; symbol names carry no type parameters), disassembles each
# instance with objdump and fails when one holds no ymm `vpmaxud`, no ymm
# `vpminud` at β ≥ 2, or any `vpcmpeqd`, `vpandn` or `cmov`. On a host
# that is not x86-64 the AVX2 build does not exist, and the script only
# says so.
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ "$(uname -m)" != x86_64 ]]; then
    echo "not an x86-64 host: no AVX2 build to check"
    exit 0
fi

bin=$(cargo test --release -p drtopk-core --lib --no-run 2>&1 |
    sed -n 's/.*Executable unittests src\/lib\.rs (\(.*\))$/\1/p')
if [[ -z "$bin" || ! -x "$bin" ]]; then
    echo "could not find the release drtopk-core lib test binary" >&2
    exit 1
fi
dwarf=$(objdump --dwarf=info "$bin" 2>/dev/null)
symbols=$(nm "$bin")

# The disassembly of the function whose debug-info name is $1. Its entry
# names the linkage symbol on the line before the name; the symbol table
# may carry it with a `.llvm.<n>` suffix.
disassemble() {
    local linkage symbol
    linkage=$(awk -v name=": $1" '/DW_AT_name/ && substr($0, length($0) - length(name) + 1) == name {
        print prev } { prev = $0 }' <<<"$dwarf" | grep -o '_ZN[0-9A-Za-z_$.]*E' | head -n 1 || true)
    symbol=$(awk -v s="$linkage" '$3 == s || index($3, s ".") == 1 { print $3; exit }' <<<"$symbols")
    if [[ -z "$linkage" || -z "$symbol" ]]; then
        echo "no $1 in $bin" >&2
        return 1
    fi
    objdump -d --no-show-raw-insn --disassemble="$symbol" "$bin"
}

disassemble 'delegates_into_avx2<u32>' >/dev/null
failed=0
for beta in 1 2 3 4; do
    name="per_lane_avx2<u32, $beta>"
    asm=$(disassemble "$name")
    count() { grep -cE "$1" <<<"$asm" || true; }
    max=$(count 'vpmaxud[[:space:]].*%ymm')
    min=$(count 'vpminud[[:space:]].*%ymm')
    swap=$(count '[[:space:]](vpcmpeqd|vpandn)[[:space:]]')
    cmov=$(count '[[:space:]]cmov[a-z]*[[:space:]]')
    echo "$name: $max ymm vpmaxud, $min ymm vpminud, $swap vpcmpeqd/vpandn, $cmov cmov"
    if [[ "$max" -eq 0 || ("$beta" -ge 2 && "$min" -eq 0) ]]; then
        echo "$name: the per-lane loop is no longer on ymm vpmaxud/vpminud" >&2
        failed=1
    fi
    if [[ "$swap" -ne 0 ]]; then
        echo "$name: a compare-exchange is an xor swap (vpcmpeqd/vpandn)" >&2
        failed=1
    fi
    if [[ "$cmov" -ne 0 ]]; then
        echo "$name: part of the per-lane loop is scalar (cmov)" >&2
        failed=1
    fi
done
exit "$failed"
