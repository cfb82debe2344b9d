#!/usr/bin/env bash
# Codegen check of the delegate host loop's AVX2 build.
#
#   scripts/check_avx2_codegen.sh   (from anywhere inside the repo)
#
# `delegates_into` runs 32-bit keys through `delegates_into_avx2`
# (crates/core/src/delegate.rs), a build of the host loop compiled with
# AVX2 whose per-lane compare-exchange LLVM lowers to `vpmaxud`/`vpminud`
# on ymm registers. Its per-lane limit was measured on that code, so a
# change that leaves the loop scalar slows construction without failing a
# test. The script builds the release `drtopk-core` lib test binary, finds
# the `delegates_into_avx2<u32>` instance by its debug-info name (the
# release profile keeps debug info; symbol names carry no type
# parameters), disassembles it with objdump and fails when it holds no
# ymm max or min instruction. On a host that is not x86-64 the AVX2 build
# does not exist, and the script only says so.
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

# The debug-info entry of the u32 instance names its linkage symbol on the
# line before its name.
symbol=$(objdump --dwarf=info "$bin" 2>/dev/null |
    grep -B1 'DW_AT_name *:.*: delegates_into_avx2<u32>$' |
    grep -o '_ZN[0-9A-Za-z_$.]*E' | head -n 1 || true)
if [[ -z "$symbol" ]]; then
    echo "no delegates_into_avx2<u32> in $bin" >&2
    exit 1
fi

vector=$(objdump -d --no-show-raw-insn --disassemble="$symbol" "$bin" |
    grep -cE 'vpm(ax|in)[su][bwdq][[:space:]].*%ymm' || true)
echo "delegates_into_avx2<u32> ($symbol): $vector ymm max/min instructions"
if [[ "$vector" -eq 0 ]]; then
    echo "delegates_into_avx2<u32> holds no ymm max or min: its per-lane loop is no longer vectorized" >&2
    exit 1
fi
