#!/usr/bin/env bash
# Paired A/B runs of two built perfbench binaries on one workload.
#
#   scripts/perf_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS SECONDS
#
# Pair i runs both binaries with `--workload WORKLOAD --seed 901+i
# --seconds SECONDS --trace 0`, parent first on even pairs and change first
# on odd ones, so a drift of the host's speed does not favour either side.
# Each pair prints both `norm_cpu_p50_ms` values and whether `modeled_ms`
# agrees, or both `modeled_ms` values and their change when it does not.
# The summary gives, for `norm_cpu_p50_ms`, `norm_cpu_p90_ms` and
# `norm_throughput_sel_s`, both medians, the change's wins out of PAIRS
# (lower time or higher throughput) and the parent's interquartile range,
# then whether `modeled_ms` agreed on every pair (if not, both medians and
# the relative change, so a change that moves the model on purpose reports
# it from the same run) and the failed calls of each side: the evidence a
# claimed gain needs (wins in at least nine of ten pairs, median gap larger
# than the parent's IQR).
#
# Build the binaries first, each from its own checkout, e.g.
#   CARGO_TARGET_DIR=/tmp/a cargo build --release --offline \
#       --manifest-path perfbench/Cargo.toml
# and pass /tmp/a/release/perfbench. A run takes about PAIRS × 2 ×
# (SECONDS + set-up) seconds, so this is not part of CI.
set -euo pipefail

if [[ $# -ne 5 ]]; then
    sed -n '4p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4 seconds=$5
for bin in "$parent" "$change"; do
    [[ -x $bin ]] || { echo "not an executable: $bin" >&2; exit 2; }
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run() { # side seed
    local bin=$parent
    [[ $1 == change ]] && bin=$change
    # perfbench exits 1 when a call fails; the summary reports it
    "$bin" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 \
        2>/dev/null | tail -n 1 > "$out/$1.$2.json" || true
}

for ((i = 0; i < pairs; i++)); do
    seed=$((901 + i))
    if ((i % 2 == 0)); then
        run parent "$seed"; run change "$seed"
    else
        run change "$seed"; run parent "$seed"
    fi
    python3 - "$out" "$seed" <<'PY'
import json, sys
out, seed = sys.argv[1:]
a, b = (json.load(open(f"{out}/{side}.{seed}.json")) for side in ("parent", "change"))
va, vb = (r["metrics"]["norm_cpu_p50_ms"]["value"] for r in (a, b))
ma, mb = (r["metrics"]["modeled_ms"]["value"] for r in (a, b))
modeled = "equal" if ma == mb else f"{ma:.4f} -> {mb:.4f} ({(mb - ma) / ma:+.1%})"
print(f"seed {seed}: p50 parent {va:.4f}  change {vb:.4f}  ({(vb - va) / va:+.1%})"
      f"  modeled_ms {modeled}"
      f"  failed {a['failed']}/{b['failed']}")
PY
done

python3 - "$out" "$pairs" "$workload" <<'PY'
import json, statistics, sys
out, n, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3]
runs = {side: [json.load(open(f"{out}/{side}.{901 + i}.json")) for i in range(n)]
        for side in ("parent", "change")}
print(f"{workload} over {n} pairs:")
for metric, lower_wins in [("norm_cpu_p50_ms", True), ("norm_cpu_p90_ms", True),
                           ("norm_throughput_sel_s", False)]:
    a, b = ([r["metrics"][metric]["value"] for r in runs[side]] for side in ("parent", "change"))
    wins = sum((y < x) if lower_wins else (y > x) for x, y in zip(a, b))
    q1, _, q3 = statistics.quantiles(a, n=4) if n > 1 else (0, 0, 0)
    ma, mb = statistics.median(a), statistics.median(b)
    print(f"  {metric}: median parent {ma:.4f}  change {mb:.4f}  ({(mb - ma) / ma:+.1%});"
          f" change wins {wins}/{n}; parent IQR {q3 - q1:.4f}; |median gap| {abs(mb - ma):.4f}")
ma, mb = ([r["metrics"]["modeled_ms"]["value"] for r in runs[side]] for side in ("parent", "change"))
if ma == mb:
    print("  modeled_ms: equal on every pair")
else:
    pa, pb = statistics.median(ma), statistics.median(mb)
    print(f"  modeled_ms: DIFFERS; median parent {pa:.4f}  change {pb:.4f}  ({(pb - pa) / pa:+.1%})")
print(f"  failed calls: parent {sum(r['failed'] for r in runs['parent'])},"
      f" change {sum(r['failed'] for r in runs['change'])}")
PY
