#!/usr/bin/env bash
# Public-surface gate for the library crates.
#
# A public item is a line in crates/*/src matching
#     ^\s*pub (fn|struct|enum|trait|type|const)\b
# (`pub(crate)` and private items do not count). The script prints the
# line and public-item counts, then lists every public item whose name
# appears, as a whole word, in no .rs file other than the one declaring
# it. The search covers crates, src, examples, tests, perfbench/src and
# perfbench/tests, with every `pub use` statement left out: re-exporting
# an item (say, from a crate's lib.rs) does not use it.
#
# Each listed item must be in scripts/pub_allowlist.txt with a reason:
#     <file>::<name>  <one-line reason>
# Blank lines and lines starting with '#' are ignored. The script fails
# when a listed item is missing from the allowlist, when an allowlist
# line has no reason, and when an allowlist line names an item that is
# no longer listed (so the allowlist cannot go stale).
#
# Usage: scripts/pub_surface.sh   (from anywhere inside the repo)
set -euo pipefail

cd "$(dirname "$0")/.."
allowlist=scripts/pub_allowlist.txt
pattern='^\s*pub (fn|struct|enum|trait|type|const)\b'
search_dirs=(crates src examples tests perfbench/src perfbench/tests)

lines=$(find crates/*/src -name '*.rs' -exec cat {} + | wc -l)
items=$(grep -rE "$pattern" crates/*/src | wc -l)
echo "lines in crates/*/src: $lines"
echo "public items:          $items"

# Every file the search reads, once, copied into a scratch tree without
# its re-export statements (`pub use ...;` and `pub(...) use ...;`, which
# may span lines).
mapfile -t corpus < <(find "${search_dirs[@]}" -name '*.rs' -not -path '*/target/*' | sort)
mirror=$(mktemp -d)
trap 'rm -rf "$mirror"' EXIT
copies=("${corpus[@]/#/$mirror/}")
printf '%s\n' "${copies[@]%/*}" | sort -u | xargs mkdir -p
touch "${copies[@]}" # a file of nothing but re-exports still exists
awk -v mirror="$mirror" '
    FNR == 1 { if (out) close(out); out = mirror "/" FILENAME; skip = 0 }
    skip || /^[[:space:]]*pub(\([^)]*\))?[[:space:]]+use[[:space:]]/ { skip = !/;/; next }
    { print > out }
' "${corpus[@]}"
corpus=("${copies[@]}")

unreferenced=()
while IFS= read -r hit; do
    file=${hit%%:*}
    decl=${hit#*:}
    name=$(sed -E 's/^\s*pub\s+((const|unsafe|async)\s+)*(fn|struct|enum|trait|type|const)\s+([A-Za-z_][A-Za-z0-9_]*).*/\4/' <<<"$decl")
    # No `-q` on the second grep: it must read all of the first one's
    # output, or the first could die of SIGPIPE and, under pipefail, fake
    # a miss.
    if ! grep -lw -- "$name" "${corpus[@]}" | grep -vxF -- "$mirror/$file" >/dev/null; then
        unreferenced+=("$file::$name")
    fi
done < <(grep -rHE "$pattern" crates/*/src | sort)

declare -A allowed=()
status=0
if [[ -f $allowlist ]]; then
    while IFS= read -r entry; do
        [[ -z ${entry//[[:space:]]/} || $entry == \#* ]] && continue
        key=${entry%%[[:space:]]*}
        reason=${entry#"$key"}
        if [[ -z ${reason//[[:space:]]/} ]]; then
            echo "error: $allowlist entry '$key' gives no reason" >&2
            status=1
        fi
        allowed[$key]=1
    done <"$allowlist"
fi

echo "public items named in no other file: ${#unreferenced[@]}"
declare -A listed=()
for item in "${unreferenced[@]}"; do
    listed[$item]=1
    if [[ -z ${allowed[$item]:-} ]]; then
        echo "error: $item is public but named in no other file;" \
            "narrow it, delete it, or add it to $allowlist with a reason" >&2
        status=1
    fi
done
for key in "${!allowed[@]}"; do
    if [[ -z ${listed[$key]:-} ]]; then
        echo "error: $allowlist lists $key, which is gone or now named elsewhere;" \
            "drop the line" >&2
        status=1
    fi
done

if ((status == 0)); then
    echo "public surface: OK"
fi
exit "$status"
