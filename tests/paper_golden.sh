#!/bin/sh
# Runs gfp-paper and compares its stdout byte for byte with the golden
# file: all of it, or, given SECTION, only the section whose title line
# starts with SECTION (from its opening rule up to the next section's).
# Fails if gfp-paper exits nonzero (a trap, a plain/translated
# disagreement or a missed host reference) or if any byte differs.
#
# Usage: paper_golden.sh GFP_PAPER GOLDEN [SECTION]
set -eu

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

"$1" > "$dir/out"
if [ $# -lt 3 ]; then
    diff -u --label "$2" --label gfp-paper "$2" "$dir/out"
    exit
fi

# A section title sits between two rules of '='.
section() {
    awk -v title="$2" '
        { line[NR] = $0 }
        END {
            for (i = 1; i <= NR; i++) {
                if (line[i] ~ /^=+$/ && line[i + 2] ~ /^=+$/)
                    on = index(line[i + 1], title) == 1
                if (on) print line[i]
            }
        }' "$1"
}

section "$2" "$3" > "$dir/golden"
if [ ! -s "$dir/golden" ]; then
    echo "no section titled '$3' in $2" >&2
    exit 1
fi
section "$dir/out" "$3" > "$dir/section"
diff -u --label "$2: $3" --label "gfp-paper: $3" "$dir/golden" "$dir/section"
