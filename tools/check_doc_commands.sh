#!/usr/bin/env bash
# Fenced-command example checker.
#
# The ops-facing docs (docs/SERVICE.md, docs/PROFILING.md, README.md,
# docs/PERFORMANCE.md, docs/TESTING.md) show copy-pasteable command
# lines for the repo's own tools inside ``` fences.  Those examples rot
# silently: a renamed binary or dropped flag keeps reading fine while
# failing for anyone who pastes it.  This check greps every fenced
# command line that invokes a gfp tool and fails unless
#
#   1. the binary has a source file under tools/ (gfp-serve ->
#      tools/gfp_serve.cpp), and
#   2. every --flag on the line occurs verbatim in that source file
#      (the tools declare each flag as a string literal in their arg
#      parsers and usage text, so a plain grep is authoritative).
#
# Pure bash + grep — no network, no extra dependencies.
#
# Usage: tools/check_doc_commands.sh [repo-root]
set -u

root="${1:-$(git rev-parse --show-toplevel 2>/dev/null || echo .)}"
cd "$root" || exit 2

docs=()
for d in docs/SERVICE.md docs/PROFILING.md docs/PERFORMANCE.md \
    docs/TESTING.md README.md; do
    [ -f "$d" ] && docs+=("$d")
done

errors=0
checked=0

# Map a documented binary name to its source file.
tool_source() {
    case "$1" in
        gfp-serve) echo "tools/gfp_serve.cpp" ;;
        gfp-loadgen) echo "tools/gfp_loadgen.cpp" ;;
        gfp-prof) echo "tools/gfp_prof.cpp" ;;
        gfp-lint) echo "tools/gfp_lint.cpp" ;;
        gfp-paper) echo "tools/gfp_paper.cpp" ;;
        *) echo "" ;;
    esac
}

for doc in "${docs[@]}"; do
    # Collect lines inside ``` fences that invoke a gfp-* tool
    # (directly, via a build path, or after a shell prompt/continuation).
    while IFS= read -r line; do
        # Normalise: strip leading prompt markers and path prefixes.
        cmd=$(printf '%s' "$line" \
            | sed -e 's/^[[:space:]]*\$[[:space:]]*//' \
                  -e 's|[^[:space:]]*build/tools/||g')
        # Only lines that *invoke* a tool count: the gfp-* token must be
        # the command word, not e.g. a --target operand of cmake.
        tool=$(printf '%s' "$cmd" | awk '{print $1}' | sed 's|^\./||')
        case "$tool" in
            *:) continue ;;   # "gfp-loadgen: ..." is log output, not a command
            gfp-*) ;;
            *) continue ;;
        esac
        checked=$((checked + 1))
        src=$(tool_source "$tool")
        if [ -z "$src" ] || [ ! -f "$src" ]; then
            echo "$doc: fenced example names unknown tool '$tool':"
            echo "    $line"
            errors=$((errors + 1))
            continue
        fi
        # Every long flag in the example must exist in the tool source.
        for flag in $(printf '%s' "$cmd" | grep -oE '[-][-][a-z][a-z-]+'); do
            if ! grep -qF -- "\"$flag\"" "$src"; then
                echo "$doc: '$tool' example uses flag '$flag' not" \
                    "declared in $src:"
                echo "    $line"
                errors=$((errors + 1))
            fi
        done
    done < <(awk '/^```/{fence=!fence; next} fence' "$doc" \
        | grep -E 'gfp-[a-z]+')
done

echo "check_doc_commands: ${#docs[@]} docs, $checked command examples," \
    "$errors stale"
[ "$errors" -eq 0 ]
