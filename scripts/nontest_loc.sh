#!/usr/bin/env bash
# Counts non-test lines of the core library crates: for every `.rs` file under
# each crate's `src/`, the lines before the file's first `#[cfg(test)]` (the
# whole file when it has none). Prints one total per crate, then the sum.
#
# Usage: scripts/nontest_loc.sh [repo-root]   (default: the script's parent)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
sum=0
for crate in er-core humo er-pipeline; do
  lines=$(find "$root/crates/$crate/src" -name '*.rs' -print0 | sort -z |
    xargs -0 awk 'FNR == 1 { counting = 1 }
                  /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
                  counting { n++ }
                  END { print n + 0 }')
  printf '%-12s %6d\n' "$crate" "$lines"
  sum=$((sum + lines))
done
printf '%-12s %6d\n' total "$sum"
