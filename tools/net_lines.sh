#!/bin/sh
# Added, removed and net line counts for src/ + tools/ between a base
# revision and the working tree (tracked files; `git add` new ones
# first). CHANGES.md records this figure for every change.
#
#   tools/net_lines.sh            # against HEAD~1
#   tools/net_lines.sh <base>     # against any revision
set -eu

base=${1:-HEAD~1}
cd "$(git rev-parse --show-toplevel)"
git diff --numstat "$base" -- src tools | awk -v base="$base" '
  # Binary files report "-" for both counts.
  $1 != "-" { added += $1; removed += $2 }
  END {
    printf "src/ + tools/ vs %s: +%d -%d net %+d\n", base, added, removed,
           added - removed
  }'
