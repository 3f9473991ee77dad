#!/usr/bin/env bash
# Line ledger: non-test Go lines per package directory, excluding the
# separate bench/ module. Counts every line of every *.go file that is not a
# _test.go file, so a change's net code growth or shrinkage per package can
# be read off two runs.
#
# Usage: scripts/loc.sh [REV]
#
#   With no argument, counts the working tree. With a git revision, counts
#   the files committed at that revision, e.g. `scripts/loc.sh HEAD~1`.
#   Prints "<lines> <package dir>" sorted by directory, then "<lines> total".
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 1 ]]; then
  echo "usage: scripts/loc.sh [REV]" >&2
  exit 2
fi
rev=${1:-}

if [[ -n $rev ]]; then
  git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "scripts/loc.sh: unknown revision $rev" >&2
    exit 2
  }
fi

list() {
  if [[ -n $rev ]]; then
    git ls-tree -r --name-only "$rev"
  else
    find . -path ./bench -prune -o -path './.*' -prune -o -type f -name '*.go' -print |
      sed 's|^\./||'
  fi | grep -E '\.go$' | grep -vE '_test\.go$' | grep -vE '^bench/' || true
}

lines() {
  if [[ -n $rev ]]; then
    git show "$rev:$1" | wc -l
  else
    wc -l <"$1"
  fi
}

per_pkg=$(list | while read -r f; do
  printf '%s %d\n' "$(dirname "$f")" "$(lines "$f")"
done | awk '{sum[$1] += $2} END {for (p in sum) printf "%7d %s\n", sum[p], p}' | sort -k2)

echo "$per_pkg"
echo "$per_pkg" | awk '{t += $1} END {printf "%7d total\n", t}'
