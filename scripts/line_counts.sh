#!/usr/bin/env bash
# Print the line count of the tracked files under src/, tests/, bench/ and
# scripts/: `git ls-files <dir> | xargs cat | wc -l`, the definition the
# net-line figures in CHANGES.md and ROADMAP.md use.  Counts the committed
# file list with the working-tree contents, so stage new files first.
set -euo pipefail
cd "$(dirname "$0")/.."
for dir in src tests bench scripts; do
  printf '%-8s %6d\n' "$dir" "$(git ls-files "$dir" | xargs cat | wc -l)"
done
