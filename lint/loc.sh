#!/bin/sh
# Size of the root module: package count and non-test Go lines
# (benchmark/ is its own module and is not counted). ROADMAP aim 2 asks
# for the same behaviour from less code; this makes the trend a number,
# and lint/loc_ceiling.txt makes it a ratchet: CI runs `lint/loc.sh
# -check`, which fails when the line count exceeds the committed
# ceiling. A PR that shrinks the tree lowers the ceiling to its result;
# a PR that must grow it raises the ceiling in the same diff, where a
# reviewer sees it.
#
# Counts tracked files only (git ls-files): stage new files first.
set -eu
cd "$(dirname "$0")/.."
packages=$(go list ./... | wc -l)
lines=$(git ls-files '*.go' | grep -v '^benchmark/' | grep -v _test.go | xargs cat | wc -l)
echo "packages $packages"
echo "nontest_go_lines $lines"
if [ "${1:-}" = "-check" ]; then
    ceiling=$(cat lint/loc_ceiling.txt)
    if [ "$lines" -gt "$ceiling" ]; then
        echo "non-test Go lines $lines exceed the ceiling $ceiling (lint/loc_ceiling.txt)" >&2
        exit 1
    fi
fi
