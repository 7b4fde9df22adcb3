#!/bin/sh
# Settings of the root module's binaries: for every cmd/* main, the
# number of flags its -h lists (a subcommand tool counts each
# subcommand's -h as "tool/sub"). A setting with one value in use
# should be a constant, not a flag; lint/flags_ceiling.txt makes that a
# ratchet like lint/loc.sh: CI runs `lint/flags.sh -check`, which fails
# when a binary lists more flags than its committed ceiling, or is
# missing from the file. A change that retires a flag lowers the
# ceiling; a change that must add one raises it in the same diff, in
# plain sight.
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin
go build -o "$bin/" ./cmd/...

# count prints the number of flags PrintDefaults lists in "$@ -h".
count() {
    { "$@" -h 2>&1 || true; } | grep -c '^  -' || true
}

for b in "$bin"/*; do
    name=$(basename "$b")
    # A subcommand tool rejects -h with its subcommand list:
    # 'unknown subcommand "-h" (want a, b or c)'.
    subs=$({ "$b" -h 2>&1 || true; } | sed -n 's/.*unknown subcommand.*(want \(.*\))/\1/p' | sed 's/,/ /g; s/ or / /g')
    if [ -z "$subs" ]; then
        echo "$name $(count "$b")"
        continue
    fi
    for sub in $subs; do
        echo "$name/$sub $(count "$b" "$sub")"
    done
done >"$tmp/counts"
cat "$tmp/counts"

if [ "${1:-}" = "-check" ]; then
    status=0
    while read -r name n; do
        ceiling=$(awk -v k="$name" '$1 == k { print $2 }' lint/flags_ceiling.txt)
        if [ -z "$ceiling" ]; then
            echo "$name lists $n flags and has no ceiling in lint/flags_ceiling.txt" >&2
            status=1
        elif [ "$n" -gt "$ceiling" ]; then
            echo "$name lists $n flags, above its ceiling $ceiling (lint/flags_ceiling.txt)" >&2
            status=1
        fi
    done <"$tmp/counts"
    exit $status
fi
