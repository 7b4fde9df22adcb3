#!/bin/sh
# Code layout of the benchmark's two binaries: the address, and the
# address mod 64, of the host meter's compute kernel
# (main.(*hostMeter).sample, f3dbench only), of the served f3d kernels
# (sweepLineModeTuned, rhsPassJK, loadLine, fillPlane), of parloop's
# two polling loops (poll, the helpers' wait for a region, and
# (*barrier).wait; in both) and of the Go runtime's scheduler loop and
# allocator (runtime.schedule, runtime.mallocgc; f3dd only).
#
# Where the linker places a hot loop relative to a 64-byte boundary
# moves its speed: on a 2-core x86-64 host the host meter reads ≈ 5.8 ms
# at address mod 64 = 0 and ≈ 8.5 ms at 32, and the served kernels move
# serve_* the same way, and so do the polling loops that start a region's
# helpers. Any size change in a package linked below them (model, obs,
# sched, euler, and f3d's own first functions) can shift them, and so
# can a runtime function the linker stops linking, which moves the
# runtime after it,
# so compare the two sides of a parent/change benchmark pair here before
# trusting its ratios.
#
#     lint/layout.sh DIR          one side: binary, symbol, address, mod 64
#     lint/layout.sh DIR DIR2     both sides next to each other; exit 1
#                                 when any mod-64 value differs
#
# Exit 2 when a binary or a symbol is missing (a renamed kernel fails
# here instead of silently dropping out of the comparison). Build each
# DIR the way benchmark/run.sh does:
#
#     go build -o DIR/ ./cmd/f3dd && go build -C benchmark -o DIR/f3dbench .
set -eu
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: lint/layout.sh DIR [DIR2]" >&2
    exit 2
fi
kernels='repro/internal/parloop.poll repro/internal/parloop.(*barrier).wait repro/internal/f3d.sweepLineModeTuned repro/internal/f3d.rhsPassJK repro/internal/f3d.loadLine repro/internal/f3d.(*ZoneState).fillPlane'

# layout DIR prints "binary symbol address mod64" for every watched
# symbol, with "- -" for a missing one.
layout() {
    for bin in f3dd f3dbench; do
        want="$kernels runtime.schedule runtime.mallocgc"
        if [ "$bin" = f3dbench ]; then
            want="main.(*hostMeter).sample $kernels"
        fi
        if [ -f "$1/$bin" ]; then
            go tool nm "$1/$bin"
        fi | awk -v bin="$bin" -v want="$want" '
            $2 == "T" { addr[$3] = $1 }
            END {
                n = split(want, w, " ")
                for (i = 1; i <= n; i++) {
                    if (!(w[i] in addr)) { print bin, w[i], "-", "-"; continue }
                    # mod 64 from the last two hex digits (mawk has no strtonum).
                    lo = tolower(substr(addr[w[i]], length(addr[w[i]]) - 1))
                    v = (index("0123456789abcdef", substr(lo, 1, 1)) - 1) * 16 + index("0123456789abcdef", substr(lo, 2, 1)) - 1
                    print bin, w[i], "0x" addr[w[i]], v % 64
                }
            }'
    done
}

a=$(layout "$1")
if [ $# -eq 1 ]; then
    printf '%s\n' "$a" | awk '{ printf "%-9s %-44s %10s %3s\n", $1, $2, $3, $4 }'
    if printf '%s\n' "$a" | grep -q ' - -$'; then
        echo "layout.sh: missing binary or symbol (listed with -)" >&2
        exit 2
    fi
    exit 0
fi
b=$(layout "$2")
echo "left: $1"
echo "right: $2"
# The two listings hold the same rows in the same order: join them
# line by line, then exit 2 on a missing symbol, 1 on a moved one.
{ printf '%s\n' "$a"; echo; printf '%s\n' "$b"; } | awk '
    NF == 0 { right = 1; next }
    !right { row[++n] = $0; next }
    {
        split(row[++m], l, " ")
        diff = l[4] != $4 ? "  differs" : ""
        printf "%-9s %-44s %10s %3s   %10s %3s%s\n", l[1], l[2], l[3], l[4], $3, $4, diff
        if (l[4] == "-" || $4 == "-") missing = 1
        if (diff != "") moved = 1
    }
    END {
        if (missing) { print "layout.sh: missing binary or symbol (listed with -)" > "/dev/stderr"; exit 2 }
        if (moved) { print "layout.sh: alignment mod 64 differs between the two sides" > "/dev/stderr"; exit 1 }
    }'
