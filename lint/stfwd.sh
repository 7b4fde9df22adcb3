#!/bin/sh
# Store-forwarding lint for the tuned kernel layer.
#
# Prints every 16-byte stack reload `MOVUPS off(SP), X` in the served
# per-point kernels whose bytes were last written 8 at a time by a
# `MOVSD X, off(SP)` or `off+8(SP)` earlier in the same function. That
# is what the compiler emits when a kernel *builds* a Vec5 / [3]float64
# / PointState and then returns or assigns it whole: element stores into
# a stack temporary, then a wide copy out of it. The wide load cannot be
# forwarded from the narrow stores still in the store buffer and waits
# for them to retire — ≈ a quarter of the served step before PR 21, with
# every test green (DESIGN.md §8, "results are written where they live").
#
# One line per function scanned ("… scanned": a renamed kernel drops
# out of the golden instead of passing unseen), then one per site with
# its count. CI diffs the output against lint/stfwd_golden.txt, and the
# script itself exits 1 on a site inside a kernel PR 21 cleared
# (must_be_clean below). Sites pin line numbers; to regenerate after
# editing a listed function:
#     ./lint/stfwd.sh > lint/stfwd_golden.txt
set -eu
cd "$(dirname "$0")/.."
pkg='repro/internal'
symbols="$pkg/euler\.\(\*AxisEigen\)\.(Forward|Back)\$|$pkg/euler\.(DecomposeInto|FluxDirPrimInto|soundSpeed|\(\*Prim\)\.fromCons)\$|$pkg/f3d\.(rhsLineFluxTuned|sweepLineModeTuned|rhsLineAccumTuned|rhsPointAccum|loadLine|loadPoints|storeLineInterior|addLineInterior)\$|$pkg/f3d\.\(\*ZoneState\)\.(fillPlane|applyBCPoint|applyBCPlanes|residualSumSq)\$"
must_be_clean='AxisEigen\)\.(Forward|Back) |euler\.(DecomposeInto|FluxDirPrimInto|soundSpeed|\(\*Prim\)\.fromCons) |rhsLineFluxTuned |sweepLineModeTuned |fillPlane |applyBCPoint |applyBCPlanes |addLineInterior |residualSumSq '
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/f3dd" ./cmd/f3dd
out=$(go tool objdump -s "$symbols" "$tmp/f3dd" | awk '
    $1 == "TEXT" { fn = $2; sub(/\(SB\)$/, "", fn); sub(/^repro\/internal\//, "", fn); split("", narrow); print fn, "scanned"; next }
    # 8-byte store to the stack: remember the slot; a 16-byte store covers two.
    $4 == "MOVSD_XMM" && $6 ~ /\(SP\)$/ { narrow[slot($6)] = 1; next }
    $4 == "MOVUPS" && $6 ~ /\(SP\)$/ { delete narrow[slot($6)]; delete narrow[slot($6) + 8]; next }
    $4 == "MOVUPS" && $5 ~ /\(SP\),$/ {
        s = slot($5)
        if ((s in narrow) || ((s + 8) in narrow)) print fn, $1
    }
    # slot: the byte offset of a "0x18(SP)" operand (mawk has no strtonum).
    function slot(op,    i, v, neg) {
        sub(/\(SP\).*$/, "", op)
        neg = sub(/^-/, "", op)
        sub(/^0x/, "", op)
        v = 0
        for (i = 1; i <= length(op); i++) v = v * 16 + index("0123456789abcdef", substr(op, i, 1)) - 1
        return neg ? -v : v
    }
' | LC_ALL=C sort | uniq -c | awk '$3 == "scanned" { print $2, $3; next } { print $2, $3, "x" $1 }')
printf '%s\n' "$out"
if printf '%s\n' "$out" | grep -v ' scanned$' | grep -qE "$must_be_clean"; then
    echo "stfwd.sh: a cleared kernel reloads a by-value aggregate from the stack (listed above)" >&2
    exit 1
fi
