#!/bin/sh
# Bounds-check-elimination lint for the tuned kernel layer.
#
# Prints every bounds check the compiler could NOT eliminate from the
# tuned kernel files (linalg/tuned.go, f3d/kernels_tuned.go,
# euler/eigen_tuned.go) and the line gather/scatter they are fed by
# (f3d/lines.go), sorted. CI diffs this against the committed
# lint/bce_golden.txt: a new IsInBounds site in a hot loop is a silent
# performance regression — the kernel still passes every correctness
# test while the inner loop re-grows per-element checks.
#
# The golden list is not empty: the up-front [:n] pins are themselves
# IsSliceInBounds sites (once per call, by design), and a few
# down-counting back-substitution loops carry checks the current
# compiler cannot discharge. The lint pins the list, so changes in
# either direction are visible and deliberate. The line copies keep
# their per-point slice checks on purpose: a wrong base or stride must
# panic, not read a neighbouring line. euler/eigen_tuned.go must list
# nothing: its per-point bodies index fixed-size arrays by constants.
#
# To regenerate after editing a listed file:
#     ./lint/bce.sh > lint/bce_golden.txt
set -eu
cd "$(dirname "$0")/.."
# -a forces recompilation: a cached build would skip the compile and
# print nothing.
out=$(go build -a -gcflags='-d=ssa/check_bce' \
    ./internal/linalg ./internal/euler ./internal/f3d 2>&1 |
    grep -E 'tuned\.go|f3d/lines\.go' | LC_ALL=C sort)
printf '%s\n' "$out"
if printf '%s\n' "$out" | grep -q 'euler/eigen_tuned\.go'; then
    echo "bce.sh: bounds check inside euler/eigen_tuned.go's per-point bodies" >&2
    exit 1
fi
