#!/bin/sh
# Bounds-check-elimination lint for the tuned kernel layer.
#
# Prints every bounds check the compiler could NOT eliminate from the
# tuned kernel files (linalg/tuned.go, f3d/kernels_tuned.go,
# parloop/reduce_tuned.go) and the line gather/scatter they are fed by
# (f3d/lines.go), sorted. CI diffs this against the
# committed lint/bce_golden.txt: a new IsInBounds site in a hot loop
# is a silent performance regression — the kernel still passes every
# correctness test while the inner loop re-grows per-element checks.
#
# The golden list is not empty: the up-front [:n] pins are themselves
# IsSliceInBounds sites (once per call, by design), and a few
# down-counting back-substitution loops carry checks the current
# compiler cannot discharge. The lint pins the list, so changes in
# either direction are visible and deliberate. The line copies keep
# their per-point slice checks on purpose: a wrong base or stride must
# panic, not read a neighbouring line.
#
# To regenerate after editing a listed file:
#     ./lint/bce.sh > lint/bce_golden.txt
set -eu
cd "$(dirname "$0")/.."
# -a forces recompilation: a cached build would skip the compile and
# print nothing.
go build -a -gcflags='-d=ssa/check_bce' \
    ./internal/linalg ./internal/parloop ./internal/f3d 2>&1 |
    grep -E 'tuned\.go|f3d/lines\.go' | LC_ALL=C sort
