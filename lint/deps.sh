#!/bin/sh
# Layering guard: the tracer, the analyzer, the runtime and the solver
# binaries must not link net/http. internal/obs is imported by parloop
# and sched, so a handler placed there would pull the HTTP stack into
# cmd/f3d (3.1 MB → 5.5 MB); the HTTP surface lives in internal/obs/serve,
# which only the daemons and internal/cluster import. Exits 1 naming
# every listed package that reaches net/http.
#
# No package of the module imports unsafe, tests included: the solver's
# kernels read the fields in place through typed storage
# (grid.StateField.Vec), never through a reinterpreted []float64. Exits 1
# naming every package that does.
set -eu
cd "$(dirname "$0")/.."
status=0
for pkg in ./internal/obs ./internal/obs/analyze ./internal/parloop \
    ./internal/sched ./internal/f3d ./cmd/f3d ./cmd/tracetool; do
    if go list -deps "$pkg" | grep -qx 'net/http'; then
        echo "$pkg depends on net/http" >&2
        status=1
    fi
done
unsafe=$(go list -f '{{.ImportPath}}:{{range .Imports}} {{.}}{{end}}{{range .TestImports}} {{.}}{{end}}{{range .XTestImports}} {{.}}{{end}}' ./... |
    grep ' unsafe\( \|$\)' | cut -d: -f1 || true)
if [ -n "$unsafe" ]; then
    printf '%s imports unsafe\n' $unsafe >&2
    status=1
fi
exit $status
