#!/bin/sh
# Layering guard: the tracer, the analyzer, the runtime and the solver
# binaries must not link net/http. internal/obs is imported by parloop
# and sched, so a handler placed there would pull the HTTP stack into
# cmd/f3d (3.1 MB → 5.5 MB); the HTTP surface lives in internal/obs/serve,
# which only the daemons and internal/cluster import. Exits 1 naming
# every listed package that reaches net/http.
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
exit $status
