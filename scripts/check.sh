#!/usr/bin/env sh
# Repository gate: vet, build everything, then run the full test suite under
# the race detector. The kernel layer (internal/par) spawns goroutines inside
# numeric code, so -race is part of the definition of "passing" here, not an
# optional extra.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

# Every internal package documents its paper counterpart, public surface
# and concurrency/ownership contract in a doc.go (DESIGN.md cross-links
# into these). New packages must ship one.
echo "== package docs (internal/*/doc.go)"
for d in internal/*/; do
    if [ ! -f "$d/doc.go" ] || ! grep -q "^// Package $(basename "$d")" "$d/doc.go"; then
        echo "missing or malformed package doc: ${d}doc.go" >&2
        exit 1
    fi
done

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

# The fault-tolerance layer retries attempts concurrently with nested
# submission and deadline timers, the trace golden test asserts the
# exported shape is schedule-independent, the eddl training loop runs on
# pooled scratch shared across workers, and the exec backend multiplexes
# worker connections from many dispatch goroutines; run these packages
# twice under the race detector to shake out ordering-dependent bugs a
# single pass can miss.
echo "== go test -race -count=2 ./internal/compss/... ./internal/cluster/... ./internal/trace/... ./internal/eddl/... ./internal/exec/..."
go test -race -count=2 ./internal/compss/... ./internal/cluster/... ./internal/trace/... ./internal/eddl/... ./internal/exec/...

# The work-stealing dispatcher's migration paths (deque overflow, injector
# drain, cross-worker steals, stolen-task deadline abandonment) only open
# up under unbalanced load; run the stealing stress tests twice at both
# GOMAXPROCS extremes so single-threaded interleavings and truly parallel ones
# are both exercised under the race detector. TestSubmitWiringRace rides
# along: producers completing inside a consumer's dependency wiring must
# never make it ready early (nil arguments) or twice.
echo "== go test -race -count=2 -cpu=1,8 -run 'TestStealStress|TestStolenDeadline|TestSubmitWiringRace' ./internal/compss/"
go test -race -count=2 -cpu=1,8 -run 'TestStealStress|TestStolenDeadline|TestSubmitWiringRace' ./internal/compss/

# The data-plane cache is shared mutable state under the dispatch
# concurrency (clone-on-hit vs concurrent puts, residency folding vs
# failWorker, KillWorker vs Close): run the cache and crash-path tests by
# name so a test reorganization can never silently drop them from the
# race gate.
echo "== go test -race -count=2 -run 'TestFutureCache|TestRemoteLocality|TestRemoteMissResend|TestRemoteNestedRefs|TestRemoteAnonymous|TestKillWorker' ./internal/exec/"
go test -race -count=2 -run 'TestFutureCache|TestRemoteLocality|TestRemoteMissResend|TestRemoteNestedRefs|TestRemoteAnonymous|TestKillWorker' ./internal/exec/

# Fleet membership is the newest shared-mutable surface: joins race
# dispatch, drains race in-flight completions, the autoscaler races both,
# and re-admission must stay bit-identical through a kill. Pin the
# membership tests by name — same rationale as the cache pins above — plus
# the elastic-capacity handoff into the compss slot pool.
echo "== go test -race -count=2 -run 'TestFleet|TestHysteresisPolicy|TestOpenRejects' ./internal/exec/"
go test -race -count=2 -run 'TestFleet|TestHysteresisPolicy|TestOpenRejects' ./internal/exec/
echo "== go test -race -count=2 -run 'TestRemoteKillThenRejoinParity' ./internal/core/"
go test -race -count=2 -run 'TestRemoteKillThenRejoinParity' ./internal/core/

# The peer data plane adds a second wire surface (worker-to-worker pulls)
# whose failure modes — holder killed mid-fetch, stale session tokens,
# poisoned addresses, concurrent duplicate fetches collapsing to one
# transfer — must all fall back to the coordinator Miss path without
# corrupting results. Pin them by name, plus the mid-run-kill parity test
# that proves bit-identity survives a holder dying under the p2p plane.
echo "== go test -race -count=2 -run 'TestPeer' ./internal/exec/"
go test -race -count=2 -run 'TestPeer' ./internal/exec/
echo "== go test -race -count=2 -run 'TestRemotePeerKillParity' ./internal/core/"
go test -race -count=2 -run 'TestRemotePeerKillParity' ./internal/core/
echo "== go test -race -count=2 -run 'TestElasticCapacity|TestDroppedRuntimeCancelsWatch' ./internal/compss/"
go test -race -count=2 -run 'TestElasticCapacity|TestDroppedRuntimeCancelsWatch' ./internal/compss/

# The eigensolver behind PCA's pca_eigh task: residual, orthogonality,
# ordering and sign contract on stressed spectra and the training-shape
# covariance, and determinism across kernel parallelism limits.
echo "== go test -count=1 -run 'TestEigSym' ./internal/mat/"
go test -count=1 -run 'TestEigSym' ./internal/mat/

# The serving plane multiplexes concurrent stream pushes, per-batch scoring
# goroutines, the background deadline flusher and hook callbacks over one
# lock; pin the serving tests by name — batcher flush on both paths (size
# and deadline), admission rejection at capacity, backpressure shedding
# accounting, score-error skip semantics, the trace rows, and the
# alarms-bit-identical parity against batch edge.Run both in-process and
# across real worker processes.
echo "== go test -race -count=2 -run 'TestServe' ./internal/serve/ ./internal/core/ ./internal/trace/"
go test -race -count=2 -run 'TestServe' ./internal/serve/ ./internal/core/ ./internal/trace/

# Submit-path smoke: a quick -benchmem pass over the Submit benchmarks so a
# regression that re-inflates the per-task allocation count is visible in
# every gate run (the numbers land in the log; BENCH_PR6.json via
# scripts/bench.sh is the recorded baseline). The -mutexprofile run keeps
# the submit fast path honest: it must stay off contended runtime-global
# locks, and a profile that suddenly grows is the early warning.
echo "== go test -run=NONE -bench=Submit -benchtime=100x -benchmem ."
go test -run=NONE -bench=Submit -benchtime=100x -benchmem .
echo "== go test -run=NONE -bench=Submit -benchtime=100x -mutexprofile ."
mutexdir=$(mktemp -d)
go test -run=NONE -bench=Submit -benchtime=100x -mutexprofile "$mutexdir/mutex.prof" -o "$mutexdir/bench.test" .
rm -rf "$mutexdir"

echo "ok"
