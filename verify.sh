#!/bin/sh
# verify.sh — the repository's full verification gate. Everything here is
# hermetic (toolchain only, nothing beyond loopback): build, vet, the
# test suite under the race detector, a second stm/core pass with the
# runtime sanitizer compiled on (-tags stmsan), the cvlint static misuse
# analyzers over the whole module, two bounded exhaustive model-checking
# runs, a causal wake-trace gate (the chaos soak dumps its event ring and
# cvtrace -check revalidates every wake DAG offline), and a
# live-introspection smoke gate that scrapes the /debug/cv/* endpoints
# during a chaos soak.
#
# Tier-1 (the subset CI must keep green) is `go build ./... && go test
# ./...`; this script is the superset to run before merging.
#
# `./verify.sh -short` skips the time-heavy black-box/crash gates (the
# blackbox oracle soak, the injected-bug negative gate, the SIGKILL
# crash round and the regression-seed replay) for a quick pre-push run.
set -eu

SHORT=0
[ "${1:-}" = "-short" ] && SHORT=1

step() { printf '\n== %s\n' "$*"; }

step "build"
go build ./...

step "vet"
go vet ./...

step "tests (race detector)"
# -count=1 on every test step below: a cached pass is a replay, not a
# run, and each gate here must really execute.
go test -race -count=1 ./...

step "tests (multicore: GOMAXPROCS=4 race re-run of the wake/commit fabric)"
# The semaphore's spin phase branches on GOMAXPROCS, and the condvar's
# batched wake and the STM's commit, snapshot-extension and serial-gate
# races (the opacity checks in internal/stm) need several Ps running at
# once, so a single-core host silently skips these multicore schedules.
# Re-run the three packages with four Ps forced — the race detector sees
# the cross-P interleavings even when the host has one CPU.
GOMAXPROCS=4 go test -race -count=1 ./internal/sem ./internal/core ./internal/stm

step "tests (runtime sanitizer on: -tags stmsan)"
go test -tags stmsan -count=1 ./internal/stm ./internal/core

step "cvlint (static misuse analyzers)"
# Production code must be clean outright. Test files run against a
# committed baseline: the recorded findings are deliberate misuse
# constructions (tests that exercise the hazards themselves); anything
# NEW in a _test.go file still fails the gate. Regenerate after a
# reviewed change with:
#   go run ./cmd/cvlint -tests -write-baseline lint-tests.baseline ./...
go run ./cmd/cvlint ./...
go run ./cmd/cvlint -tests -baseline lint-tests.baseline ./...

step "tracer overhead guard (disabled path must not allocate)"
go test -count=1 -run 'TestTraceDisabledNoAlloc|TestTraceEnabledNoAlloc|TestEmitFlowNoAlloc|TestHistogramObserveNoAlloc|TestParkLabelGateNoAlloc' ./internal/obs
go test -count=1 -run 'NoAlloc' ./internal/obs/registry
go test -count=1 -run 'TestProfilingDisabledNoAllocCommit|TestAbortPathAllocParity' ./internal/stm
# The wake-flow stamps (wakeID mint and store, batch countdown, consumer
# attribution) ride the notify→post→wake hot path unconditionally; with
# the tracer disarmed the whole cycle must stay allocation-free, bounding
# the flow-tracing overhead on BenchmarkBroadcastWake to the atomic
# stores.
go test -count=1 -run 'TestWakeChainDisarmedNoAlloc' ./internal/core
# The pooled park path: a Wait that parks and is woken must recycle its
# waiter node and channel — 0 allocs/op once the pool is warm. Must run
# race-free: race shadow state adds a deterministic allocation per park
# (the test skips itself under -race, so this line is the real gate).
go test -count=1 -run 'TestWaitPooledNoAlloc' ./internal/sem
go test -run '^$' -bench BenchmarkTraceDisabled -benchmem ./internal/obs | tee /tmp/obs_bench.$$ >/dev/null
grep -q ' 0 allocs/op' /tmp/obs_bench.$$ || {
	echo "BenchmarkTraceDisabled allocates:"; cat /tmp/obs_bench.$$; rm -f /tmp/obs_bench.$$; exit 1;
}
rm -f /tmp/obs_bench.$$

step "broadcast wake smoke (one commit handler posting 64 waiters)"
# Fixed iteration count, not time-gated: the guard is that a wide
# NotifyAll batch completes and every waiter resumes (the benchmark
# b.Fatals on a short wake count), not a host-dependent latency bar.
go test -run '^$' -bench 'BenchmarkBroadcastWake/w64' -benchtime 5x .
go test -run '^$' -bench 'BenchmarkSemBatchPost' -benchtime 5x .

step "modelcheck (bounded exhaustive interleavings)"
go run ./cmd/modelcheck -waiters 2 -notifyone 1
go run ./cmd/modelcheck -waiters 2 -notifyall 1

step "chaos soak (deterministic fault injection, fixed seed)"
go test -race -count=1 ./internal/fault
# The soak doubles as the causal wake-trace gate: -trace dumps the run's
# event ring (and fails the run on any in-run wake-flow violation), then
# cvtrace -check revalidates the dump offline — every committed notify's
# flow must reconstruct with its root and one notifier-posted hop per
# consumed wake (window-truncated flows whose root predates the ring are
# skipped, not failed).
go run ./cmd/cvstress -mode chaos -seed 3405691582 -faultrate 0.25 -duration 2s \
	-trace /tmp/chaos_trace.$$
go run ./cmd/cvtrace -check /tmp/chaos_trace.$$
rm -f /tmp/chaos_trace.$$

if [ "$SHORT" -eq 0 ]; then
	# The blackbox gates need the real exit code (go run collapses every
	# failure to 1), so build the binary once and run it directly.
	CVSTRESS=/tmp/cvstress_bb.$$
	go build -o "$CVSTRESS" ./cmd/cvstress

	step "blackbox oracle gate (expected-state shadowing, fixed seed)"
	"$CVSTRESS" -mode blackbox -seed 3405691582 -faultrate 0.25 -duration 4s -goroutines 8

	step "blackbox negative gate (injected lost-wakeup bug must be caught)"
	# The harness's own detector is gated here: -buglostwake wakes each
	# broadcast round one waiter short, and the run MUST exit 2 with the
	# stranded waiter named. A passing run means the oracle went blind.
	set +e
	"$CVSTRESS" -mode blackbox -seed 3405691582 -faultrate 0 \
		-duration 200ms -goroutines 4 -buglostwake >/tmp/bb_neg.$$ 2>&1
	rc=$?
	set -e
	[ "$rc" -eq 2 ] || {
		echo "negative gate: expected exit 2 (invariant violation), got $rc:"
		cat /tmp/bb_neg.$$; rm -f /tmp/bb_neg.$$ "$CVSTRESS"; exit 1;
	}
	grep -q 'cond.lost-wakeup' /tmp/bb_neg.$$ || {
		echo "negative gate: lost wakeup not named:"; cat /tmp/bb_neg.$$
		rm -f /tmp/bb_neg.$$ "$CVSTRESS"; exit 1;
	}
	rm -f /tmp/bb_neg.$$

	step "crash round (SIGKILL under load; oracle recovery must be clean)"
	go run ./cmd/crashtest -rounds 1 -seed 3405691582 -bin "$CVSTRESS"

	step "regression seeds (replay recorded past-failure seeds)"
	go test -count=1 -run TestRegressionSeeds ./cmd/cvstress
	rm -f "$CVSTRESS"
else
	step "skipping blackbox/crash gates (-short)"
fi

step "introspection smoke (live /debug/cv/* endpoints during a chaos run)"
# Start a chaos soak with the introspection server on an ephemeral port,
# scrape it while the workload runs, and validate every endpoint's
# format with cvtop -check (Prometheus exposition + JSON shapes).
ISPORT=39217
go run ./cmd/cvstress -mode chaos -seed 3405691582 -faultrate 0.25 -duration 4s \
	-introspect "127.0.0.1:$ISPORT" >/tmp/cvstress_is.$$ 2>&1 &
ISPID=$!
ISADDR="127.0.0.1:$ISPORT"
# Wait for the listener, then give the workload a beat to register sources.
i=0
until curl -fsS "http://$ISADDR/debug/cv/vars" >/dev/null 2>&1; do
	i=$((i + 1))
	[ $i -lt 50 ] || { echo "introspection endpoint never came up"; cat /tmp/cvstress_is.$$; exit 1; }
	sleep 0.1
done
sleep 0.5
curl -fsS "http://$ISADDR/debug/cv/metrics" >/tmp/is_metrics.$$
grep -q '^stm_commits_total{' /tmp/is_metrics.$$ || {
	echo "live metrics missing stm_commits_total:"; cat /tmp/is_metrics.$$; exit 1;
}
grep -q '^cv_queue_depth{' /tmp/is_metrics.$$ || {
	echo "live metrics missing cv_queue_depth:"; cat /tmp/is_metrics.$$; exit 1;
}
grep -q '^cv_wake_consumed_total{' /tmp/is_metrics.$$ || {
	echo "live metrics missing cv_wake_consumed_total:"; cat /tmp/is_metrics.$$; exit 1;
}
curl -fsS "http://$ISADDR/debug/cv/waiters" | grep -q '"generated_at"' || {
	echo "waiters endpoint malformed"; exit 1;
}
# Attribution smoke: the chaos workload hammers a Var named chaos.hot
# (and auto-enables stm profiling), so the conflicts table must rank it.
curl -fsS "http://$ISADDR/debug/cv/conflicts" >/tmp/is_conflicts.$$
grep -q '"chaos.hot"' /tmp/is_conflicts.$$ || {
	echo "conflicts endpoint missing the known-hot Var chaos.hot:"; cat /tmp/is_conflicts.$$; exit 1;
}
grep -q '"profiling_on": true' /tmp/is_conflicts.$$ || {
	echo "conflicts endpoint reports profiling off during chaos:"; cat /tmp/is_conflicts.$$; exit 1;
}
rm -f /tmp/is_conflicts.$$
go run ./cmd/cvtop -addr "$ISADDR" -check
wait $ISPID || { echo "instrumented chaos soak failed:"; cat /tmp/cvstress_is.$$; exit 1; }
rm -f /tmp/is_metrics.$$ /tmp/cvstress_is.$$

step "benchmark trajectory (schema check over committed BENCH files)"
# Every committed BENCH_*.json at the repo root must load and validate
# against the current schema; benchdiff compares any two of them. (The
# sweep itself is not re-run here — results are host-dependent and
# archived deliberately; see results/README.md.)
go run ./cmd/benchdiff -check BENCH_*.json

step "ok"
