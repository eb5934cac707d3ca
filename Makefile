GO ?= go
GOFMT ?= gofmt

.PHONY: all fmt build vet test race race-sim bench check trace-smoke profile-smoke bench-json bench-check fuzz-smoke adversary-smoke fleet-smoke border-matrix-smoke replay-smoke results-smoke sweep-smoke serve-smoke obs-smoke perfbench-vet

all: check

# Formatting gate: fails, listing the files, when gofmt would rewrite any
# Go file in the tree.
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l: not formatted:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The benchmark module (perfbench/) is a nested module, so build, vet and
# test above never compile it, yet it builds against the simulator's
# packages. Vet and test it here, offline, as perfbench/run.sh builds it.
PERFBENCH_ENV = GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
perfbench-vet:
	cd perfbench && $(PERFBENCH_ENV) $(GO) vet ./... && $(PERFBENCH_ENV) $(GO) test .

# Full test suite, including the full-figure determinism sweeps.
test:
	$(GO) test ./...

# Race-enabled run; -short skips the multi-minute full sweeps but still
# exercises the concurrent runner (smoke sweeps run at Jobs=8).
race:
	$(GO) test -race -short ./...

# Race-enabled, non-short runs of the two packages whose goroutines share
# work: the sharded conservative-parallel engine and the experiment runner.
race-sim:
	$(GO) test -race ./internal/sim ./internal/exp

# Fleet smoke: the same fleet executed serially and on 4 worker goroutines
# must render byte-identically — the conservative-PDES determinism
# guarantee, checked end to end through bctool.
fleet-smoke:
	$(GO) run ./cmd/bctool fleet -tenants 8 -shards 1 > fleet-smoke-1.txt
	$(GO) run ./cmd/bctool fleet -tenants 8 -shards 4 > fleet-smoke-4.txt
	cmp fleet-smoke-1.txt fleet-smoke-4.txt
	rm -f fleet-smoke-1.txt fleet-smoke-4.txt

# One iteration of every benchmark prints each paper artifact once;
# BenchmarkExecFigure4 compares serial vs parallel sweep wall-clock.
bench:
	$(GO) test -bench . -benchtime 1x ./...

# Observability smoke: record a Chrome trace and a stats snapshot on a
# short run, then validate the trace file and the stats document (including
# every latency histogram's schema) with bctool's own checkers.
trace-smoke:
	$(GO) run ./cmd/bctool run -mode bc-bcc -class moderate -workload pathfinder \
		-trace trace-smoke.json -stats-json stats-smoke.json >/dev/null
	$(GO) run ./cmd/bctool tracecheck trace-smoke.json
	$(GO) run ./cmd/bctool tracecheck -stats stats-smoke.json
	rm -f trace-smoke.json stats-smoke.json

# Profiler smoke: the simulated-time profile keys on simulated time only,
# so the folded stacks must be byte-identical across parallelism, and the
# pprof encoding must be accepted by `go tool pprof`.
profile-smoke:
	$(GO) run ./cmd/bctool profile -quiet -jobs 1 -folded profile-smoke-1.txt
	$(GO) run ./cmd/bctool profile -quiet -jobs 4 -folded profile-smoke-4.txt -pprof profile-smoke.pb.gz
	cmp profile-smoke-1.txt profile-smoke-4.txt
	$(GO) tool pprof -top profile-smoke.pb.gz >/dev/null
	rm -f profile-smoke-1.txt profile-smoke-4.txt profile-smoke.pb.gz

# Refresh the checked-in simulator-throughput snapshot (BENCH.json).
bench-json:
	$(GO) run ./cmd/bctool bench -json > BENCH.json

# Re-run the bench matrix and compare against the checked-in snapshot:
# sim_ps/events must match exactly (the model is deterministic and
# host-independent); the events/sec delta is informational only.
bench-check:
	$(GO) run ./cmd/bctool bench -compare BENCH.json

# Red-team smoke: fixed-seed sandbox-escape campaigns against all four
# Border Control protocol variants, with the shadow-memory oracle auditing
# every crossing. Runs twice and byte-compares the reports: the campaigns
# must both hold and be deterministic. A failure prints a single
# reproducing `bctool adversary -seed ...` command.
adversary-smoke:
	$(GO) run ./cmd/bctool adversary -seed 1 -campaigns 4 -quiet > adversary-smoke.txt
	$(GO) run ./cmd/bctool adversary -seed 1 -campaigns 4 -quiet > adversary-smoke2.txt
	cmp adversary-smoke.txt adversary-smoke2.txt
	rm -f adversary-smoke.txt adversary-smoke2.txt

# Border-design matrix smoke: one Figure-4 cell per registered protection
# architecture. The flat design's output must be byte-identical to the
# golden captured before the ProtectionArchitecture refactor (the paper's
# design is timing-frozen); the alternate designs must run to a verified
# result under the same cell. Also enforces that no deprecated API
# lingers in the tree (the Figure*Ctx wrappers were removed).
border-matrix-smoke:
	$(GO) run ./cmd/bctool run -mode bc-bcc -class moderate -workload pathfinder \
		-border flat 2>/dev/null > border-smoke-flat.txt
	cmp border-smoke-flat.txt internal/harness/testdata/border-flat-cell.golden
	$(GO) run ./cmd/bctool run -mode bc-bcc -class moderate -workload pathfinder \
		-border sparta >/dev/null
	$(GO) run ./cmd/bctool run -mode bc-bcc -class moderate -workload pathfinder \
		-border range >/dev/null
	rm -f border-smoke-flat.txt
	! grep -rn "Deprecated:" --include='*.go' .

# Results smoke: every paper artifact `bctool all` prints must be
# byte-identical to the checked-in RESULTS.txt — the end-to-end pin on the
# figures, whichever way their cells are executed.
results-smoke:
	$(GO) run ./cmd/bctool all -quiet > results-smoke.txt
	cmp results-smoke.txt RESULTS.txt
	rm -f results-smoke.txt

# Short coverage-guided runs of the fuzz targets: the border-protocol
# differential fuzzer, the event-engine ordering fuzzer, the trace codec
# fuzzer, and the experiment service's submission validator. Anything they
# minimize lands in the package testdata/fuzz corpora — commit it.
fuzz-smoke:
	$(GO) test -run '^FuzzBorderCheck$$' -fuzz '^FuzzBorderCheck$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^FuzzEngineSchedule$$' -fuzz '^FuzzEngineSchedule$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^FuzzTraceCodec$$' -fuzz '^FuzzTraceCodec$$' -fuzztime 10s ./internal/tracerec
	$(GO) test -run '^FuzzRequestValidate$$' -fuzz '^FuzzRequestValidate$$' -fuzztime 10s ./internal/serve

# Replay smoke: record a reference trace, replay it, and byte-compare the
# replayed report against the live run — the record/replay equivalence
# guarantee checked end to end through bctool. A replay past its -timeout
# and a truncated copy of the recording must each make replay exit non-zero.
replay-smoke:
	$(GO) run ./cmd/bctool record -workload pathfinder -o replay-smoke-traces >/dev/null
	$(GO) run ./cmd/bctool run -mode bc-bcc -class moderate -workload pathfinder \
		2>/dev/null > replay-smoke-live.txt
	$(GO) run ./cmd/bctool replay -mode bc-bcc -class moderate \
		replay-smoke-traces/pathfinder.bctrace 2>/dev/null > replay-smoke-rep.txt
	cmp replay-smoke-live.txt replay-smoke-rep.txt
	! $(GO) run ./cmd/bctool replay -timeout 1ns replay-smoke-traces/pathfinder.bctrace 2>/dev/null
	head -c 4096 replay-smoke-traces/pathfinder.bctrace > replay-smoke-traces/damaged.bctrace
	! $(GO) run ./cmd/bctool replay replay-smoke-traces/damaged.bctrace 2>/dev/null
	rm -rf replay-smoke-traces replay-smoke-live.txt replay-smoke-rep.txt

# Sweep smoke: a 16-cell synthetic-traffic replay grid must render
# byte-identically on the direct engine at one job and on the sharded
# engine at four jobs — sweeps are deterministic in both host and engine
# parallelism.
sweep-smoke:
	$(GO) run ./cmd/bctool sweep -traffic bursty -seeds 2 -modes bc-nobcc,bc-bcc \
		-borders flat,range -classes both -jobs 1 -shards 1 -quiet > sweep-smoke-1.txt
	$(GO) run ./cmd/bctool sweep -traffic bursty -seeds 2 -modes bc-nobcc,bc-bcc \
		-borders flat,range -classes both -jobs 4 -shards 4 -quiet > sweep-smoke-4.txt
	cmp sweep-smoke-1.txt sweep-smoke-4.txt
	rm -f sweep-smoke-1.txt sweep-smoke-4.txt

# Serve smoke: the experiment service must produce the same bytes as the
# local CLI. One daemon per worker count (1, 2, 4 subprocesses) serves the
# same sweep grid; each artifact is byte-compared against the in-process
# `bctool sweep` CSV. A second submission to the last daemon must be a
# cache hit (no re-execution, logged on stderr) with identical bytes.
SERVE_SMOKE_AXES = -traffic bursty,stream -seeds 1 -modes bc-nobcc,bc-bcc -borders flat -classes moderate -csv
serve-smoke:
	$(GO) build -o serve-smoke-bctool ./cmd/bctool
	./serve-smoke-bctool sweep $(SERVE_SMOKE_AXES) -quiet > serve-smoke-local.csv
	for w in 1 2 4; do \
		./serve-smoke-bctool serve -addr 127.0.0.1:18346 -workers $$w -quiet & pid=$$!; \
		./serve-smoke-bctool submit -addr http://127.0.0.1:18346 -wait 10s -quiet \
			sweep $(SERVE_SMOKE_AXES) > serve-smoke-$$w.csv || { kill $$pid; exit 1; }; \
		cmp serve-smoke-local.csv serve-smoke-$$w.csv || { kill $$pid; exit 1; }; \
		kill $$pid; wait $$pid; test $$? -eq 130 || exit 1; \
	done
	./serve-smoke-bctool serve -addr 127.0.0.1:18346 -workers 2 -quiet & pid=$$!; \
	./serve-smoke-bctool submit -addr http://127.0.0.1:18346 -wait 10s -quiet \
		sweep $(SERVE_SMOKE_AXES) > serve-smoke-a.csv 2>/dev/null || { kill $$pid; exit 1; }; \
	./serve-smoke-bctool submit -addr http://127.0.0.1:18346 -quiet \
		sweep $(SERVE_SMOKE_AXES) > serve-smoke-b.csv 2>serve-smoke-b.err || { kill $$pid; exit 1; }; \
	grep -q "cache hit" serve-smoke-b.err || { kill $$pid; exit 1; }; \
	cmp serve-smoke-a.csv serve-smoke-b.csv || { kill $$pid; exit 1; }; \
	kill $$pid; wait $$pid; test $$? -eq 130
	rm -f serve-smoke-bctool serve-smoke-local.csv serve-smoke-1.csv serve-smoke-2.csv serve-smoke-4.csv serve-smoke-a.csv serve-smoke-b.csv serve-smoke-b.err

# Telemetry smoke: the fleet observability plane end to end. A daemon
# answers `submit -ping`, serves a sweep, and its /v1/metrics page must
# parse and carry every required daemon + job series (`top -require`).
# The same grid submitted twice must `sweepdiff` clean (observation is
# pure and the simulator deterministic); perturbing one row must make
# sweepdiff exit non-zero — the regression-triage path actually triages.
OBS_SMOKE_AXES = -traffic bursty -seeds 1 -modes bc-nobcc,bc-bcc -borders flat -classes moderate -csv
obs-smoke:
	$(GO) build -o obs-smoke-bctool ./cmd/bctool
	./obs-smoke-bctool serve -addr 127.0.0.1:18347 -workers 2 -log-level off & pid=$$!; \
	./obs-smoke-bctool submit -addr http://127.0.0.1:18347 -wait 10s -ping >/dev/null || { kill $$pid; exit 1; }; \
	./obs-smoke-bctool submit -addr http://127.0.0.1:18347 -quiet \
		sweep $(OBS_SMOKE_AXES) > obs-smoke-a.csv 2>/dev/null || { kill $$pid; exit 1; }; \
	./obs-smoke-bctool top -addr http://127.0.0.1:18347 \
		-require bc_daemon_info,bc_daemon_uptime_seconds,bc_daemon_queue_depth,bc_daemon_queue_capacity,bc_daemon_jobs,bc_daemon_cache_hit_ratio,bc_daemon_workers_spawned_total,bc_daemon_watch_events_total,bc_job_sweep_cells \
		>/dev/null || { kill $$pid; exit 1; }; \
	./obs-smoke-bctool submit -addr http://127.0.0.1:18347 -quiet \
		sweep $(OBS_SMOKE_AXES) > obs-smoke-b.csv 2>/dev/null || { kill $$pid; exit 1; }; \
	kill $$pid; wait $$pid; test $$? -eq 130
	./obs-smoke-bctool sweepdiff obs-smoke-a.csv obs-smoke-b.csv
	sed 's/^\([^,]*bc-bcc[^,]*\),\([0-9]*\)/\1,9\2/' obs-smoke-a.csv > obs-smoke-c.csv
	! ./obs-smoke-bctool sweepdiff obs-smoke-a.csv obs-smoke-c.csv
	rm -f obs-smoke-bctool obs-smoke-a.csv obs-smoke-b.csv obs-smoke-c.csv

check: fmt vet build perfbench-vet test race race-sim fleet-smoke trace-smoke profile-smoke adversary-smoke border-matrix-smoke replay-smoke results-smoke sweep-smoke serve-smoke obs-smoke fuzz-smoke bench-check
