GO ?= go

.PHONY: check vet build test race bench microbench conform soak fuzz tidy load drift store cluster loc

## check: the full gate — vet, build everything, race-enabled tests,
## and the conformance harness over the committed golden corpus.
check: vet build race conform

vet:
	$(GO) vet ./...
	$(GO) vet -tags soak ./internal/serve/ ./internal/load/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## conform: run the theorem oracles over the committed golden corpus
## (exits non-zero on any violation), then the mutation smoke that
## proves the oracles still catch injected faults. See TESTING.md.
conform:
	$(GO) run ./cmd/bbconform
	$(GO) run ./cmd/bbconform -smoke
	$(GO) run ./cmd/bbconform -serve

## soak: long-run health check of the serving layer — 16 concurrent
## streams, hundreds of periods each through the HTTP API, then
## goroutine-leak and heap-growth assertions — plus the 1000-stream
## 30-second bbload acceptance run. Gated behind a build tag so plain
## `go test ./...` stays fast.
soak:
	$(GO) test -tags soak -run TestSoak -timeout 10m -v ./internal/serve/
	$(GO) test -tags soak -run TestLoadThousandStreams -timeout 10m -v ./internal/load/

## load: SLO-gated load smoke — bbload boots bbserved in-process,
## drives 64 mixed text/candump streams for 5 seconds, prints the
## p50/p95/p99/shed/availability report, and exits nonzero on an SLO
## violation (exit 1) or a goroutine leak after shutdown (exit 3).
load:
	$(GO) run ./cmd/bbload -streams 64 -duration 5s -slo

## drift: the model-drift gate — the drift unit/integration tests, the
## conformance drift oracles over the committed corpus (change-point
## detection on drift entries, zero false alarms on stationary ones),
## and the bbload drift-injection smoke: every stream flips its regime
## mid-run and the server must report the change point within the
## window, SLO-gated.
drift:
	$(GO) test ./internal/drift/
	$(GO) test ./internal/conformance/ -run Drift
	$(GO) test ./internal/serve/ -run Drift
	$(GO) test ./internal/load/ -run Drift
	$(GO) run ./cmd/bbconform -drift
	$(GO) run ./cmd/bbload -streams 8 -duration 5s -rate 96 -drift-flip 20 -slo

## store: the stream-state-store gate — the store unit/crash-injection
## tests (WAL framing, torn tails, compaction epochs, quarantine), the
## serve-level WAL restart-equivalence and lazy-hydration suites under
## the race detector, a short run of the WAL-decoder fuzz target, and
## the bbload cold-restart benchmark: 1000 checkpointed streams, 10
## driven after restart, hydration contracts gated (exit 1 on
## violation).
store:
	$(GO) test -race ./internal/store/
	$(GO) test -race -run 'Restart|Hydrat|Quarantin|Compact|Torn|Store' ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrames$$' -fuzztime 10s ./internal/store/
	$(GO) run ./cmd/bbload -restart -streams 1000 -active 10 -slo -json

## cluster: the cluster-mode gate — the ring placement tables, the
## handoff/import/fencing suites, the chaos tier (kill a node
## mid-checkpoint, kill mid-migration before/after the fence,
## partition the gateway from a node — each followed by the
## bit-identical equivalence oracle against a single-node reference),
## all under the race detector, plus the bbload cluster smoke: 3 nodes,
## 200 streams, forced checkpoint-handoff migrations mid-run, SLO- and
## equivalence-gated (exit 1 on violation).
cluster:
	$(GO) test -race -timeout 10m ./internal/cluster/
	$(GO) test -race -run 'Handoff|SnapshotDuringIngest|ExportImport' ./internal/serve/
	$(GO) test -race -run Cluster ./internal/load/
	$(GO) run ./cmd/bbload -cluster -streams 200 -slo

## fuzz: run every native fuzz target for FUZZTIME each (default 30s;
## nightly CI uses 10m). Minimized crashers land under the package's
## testdata/fuzz/<Target>/ — commit them as regression seeds.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzFromEventsPeriodic$$' -fuzztime $(FUZZTIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzParseLog$$' -fuzztime $(FUZZTIME) ./internal/can/
	$(GO) test -run '^$$' -fuzz '^FuzzParseDIMACS$$' -fuzztime $(FUZZTIME) ./internal/sat/
	$(GO) test -run '^$$' -fuzz '^FuzzPackedDepFunc$$' -fuzztime $(FUZZTIME) ./internal/depfunc/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTable$$' -fuzztime $(FUZZTIME) ./internal/depfunc/
	$(GO) test -run '^$$' -fuzz '^FuzzLearn$$' -fuzztime $(FUZZTIME) ./internal/conformance/
	$(GO) test -run '^$$' -fuzz '^FuzzCompleteness$$' -fuzztime $(FUZZTIME) ./internal/conformance/
	$(GO) test -run '^$$' -fuzz '^FuzzSkipDifferential$$' -fuzztime $(FUZZTIME) ./internal/engine/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrames$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzImportEnvelope$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzRoute$$' -fuzztime $(FUZZTIME) ./internal/cluster/

## bench: regenerate the Section 3.4 runtime table and record it as
## benchmark telemetry (BENCH_local.json at the repo root). Bound 50
## rides along beyond the paper's column list because it is the CI
## regression gate's comparison point (bench-regression in ci.yml).
## The exact algorithm on the 7-task lite configuration is recorded
## separately (BENCH_exact_lite.json, with bound 16 riding along): it
## is the only committed run whose time is dominated by the
## end-of-period prune rather than the bounded merge, and the second
## bench-regression step gates it. Gate a change against the committed
## baselines with:
##   go run ./cmd/bbbench -compare BENCH_local.json -threshold 10%
##   go run ./cmd/bbbench -config lite -exact -bounds 16 -repeat 5 -compare BENCH_exact_lite.json -threshold 10%
bench:
	$(GO) run ./cmd/bbbench -bounds 1,4,16,32,50,64,100,120,150 -json BENCH_local.json
	$(GO) run ./cmd/bbbench -config lite -exact -bounds 16 -repeat 5 -label exact_lite -json BENCH_exact_lite.json

## microbench: the go-test microbenchmarks, including the
## zero-allocation observer guard (compare nil vs nop allocs/op), the
## DepFunc Key-vs-Fingerprint dedup-cost comparison, and the answer
## path: BenchmarkResultExactLite (one Online.Result on the exact lite
## working set) and BenchmarkTable (one 18-task table rendering).
microbench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/learner/ ./internal/depfunc/

tidy:
	$(GO) mod tidy

## loc: non-test Go lines of each internal package — the size figure
## ROADMAP and CHANGES.md quote, counted as
## `cat $(ls internal/<p>/*.go | grep -v _test.go) | wc -l`.
loc:
	@for d in internal/*/; do \
		files=$$(ls $$d*.go | grep -v _test.go); \
		[ -n "$$files" ] || continue; \
		printf '%-12s %6d\n' $$(basename $$d) $$(cat $$files | wc -l); \
	done
