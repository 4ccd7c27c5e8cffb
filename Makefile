# Tier-1 verification flow. `make verify` is what CI and pre-merge checks
# run: build, vet, the godoc lint over the server packages, the full test
# suite, the test suite again under the race detector (the server and primes
# packages are exercised by multi-goroutine tests, so -race is load-bearing,
# not ceremony), and a short fuzz pass over the journal record codec — the
# frame scanner is the single parser standing between a crashed process's
# half-written bytes and the recovery path.

GO ?= go

.PHONY: build vet lint test race fuzz verify e2e-replica e2e-cluster bench-update bench-query bench-perf clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint enforces the godoc contract on the server packages (every exported
# identifier must document its concurrency/durability behavior) and checks
# that docs/LABELING.md has a section for every registered labeling scheme.
lint:
	$(GO) run ./cmd/doccheck -schemes-doc docs/LABELING.md ./internal/server ./internal/server/api ./internal/server/client ./internal/server/persist ./internal/server/replica ./internal/server/trace ./internal/hist ./internal/buildinfo ./internal/labeling/compact ./internal/server/querystats ./internal/server/cluster

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz seeds the journal frame scanner with 10s of random torn/corrupt
# inputs on top of the checked-in corpus, then the streaming frame decoder
# (the replication wire format) with the same treatment.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzJournalFrames -fuzztime 10s ./internal/server/persist
	$(GO) test -run '^$$' -fuzz FuzzStreamFrames -fuzztime 10s ./internal/server/persist
	$(GO) test -run '^$$' -fuzz FuzzExtentJoinParity -fuzztime 10s ./internal/server

# e2e-replica runs the two-node replication suite under the race detector:
# snapshot bootstrap, live journal tailing to parity through an update
# storm, mid-journal resume, compaction-vs-slow-follower re-sync, follower
# crash recovery, forced-disconnect reconnect, and promotion.
e2e-replica:
	$(GO) test -race -count=1 -timeout 300s -run 'TestReplication|TestPromote' ./internal/server
	$(GO) test -race -count=1 -timeout 120s ./internal/server/replica ./internal/server/client

# e2e-cluster runs the three-node cluster matrix under the race detector:
# kill the primary under a client write storm, timeout-driven successor
# self-promotion, divergence-point rejoin of the deposed primary through the
# journal digest probe, stale-epoch stream rejection, and pinned-placement
# write redirects — plus the cluster manager's unit suite (ring placement,
# failover election, fencing takeover detection) and the topology-discovery
# client tests. The matrix dumps follower-side /debug/querystats and
# replication-lag snapshots into cluster-e2e/ (CI uploads them as an
# artifact).
e2e-cluster:
	CLUSTER_E2E_ARTIFACTS=$(CURDIR)/cluster-e2e $(GO) test -race -count=1 -timeout 300s -run 'TestCluster' ./internal/server
	$(GO) test -race -count=1 -timeout 120s ./internal/server/cluster
	$(GO) test -race -count=1 -timeout 120s -run 'TestDiscovered' ./internal/server/client

verify: build vet lint test race fuzz e2e-replica e2e-cluster

# bench-update measures the batched-update pipeline: batch-vs-single insert
# throughput under fsync and incremental-vs-full reindex scaling, written as
# machine-readable JSON to BENCH_update.json. Informational, not a gate —
# CI runs it non-blocking because shared runners make timings noisy.
bench-update:
	BENCH_UPDATE_JSON=$(CURDIR)/BENCH_update.json $(GO) test ./internal/server -run '^TestUpdateBenchReport$$' -v -timeout 900s

# bench-query measures the query path: the fast ancestor test plus parallel
# axis evaluation against the exact sequential baseline, per axis and across
# document sizes, written as machine-readable JSON to BENCH_query.json. Same
# non-gating policy as bench-update.
bench-query:
	BENCH_QUERY_JSON=$(CURDIR)/BENCH_query.json QUERYSTATS_JSON=$(CURDIR)/BENCH_querystats.json $(GO) test ./internal/server -run '^TestQueryBenchReport$$' -v -timeout 900s

# bench-perf runs perfbench, the end-to-end benchmark of the real labeld
# binary over loopback HTTP, once per workload at seed 1 for 30 s, and
# writes each run's result line (correct, attempted, failed, metrics) into
# BENCH_perf.json keyed by workload. Informational, like bench-update: CI
# runs it non-blocking. A claimed gain needs paired runs against the parent
# commit; see perfbench/README.md.
bench-perf:
	@mkdir -p .bench_build; printf '{' > .bench_build/perf.json; sep=''; \
	for w in cold_queries hot_reads ordered_writes; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 30 --trace 0 > .bench_build/$$w.out || exit 1; \
		printf '%s\n  "%s": %s' "$$sep" $$w "$$(tail -n 1 .bench_build/$$w.out)" >> .bench_build/perf.json; sep=','; \
	done; printf '\n}\n' >> .bench_build/perf.json; mv .bench_build/perf.json BENCH_perf.json

# clean removes build products and stray test data directories.
clean:
	$(GO) clean ./...
	rm -rf cmd/labeld/testdata/data internal/server/persist/testdata/fuzz.tmp cluster-e2e
