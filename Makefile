# Tier-1 verification flow. `make verify` is the pre-merge check, and CI
# runs the same targets as separate steps: build, vet (perfbench's module
# too), the godoc lint over the server packages, the full test suite, the
# test suite again under the race detector (the server and primes packages
# are exercised by multi-goroutine tests, so -race is load-bearing, not
# ceremony), short fuzz passes — the journal frame scanner is the single
# parser standing between a crashed process's half-written bytes and the
# recovery path — and the replication and cluster end-to-end suites.

GO ?= go

.PHONY: build vet lint test race fuzz verify e2e-replica e2e-cluster bench-update bench-query bench-perf clean

build:
	$(GO) build ./...

# vet also vets perfbench, which is its own Go module (so ./... skips it) and
# builds against the program's packages: a program change that breaks the
# end-to-end benchmark's build fails here.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# lint checks that gofmt has nothing to change in the repository's Go
# sources (.bench_build/ holds perfbench's module cache, not ours), enforces
# the godoc contract on the server packages, the element table and
# SC-order packages beneath them and the labeling stack (every exported
# identifier must be documented, and the server's must state their
# concurrency/durability behavior), and checks that docs/LABELING.md has a
# section for every registered labeling scheme.
lint:
	@unformatted=$$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/doccheck -schemes-doc docs/LABELING.md ./internal/server ./internal/server/api ./internal/server/client ./internal/server/persist ./internal/server/replica ./internal/server/trace ./internal/hist ./internal/buildinfo ./internal/labeling/compact ./internal/server/querystats ./internal/server/cluster ./internal/rdb ./internal/order ./internal/labeling ./internal/labeling/codec ./internal/labeling/wire ./internal/labeling/prime ./internal/labeling/prefix ./internal/xpath ./internal/xmltree ./internal/primes ./internal/numtheory

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz seeds the journal frame scanner with 10s of random torn/corrupt
# inputs on top of the checked-in corpus, then the streaming frame decoder
# (the replication wire format) with the same treatment, the labeling codec
# (every stream it accepts must label its tree consistently, and stay so
# through an insert and a wrap), the extent
# join planner against the label oracle, the element-table executor the
# library and labeld share against the tree-walking XPath reference, and the
# SC table against fresh CRT solves after every random insert, delete,
# compaction and restore.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzJournalFrames -fuzztime 10s ./internal/server/persist
	$(GO) test -run '^$$' -fuzz FuzzStreamFrames -fuzztime 10s ./internal/server/persist
	$(GO) test -run '^$$' -fuzz FuzzCodecUnmarshal -fuzztime 10s ./internal/labeling/codec
	$(GO) test -run '^$$' -fuzz FuzzExtentJoinParity -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzEvalTreeParity -fuzztime 10s ./internal/xpath
	$(GO) test -run '^$$' -fuzz FuzzSCTable -fuzztime 10s ./internal/order

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

# bench-query measures the query path: the extent planner against the
# label-predicate nested loop per axis, the count and streaming terminals,
# and the ancestor prefilter's reject ratio on a deep fixture, written as
# machine-readable JSON to BENCH_query.json. Same non-gating policy as
# bench-update.
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
