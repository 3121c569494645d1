GO ?= go

# Seconds of coverage-guided fuzzing per target in fuzz-smoke.
FUZZTIME ?= 20s

.PHONY: all build vet staticcheck lint test race bench-smoke errcheck figcheck crashcheck failovercheck ingestcheck fuzz-smoke e2e loadgen-smoke check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet.  CI installs staticcheck; locally the target
# skips with a notice when the binary is absent rather than failing the
# whole gate on a missing tool.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo 'staticcheck: not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)'; \
	fi

test:
	$(GO) test ./...

# Race-detector pass over every package: concurrent query sessions, the
# parallel experiment harness, and the device simulator they drive.
race:
	$(GO) test -race ./...

# One iteration of every benchmark, as a compile-and-run smoke test.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Modeled-output gate: the figure generator's modeled numbers are
# deterministic, so a pinned-scale sweep must reproduce the committed golden
# byte for byte.  A change that moves any modeled figure regenerates the
# golden with the same command in the same change and says why.
figcheck:
	$(GO) run ./cmd/benchfig -fig all -scale 0.1 > figcheck.out
	diff -u cmd/benchfig/testdata/figures_scale0.1.txt figcheck.out
	rm -f figcheck.out

# ntalint: the repo's own analyzer suite (internal/lint) — persistcheck
# (dropped persistence errors), determcheck (wall-clock / unseeded rand /
# order-sensitive map iteration in modeled-result packages), publishcheck
# (body-before-header persistence ordering), guardcheck (`guarded by <mu>`
# annotations).  See DESIGN.md "Enforced invariants".
#
# The binary also speaks the go vet vettool protocol, which runs the same
# checks under vet's per-package caching:
#
#	$(GO) build -o /tmp/ntalint ./cmd/ntalint
#	$(GO) vet -vettool=/tmp/ntalint ./...
lint:
	$(GO) run ./cmd/ntalint ./...

# errcheck used to be a line-regex grep for bare persistence-method calls; a
# multi-line call, an `_ =` assignment, or a call through an interface all
# slipped past it.  The name stays for muscle memory, but it now runs the
# type-aware analyzer that replaced the grep.
errcheck:
	$(GO) run ./cmd/ntalint -c persistcheck ./...

# Exhaustive crash-point exploration on the recorded small corpus: every
# flush/drain event of WordCount under both persistence strategies, the
# none/all extremes plus 3 seeded torn-write subsets per point.  The sampled
# version of the same exploration runs inside `make test` via
# internal/crashcheck.  Corpus and seeds are pinned here so runs reproduce.
crashcheck:
	$(GO) run ./cmd/crashcheck -task wordcount -persistence both \
		-points 0 -seeds 3 -seed 42 -files 2 -tokens 120 -vocab 40 -corpus-seed 7

# Sampled replication/failover matrix on a 3-way replicated engine: per
# sampled (shard, event) point the primary dies under sync and lag-bounded
# async shipping (failover must mask it bit-identically), the follower is
# torn and its frozen image recovered under seeded crash subsets, and a final
# async run checks the lag-bound recovery contract.  The sampled version runs
# inside `make test` via internal/crashcheck; seeds are pinned to reproduce.
failovercheck:
	$(GO) run ./cmd/crashcheck -failover -shards 3 -task wordcount \
		-persistence both -points 6 -seeds 3 -seed 42 -files 6 -tokens 120 \
		-vocab 40 -corpus-seed 7

# Exhaustive online-ingestion crash exploration: every flush/drain event of
# the live append stream (with a mid-stream compaction) under both
# persistence strategies.  Recovery must land on a batch boundary, keep
# every acknowledged append, serve the exact prefix result, and stay
# appendable.  The sampled version runs inside `make test` via
# internal/crashcheck; corpus and seeds are pinned here so runs reproduce.
ingestcheck:
	$(GO) run ./cmd/crashcheck -ingest -task wordcount -persistence both \
		-points 0 -seeds 3 -seed 42 -files 4 -tokens 120 -vocab 40 -corpus-seed 7

# A short coverage-guided run of every fuzz target (archive parsing, the
# compress/decompress round trip, op-log crash recovery).  Each target gets
# FUZZTIME of fuzzing on top of its seed corpus; new crashers land in
# testdata/fuzz/ for `make test` to replay forever after.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadArchive$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzCompressRoundTrip$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzOpLogRecovery$$' -fuzztime $(FUZZTIME) ./internal/core

# End-to-end daemon gate: builds the real ntadocd binary, serves the
# testdata corpus over HTTP, asserts every op bit-identical to direct
# library execution, and SIGTERMs it with a request in flight to check the
# graceful drain.  (These tests also run inside `make test`; the named
# target reruns them uncached so the gate always exercises the binary.)
e2e:
	$(GO) test -count=1 -run 'TestDaemon' ./cmd/ntadocd

# Short serving-layer load run (small N, short duration): stands the server
# up over a scaled-down corpus and drives it over loopback HTTP, exercising
# the session pool, coalescer, and result cache end to end.  The committed
# baseline in BENCH_loadgen.json is recorded with the full defaults
# (`go run ./cmd/benchfig -fig loadgen`).
loadgen-smoke:
	$(GO) run ./cmd/benchfig -fig loadgen -scale 0.05 -loadworkers 8 \
		-loadrequests 64 -loadout ""

check: build vet staticcheck lint test race bench-smoke figcheck crashcheck failovercheck ingestcheck fuzz-smoke e2e loadgen-smoke
