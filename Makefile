# Price $heriff reproduction — common targets.

GO ?= go

.PHONY: build lint test race chaos bench bench-hot bench-crypto experiments experiments-full loc fmt vet clean

build:
	$(GO) build ./...

# Request-path packages must propagate contexts instead of sleeping, and
# must wait on events instead of polling for them on a ticker; heartbeats,
# reapers and scalers carry a `lint:allow` marker for the latter. Mark a
# deliberate new exception with a `lint:allow` comment on the same line.
LINT_REQUEST_PATH = internal/transport internal/store internal/coordinator internal/measurement internal/peer internal/core

# Instrumented packages must log through the trace-correlated obs.Logger,
# not the stdlib's bare log.Printf/Println (which lose trace IDs and the
# /logs ring). log.Fatal* stays allowed in commands. Mark a deliberate
# exception with a `lint:allow` comment on the same line.
LINT_LOGGED = $(LINT_REQUEST_PATH) internal/adminui internal/history cmd

# The connection layer and the wire codecs of the packages a price check's
# frames belong to are hand-written: no reflective JSON frames a connection
# or rides inside a registered frame. The JSON legs that remain by design
# (a frame or a relayed payload whose type has no registered codec) carry a
# `lint:allow` marker on their import line.
LINT_WIRE = internal/transport/transport.go internal/transport/wire.go internal/measurement/wire.go internal/peer/wire.go internal/shop/wire.go

lint:
	@bad=$$(grep -rn --include='*.go' -E 'time\.Sleep\(' $(LINT_REQUEST_PATH) \
		| grep -v '_test.go' \
		| grep -v 'lint:allow' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint: sleep in request-path code (thread a context instead; see DESIGN.md):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn --include='*.go' -E 'time\.NewTicker\(|time\.Tick\(' $(LINT_REQUEST_PATH) \
		| grep -v '_test.go' \
		| grep -v 'lint:allow' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint: ticker in request-path code (wait on the event — a done channel, a context — instead of polling for it; see DESIGN.md):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -n '"encoding/json"' $(LINT_WIRE) | grep -v 'lint:allow' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint: encoding/json in a wire codec (hand-write the codec — see DESIGN.md, Codec discipline — or mark a deliberate JSON leg lint:allow):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rn --include='*.go' -E 'log\.(Printf|Println)\(' $(LINT_LOGGED) \
		| grep -v '_test.go' \
		| grep -v 'lint:allow' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint: bare log.Printf/Println in instrumented code (use the obs.Logger; see DESIGN.md):"; \
		echo "$$bad"; exit 1; \
	fi

test: lint
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt needed:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race $$($(GO) list ./... | grep -v /internal/experiments)
	$(GO) test -race -short ./internal/experiments
	cd bench && $(GO) vet . && $(GO) test .
	$(MAKE) chaos

# The kill/partition chaos suite: boots a three-replica coordinator
# control plane as real processes and SIGKILLs/partitions it under a
# fixed seed, asserting zero lost checks, bounded failover, and no
# split-brain (see cmd/sheriffd/ha_e2e_test.go).
chaos:
	$(GO) test -race -count=1 -run TestHAChaos ./cmd/sheriffd

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Micro-benchmarks of the three per-copy stages of a check (parse a page
# copy, diff it against the initiator's page, store its row) and of the
# durable write (log a stored batch). Supporting evidence only: they say
# where a change acts, not what it buys — that is the whole-check
# benchmark's call (bench/, BENCHMARK.json).
bench-hot:
	$(GO) test -run '^$$' -bench 'ParseMallPage|Diff|InsertBatch' -benchmem -count 5 ./internal/htmlx ./internal/measurement ./internal/store ./internal/history

# Measure the crypto substrate (fixed-base / multi-exp fast paths vs the
# scalar ablation) and refresh the machine-readable record.
bench-crypto:
	$(GO) run ./cmd/benchtab -crypto -crypto-json BENCH_crypto.json

# Regenerate every table and figure of the paper (quick scale).
experiments:
	$(GO) run ./cmd/benchtab

# Paper-scale sweeps (minutes; Fig 8c runs real crypto at k up to 200).
experiments-full:
	$(GO) run ./cmd/benchtab -full

# Non-test Go outside the benchmark: the number a deletion pass moves.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
