GO ?= go

.PHONY: build test race lint bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static analysis: formatting, stock vet, then crystalvet — the determinism,
# hot-path allocation and fingerprint-maintenance passes plus the table of
# design rules (internal/analysis). `go run ./cmd/crystalvet -list` prints
# every pass and every rule with its reason. The CI lint job runs exactly
# this target.
lint:
	@fmtout=$$(gofmt -l cmd internal examples bench); \
	if [ -n "$$fmtout" ]; then echo "gofmt needed:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/crystalvet ./...

# The CI race job runs exactly this target (the scenario matrices run under
# -race in their own CI jobs). dist is here because a forwarded state changes
# hands between shard goroutines, and with it a reference into the sender's
# search tree that the receiver may walk while the sender keeps appending
# (mc's TestPathOracleAcrossEngines is that walk on purpose).
race:
	$(GO) test -race ./internal/mc ./internal/controller ./internal/dist

# Every benchmark workload at test size, seconds: exercises the harness and
# its differential checks, measures nothing. The real thing is
# `go run ./bench` (see bench/README.md and BENCHMARK.json).
bench-smoke:
	$(GO) run ./bench -smoke
