GO ?= go

.PHONY: build test race lint bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static analysis: formatting, stock vet, then the crystalvet suite
# (determinism, hot-path allocation and fingerprint-maintenance passes —
# see internal/analysis). The vettool build is cached by the ordinary go
# build cache, so repeat runs are fast.
lint:
	@fmtout=$$(gofmt -l cmd internal examples bench); \
	if [ -n "$$fmtout" ]; then echo "gofmt needed:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/crystalvet ./...

race:
	$(GO) test -race ./internal/mc ./internal/controller ./internal/scenario/...

# Every benchmark workload at test size, seconds: exercises the harness and
# its differential checks, measures nothing. The real thing is
# `go run ./bench` (see bench/README.md and BENCHMARK.json).
bench-smoke:
	$(GO) run ./bench -smoke
