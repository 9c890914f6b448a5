GO ?= go

.PHONY: build test race lint bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static analysis: formatting, stock vet, then the crystalvet suite
# (determinism, hot-path allocation and fingerprint-maintenance passes —
# see internal/analysis). The vettool build is cached by the ordinary go
# build cache, so repeat runs are fast. The checker's state and property
# view are ordered by construction (sorted slices, no maps), so a
# //crystal:allow there is never the answer and fails the lint outright;
# so does a pending-timer set held as a map anywhere in the tree — there is
# one representation, sm.TimerSet. And there is one place an event becomes a
# handler call or a crashed node gets its disk back — sm.Deliver / sm.Restart
# (internal/sm/exec.go): a handler invoked from anywhere else is a second
# executor in the making. Likewise an event is one value, sm.Event: its key
# (internal/sm/key.go — its text, bug class, sleep and wire key) plus its
# payload, built by its kind's constructor (internal/sm/events.go). The
# per-kind event types, sm.KeyOf and mc's cand do not come back, and outside
# sm only the checker's enabledness test (internal/mc/step.go) switches over
# the event kinds. And a round's budget
# is an mc.Budget value: nothing plans it, so no policy type comes back —
# and it sits in the mc.Config the controller holds (Config.Check): a checker
# setting declared again as a controller field is a second copy to keep equal.
# The one benchmark is `go run ./bench`: a testing.B benchmark under cmd,
# internal or examples is a second measuring surface whose numbers nothing records.
# A checkpoint manager has one transfer path, and the requester says what it holds.
# A successor is built in scratch and published once: no state is cloned to be edited.
# A search is mc.Engine's, and a prediction steers only through a vetted event filter.
# A setting needs a caller: the checker is one command (mcheck, whose -listen /
# -connect roles replaced cmd/shardd), and a config field nothing sets goes.
# The coordinator waits in one place: nextArrival is called from one function
# (Coordinator.wait), so relay, report and abort share one death rule.
# The CI lint job runs exactly this target.
lint:
	@fmtout=$$(gofmt -l cmd internal examples bench); \
	if [ -n "$$fmtout" ]; then echo "gofmt needed:"; echo "$$fmtout"; exit 1; fi
	@if grep -rn 'crystal:allow' internal/mc internal/props; then \
	echo "//crystal:allow is not accepted under internal/mc or internal/props: make the order structural"; exit 1; fi
	@if grep -rn --include='*.go' -e 'map\[sm\.TimerID\]bool' -e 'map\[TimerID\]bool' .; then \
	echo "a timer set is an sm.TimerSet, never a map"; exit 1; fi
	@if grep -rn --include='*.go' -e '\.HandleMessage(' -e '\.HandleTimer(' -e '\.HandleApp(' -e '\.HandleTransportError(' -e 'RestoreStable(' cmd internal examples \
	| grep -v -e '_test\.go' -e '^internal/sm/' -e '^internal/services/'; then \
	echo "handlers run through sm.Deliver and sm.Restart only"; exit 1; fi
	@if grep -rnw --include='*.go' -e 'MsgEvent' -e 'TimerEvent' -e 'AppEvent' -e 'ResetEvent' -e 'ErrorEvent' -e 'DropEvent' -e 'KeyOf' -e 'cand' cmd internal examples; then \
	echo "an event is one sm.Event value, its key plus its payload: no per-kind event type, no sm.KeyOf, no mc.cand"; exit 1; fi
	@if grep -rnE --include='*.go' "case '[MTAERD]'" cmd internal examples \
	| grep -v -e '^internal/sm/' -e '^internal/mc/step\.go'; then \
	echo "an event's kind is switched on only in internal/sm and internal/mc/step.go"; exit 1; fi
	@if grep -rn --include='*.go' -e 'PolicySpec' -e 'mc\.Policy\b' -e 'RoundReport' cmd internal examples; then \
	echo "a round's budget is an mc.Budget value: no policy layer"; exit 1; fi
	@if grep -rnE --include='*.go' '^[[:space:]]+(ExploreResets|ExploreConnBreaks|MaxResetsPerPath|GlobalProps|Reduce)[[:space:]]+[][*.[:alnum:]]+[[:space:]]*(//.*)?$$' internal/controller; then \
	echo "a round's configuration is an mc.Config value (controller.Config.Check): no mirror fields"; exit 1; fi
	@if grep -rn --include='*.go' -e 'func Benchmark' cmd internal examples; then \
	echo "the one benchmark is go run ./bench: no testing.B benchmarks"; exit 1; fi
	@if grep -rn --include='*.go' -e 'snapshot\.Config' -e 'BandwidthLimitBps' -e 'computeDiff' -e 'lastSent' cmd internal examples; then \
	echo "a checkpoint manager has one transfer path, and the requester says what it holds"; exit 1; fi
	@if grep -rn --include='*.go' -e 'shallowClone' cmd internal; then \
	echo "a successor is built in scratch and published once"; exit 1; fi
	@if grep -rn --include='*.go' -e 'RandomWalk' -e 'randomWalks' -e 'SteeringAware' -e 'HandlePredictedInconsistency' -e 'NotifyPrediction' cmd internal examples; then \
	echo "a search is mc.Engine's, and a prediction steers only through a vetted event filter"; exit 1; fi
	@if [ -d cmd/shardd ] && echo cmd/shardd || grep -rn --include='*.go' -e 'admitTransition' -e 'stopTransitions' cmd internal examples \
	|| grep -rnE --include='*.go' '^[[:space:]]+(Heartbeat|BatchSize)[[:space:]]+[][*.[:alnum:]]+[[:space:]]*(//.*)?$$' cmd internal examples; then \
	echo "a setting needs a caller: one checker command, and no config field nothing sets"; exit 1; fi
	@callers=$$(awk '/^func /{fn=$$0} /nextArrival\(/ && !/^func /{print FILENAME ": " fn}' internal/dist/*.go | sort -u); \
	if [ "$$(printf '%s\n' "$$callers" | grep -c .)" -ne 1 ]; then echo "$$callers"; \
	echo "the coordinator waits in one place: nextArrival( is called from exactly one function in internal/dist"; exit 1; fi
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
