package dist

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
)

func chordStart(t *testing.T) (*mc.GState, mc.Config) {
	t.Helper()
	g, cfg, err := scenario.InitialState("chord", scenario.Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = mc.Exhaustive
	cfg.Seed = 42
	return g, cfg
}

// TestShardFaultSurfaces pins the fault path end to end: a real shard that
// hits an internal error reports a Fault, and the coordinator ends the
// round with it. Shard 1 is scripted to relay a corrupt forwarded state (no
// state, no path) to shard 0, whose ingest validation trips.
func TestShardFaultSurfaces(t *testing.T) {
	g, cfg := chordStart(t)
	hub0, side0 := Pipe()
	done := make(chan error, 1)
	go func() {
		done <- RunShard(side0, ShardConfig{Index: 0, Shards: 2, Search: cfg, Root: g})
	}()
	hub1, side1 := Pipe()
	go scripted(1, side1, on(kindRoundStart, Batch{From: 1, To: 0, States: []ForwardState{{Hash: 1, Depth: 1}}}, Idle{Shard: 1}))

	coord := NewCoordinator([]Conn{hub0, hub1}, CoordinatorConfig{})
	_, err := coord.RunRound(mc.Budget{Depth: 2, Workers: 1}, false)
	coord.Shutdown()
	if err == nil || !strings.Contains(err.Error(), "round 1: shard 0: fault: ") {
		t.Fatalf("round error %v, want shard 0's fault", err)
	}
	if !strings.Contains(err.Error(), "no path") && !strings.Contains(err.Error(), "outside owned range") {
		t.Errorf("unexpected fault text: %v", err)
	}
	if serr := <-done; serr == nil || errors.Is(serr, ErrClosed) {
		t.Errorf("faulting shard exited with %v, want its own error", serr)
	}
}

// vioSummary is what a violation report says, paths aside: the violated
// set, depth and state per violation.
func vioSummary(vs []mc.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("%v@%d#%x", v.Properties, v.Depth, v.StateHash)
	}
	return out
}

// TestLocalMatchesSerial is the package-local smoke version of the
// scenario differential oracle (which covers every registered scenario).
func TestLocalMatchesSerial(t *testing.T) {
	g, cfg := chordStart(t)
	cfg.Budget = mc.Budget{Depth: 4, Workers: 1}
	cfg.RecordClaimedStates = true
	serial := mc.NewSearch(cfg).Run(g)

	res, err := Local(LocalConfig{
		Shards:       2,
		Search:       cfg,
		Root:         g,
		RecordStates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Checker.ClaimedStates), len(serial.ClaimedStates); got != want {
		t.Fatalf("claimed %d states, serial claimed %d", got, want)
	}
	for i, h := range res.Checker.ClaimedStates {
		if serial.ClaimedStates[i] != h {
			t.Fatalf("claimed set diverges at %d", i)
		}
	}
	if res.Stats.StatesForwarded == 0 || res.Stats.BatchFlushes == 0 {
		t.Errorf("two shards exchanged no states: %+v", res.Stats)
	}
}
