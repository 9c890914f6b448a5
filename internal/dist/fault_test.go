package dist

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
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

// dropShardSession wires a real shard 0 and a "shard" 1 that accepts the
// round start and then drops its connection — the simplest mid-round death.
func dropShardSession(t *testing.T, g *mc.GState, cfg mc.Config) ([]Conn, chan error) {
	t.Helper()
	hub0, side0 := Pipe()
	hub1, side1 := Pipe()
	done := make(chan error, 1)
	go func() {
		done <- RunShard(side0, ShardConfig{Index: 0, Shards: 2, Search: cfg, Root: g})
	}()
	go func() {
		if _, err := side1.Recv(); err != nil { // RoundStart
			return
		}
		side1.Close()
	}()
	return []Conn{hub0, hub1}, done
}

// TestShardDropMidRound pins the recovery tentpole: a shard whose
// connection dies mid-round is declared dead, the round is aborted on the
// survivor, repartitioned over it alone, and retried to completion — with
// a claimed-state set identical to the serial engine's, and the death and
// retry on the recovery telemetry. Promptly, not as a hang (the test would
// time out).
func TestShardDropMidRound(t *testing.T) {
	g, cfg := chordStart(t)
	serialCfg := cfg
	serialCfg.Budget = mc.Budget{Depth: 5, Workers: 1}
	serialCfg.RecordClaimedStates = true
	serial := mc.NewSearch(serialCfg).Run(g)

	conns, done := dropShardSession(t, g, cfg)
	coord := NewCoordinator(conns, CoordinatorConfig{})
	res, err := coord.RunRound(mc.Budget{Depth: 5, Workers: 1}, true)
	if err != nil {
		t.Fatalf("round did not recover from the dropped shard: %v", err)
	}
	coord.Shutdown()
	if serr := <-done; serr != nil && serr != ErrClosed {
		t.Errorf("surviving shard exited with: %v", serr)
	}
	if res.Recovery.Retries != 1 || res.Recovery.FinalShards != 1 || res.Recovery.SerialFallback {
		t.Errorf("recovery = %q, want 1 retry finishing on 1 shard", res.Recovery.String())
	}
	if len(res.Recovery.Deaths) != 1 || res.Recovery.Deaths[0] != (ShardDeath{Shard: 1, Round: 1, Attempt: 1, Cause: "conn"}) {
		t.Errorf("deaths = %+v, want shard 1 conn death in attempt 1", res.Recovery.Deaths)
	}
	if !reflect.DeepEqual(res.Checker.ClaimedStates, serial.ClaimedStates) {
		t.Errorf("recovered claimed set diverges from serial (%d vs %d states)",
			len(res.Checker.ClaimedStates), len(serial.ClaimedStates))
	}
	if res.Checker.DistinctLocalStates != serial.DistinctLocalStates {
		t.Errorf("recovered DistinctLocalStates=%d, serial %d",
			res.Checker.DistinctLocalStates, serial.DistinctLocalStates)
	}
}

// TestShardDropRetryExhausted pins the bound: a round that loses a shard in
// every one of its DefaultMaxRetries+1 attempts is a round error naming the
// last dead shard, and the session still shuts down cleanly (the abort
// barrier left the survivor consistent). Shard 0 is real; shard i hangs up
// at the round start of attempt i.
func TestShardDropRetryExhausted(t *testing.T) {
	g, cfg := chordStart(t)
	const shards = DefaultMaxRetries + 2
	hub0, side0 := Pipe()
	done := make(chan error, 1)
	go func() {
		done <- RunShard(side0, ShardConfig{Index: 0, Shards: shards, Search: cfg, Root: g})
	}()
	conns := []Conn{hub0}
	var wg sync.WaitGroup
	for id := 1; id < shards; id++ {
		hub, side := Pipe()
		conns = append(conns, hub)
		wg.Add(1)
		go func() {
			defer wg.Done()
			scripted(id, side, func(n int, m Msg) []Msg {
				if n == id && m.kind() == kindRoundStart {
					return []Msg{hangUp{}}
				}
				return nil
			})
		}()
	}
	coord := NewCoordinator(conns, CoordinatorConfig{})
	_, err := coord.RunRound(mc.Budget{Depth: 5, Workers: 1}, false)
	if err == nil {
		t.Fatalf("round that lost a shard in every attempt reported success")
	}
	if want := fmt.Sprintf("attempt %d lost shard(s) %d (conn) and the retry budget (%d) is exhausted",
		shards-1, shards-1, DefaultMaxRetries); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
	coord.Shutdown()
	wg.Wait()
	if serr := <-done; serr != nil && serr != ErrClosed {
		t.Errorf("surviving shard exited with: %v", serr)
	}
}

// TestShardFaultSurfaces pins the other fault path: a shard that hits an
// internal error reports a Fault message and the coordinator aborts the
// round with it.
func TestShardFaultSurfaces(t *testing.T) {
	g, cfg := chordStart(t)
	hub0, side0 := Pipe()
	done := make(chan error, 1)
	go func() {
		done <- RunShard(side0, ShardConfig{Index: 0, Shards: 1, Search: cfg, Root: g})
	}()
	// Drive the shard directly: a batch carrying a corrupt forwarded state
	// (no node, no path) trips the shard's ingest validation.
	if err := hub0.Send(RoundStart{Round: 1, Slot: 0, Slots: 1, Budget: mc.Budget{Depth: 2, Workers: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := hub0.Send(Batch{From: 0, To: 0, States: []ForwardState{{Hash: 1, Depth: 1}}}); err != nil {
		t.Fatal(err)
	}
	sawFault := false
	for {
		m, err := hub0.Recv()
		if err != nil {
			break
		}
		if f, ok := m.(Fault); ok {
			sawFault = true
			if !strings.Contains(f.Err, "no path") && !strings.Contains(f.Err, "outside owned range") {
				t.Errorf("unexpected fault text: %s", f.Err)
			}
			break
		}
	}
	if !sawFault {
		t.Fatalf("shard never surfaced a Fault for the corrupt batch")
	}
	if serr := <-done; serr == nil {
		t.Errorf("faulting shard exited cleanly")
	}
	hub0.Close()
}

// deadShards returns the hub ends of n "shards" that take the round start
// and drop dead.
func deadShards(n int) []Conn {
	conns := make([]Conn, n)
	for i := range conns {
		hub, side := Pipe()
		conns[i] = hub
		go func() {
			if _, err := side.Recv(); err != nil {
				return
			}
			side.Close()
		}()
	}
	return conns
}

// TestSerialFallback pins the degradation floor: when every shard dies, the
// coordinator finishes the round as a one-slot in-process round, so the
// claimed set is still exactly the serial engine's and the violations are
// exactly what a clean sharded round reports.
func TestSerialFallback(t *testing.T) {
	g, cfg := chordStart(t)
	serialCfg := cfg
	serialCfg.Budget = mc.Budget{Depth: 4, Workers: 1}
	serialCfg.RecordClaimedStates = true
	serial := mc.NewSearch(serialCfg).Run(g)

	coord := NewCoordinator(deadShards(2), CoordinatorConfig{Search: mc.NewSearch(cfg), Root: g})
	res, err := coord.RunRound(mc.Budget{Depth: 4, Workers: 1}, true)
	if err != nil {
		t.Fatalf("round did not fall back to the floor: %v", err)
	}
	coord.Shutdown()
	if !res.Recovery.SerialFallback || res.Recovery.FinalShards != 0 {
		t.Errorf("recovery = %q, want a serial fallback", res.Recovery.String())
	}
	if len(res.Recovery.Deaths) != 2 {
		t.Errorf("deaths = %+v, want both shards dead", res.Recovery.Deaths)
	}
	if !reflect.DeepEqual(res.Checker.ClaimedStates, serial.ClaimedStates) {
		t.Errorf("fallback claimed set diverges from serial (%d vs %d states)",
			len(res.Checker.ClaimedStates), len(serial.ClaimedStates))
	}

	// Bullet' at depth 6 has one violated-property set reached at depths 4
	// and 6: a sharded round dedups it by the set and reports it once, and
	// so must the floor (the serial search's onset-and-event-class rule
	// keeps both).
	bg, bcfg, err := scenario.InitialState("bulletprime", scenario.Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	bcfg.Mode = mc.Exhaustive
	bcfg.Seed = 1
	bcfg.Budget = mc.Budget{Depth: 6, Workers: 1}
	clean, err := Local(LocalConfig{Shards: 2, Search: bcfg, Root: bg})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Checker.Violations) != 1 {
		t.Fatalf("clean bulletprime round reports %d violations, want 1", len(clean.Checker.Violations))
	}
	coord = NewCoordinator(deadShards(2), CoordinatorConfig{Search: mc.NewSearch(bcfg), Root: bg})
	res, err = coord.RunRound(bcfg.Budget, false)
	if err != nil {
		t.Fatalf("bulletprime round did not fall back to the floor: %v", err)
	}
	coord.Shutdown()
	if !res.Recovery.SerialFallback {
		t.Errorf("recovery = %q, want a serial fallback", res.Recovery.String())
	}
	if got, want := vioSummary(res.Checker.Violations), vioSummary(clean.Checker.Violations); !reflect.DeepEqual(got, want) {
		t.Errorf("floor violations %v, clean round %v", got, want)
	}
	if res.Checker.StatesExplored != clean.Checker.StatesExplored || res.Checker.MaxDepthReached != clean.Checker.MaxDepthReached {
		t.Errorf("floor explored %d states to depth %d, clean round %d to %d",
			res.Checker.StatesExplored, res.Checker.MaxDepthReached, clean.Checker.StatesExplored, clean.Checker.MaxDepthReached)
	}

	// A floor whose shard fails is the round's error, not a second floor
	// and not a hang: a consequence configuration cannot start a shard.
	ccfg := cfg
	ccfg.Mode = mc.Consequence
	coord = NewCoordinator(deadShards(2), CoordinatorConfig{Search: mc.NewSearch(ccfg), Root: g})
	if _, err := coord.RunRound(mc.Budget{Depth: 4, Workers: 1}, false); err == nil ||
		!strings.Contains(err.Error(), "Exhaustive mode only") {
		t.Errorf("failing floor: %v", err)
	}
	coord.Shutdown()

	// Without a local engine the same cascade is an error, not a hang.
	coord = NewCoordinator(deadShards(2), CoordinatorConfig{})
	if _, err := coord.RunRound(mc.Budget{Depth: 4, Workers: 1}, false); err == nil ||
		!strings.Contains(err.Error(), "no live shards") {
		t.Errorf("zero survivors without an engine: %v", err)
	}
	coord.Shutdown()
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
