package dist

import (
	"errors"
	"sync"

	"crystalball/internal/mc"
)

// LocalConfig parameterises an in-process distributed search: N shard
// goroutines wired to a coordinator over loopback connections. This is
// what `mcheck -shards N` and the differential oracles run.
type LocalConfig struct {
	// Shards is the partition width (0 or 1 = a single shard owning the
	// whole space).
	Shards int
	// Search is the checker configuration every shard runs (Exhaustive
	// mode only; see ShardConfig.Search). Search.Budget is the round budget
	// the coordinator splits; its Workers is the per-shard worker count and
	// defaults to 1 — shards already run in parallel with each other.
	Search mc.Config
	// Root is the start state.
	Root *mc.GState
	// RecordStates asks every shard for its claimed-fingerprint dump
	// (merged sorted into Result.Checker.ClaimedStates).
	RecordStates bool
	// Faults, when set, wraps each shard's hub-side connection in the
	// deterministic fault-injection plan (mcheck -faults). Shards the plan
	// kills are recovered from by the coordinator's retry machinery and
	// reported in Result.Recovery.
	Faults *FaultPlan
}

// Local runs one distributed exhaustive round in process and returns the
// merged result.
func Local(cfg LocalConfig) (*Result, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	probe := mc.NewSearch(cfg.Search)
	budget := cfg.Search.Budget
	if budget.Workers <= 0 {
		budget.Workers = 1
	}

	hubConns := make([]Conn, cfg.Shards)
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Shards; i++ {
		hub, shardSide := Pipe()
		hubConns[i] = hub
		if cfg.Faults != nil {
			hubConns[i] = cfg.Faults.Wrap(i, hub)
		}
		wg.Add(1)
		go func(i int, conn Conn) {
			defer wg.Done()
			errs[i] = RunShard(conn, ShardConfig{
				Index:  i,
				Shards: cfg.Shards,
				Search: cfg.Search,
				Root:   cfg.Root,
			})
		}(i, shardSide)
	}

	coord := NewCoordinator(hubConns, CoordinatorConfig{
		Now:    probe.Config().Now,
		Search: probe,
		Root:   cfg.Root,
	})
	res, err := coord.RunRound(budget, cfg.RecordStates)
	coord.Shutdown()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	// Shards the coordinator declared dead exited with whatever error
	// killed them (severed pipe, corrupted batch, …) — the round already
	// recovered from those; only an error from a shard that stayed in the
	// session is a real failure.
	dead := make(map[int]bool, len(res.Recovery.Deaths))
	for _, d := range res.Recovery.Deaths {
		dead[d.Shard] = true
	}
	for i, serr := range errs {
		if serr != nil && !errors.Is(serr, ErrClosed) && !dead[i] {
			return nil, serr
		}
	}
	return res, nil
}
