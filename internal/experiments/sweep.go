package experiments

import (
	"fmt"

	"crystalball/internal/dist"
	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	"crystalball/internal/stats"
)

// SweepConfig parameterises the scenario x workers x shards x reduction
// coverage matrix (the MET-style sweep the scenario registry was built
// for).
type SweepConfig struct {
	Seed int64
	// Workers lists the worker-pool sizes to sweep (nil = 1, 2, 4).
	Workers []int
	// Reduce lists the partial-order-reduction settings to sweep (nil =
	// off then on, so each cell's coverage gain is visible in adjacent
	// rows).
	Reduce []bool
	// Shards lists the distributed-search shard counts to sweep (nil =
	// just 1 = the single-process engine). Cells with more than one shard
	// run the distributed exhaustive search (internal/dist) instead of
	// consequence prediction — reduction does not apply there, so the
	// reduce axis collapses for those cells.
	Shards []int
	// States is every cell's state budget (0 = 4000).
	States int
	// Faults is injected into every distributed cell (shards > 1), so the
	// sweep can measure recovery cost: the Retries and ShardsLost columns
	// show what the fault plan did to each cell. Nil = fault-free.
	// Single-engine cells ignore it.
	Faults *dist.FaultPlan
}

// SweepRow is one cell of the matrix: one search from a scenario's initial
// state under one (workers, shards, reduce) combination.
type SweepRow struct {
	Scenario string
	Workers  int
	// Reduce records whether the cell ran with sleep-set partial-order
	// reduction.
	Reduce      bool
	States      int
	Transitions int
	// Pruned is the transitions the checker skipped as provably redundant
	// (sleep-set hits plus local-state prunes).
	Pruned int
	// Shards is the distributed-search shard count (1 = single engine).
	Shards int
	// Forwarded/Received/RemoteDeduped/BatchFlushes are the
	// frontier-exchange counters (zero for shards = 1).
	Forwarded     int64
	Received      int64
	RemoteDeduped int64
	BatchFlushes  int64
	// DistinctLocals counts the distinct node-local states reached.
	DistinctLocals int
	// Retries and ShardsLost are the recovery telemetry when
	// SweepConfig.Faults injects failures into distributed cells: rounds
	// re-run after a shard death, and shard deaths observed.
	Retries    int
	ShardsLost int
	// Coverage is the sweep's quality metric — distinct local states
	// reached per 1000 states of exploration budget. Raw states/sec
	// rewards re-claiming cheap duplicate interleavings; locals-per-
	// budget measures how much *new service behavior* each unit of
	// checker budget buys, which is what consequence prediction's
	// lookahead actually depends on.
	Coverage float64
	// Distinct counts distinct violation signatures.
	Distinct int
}

// Sweep runs the matrix: every registered scenario x every worker count x
// every shard count x reduction off/on, one search from the scenario's
// initial state per cell — consequence prediction on the single engine, the
// sharded exhaustive search when shards > 1.
func Sweep(cfg SweepConfig) ([]SweepRow, error) {
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 2, 4}
	}
	if len(cfg.Reduce) == 0 {
		cfg.Reduce = []bool{false, true}
	}
	if cfg.States == 0 {
		cfg.States = 4000
	}
	if len(cfg.Shards) == 0 {
		cfg.Shards = []int{1}
	}
	var rows []SweepRow
	for _, name := range scenario.Names() {
		for _, workers := range cfg.Workers {
			for _, shards := range cfg.Shards {
				for _, reduce := range cfg.Reduce {
					if shards > 1 && reduce {
						continue // reduction does not apply to dist cells
					}
					row, err := sweepCell(cfg, name, workers, shards, reduce)
					if err != nil {
						return nil, fmt.Errorf("sweep %s workers=%d shards=%d: %w", name, workers, shards, err)
					}
					rows = append(rows, row)
				}
			}
		}
	}
	return rows, nil
}

func sweepCell(cfg SweepConfig, name string, workers, shards int, reduce bool) (SweepRow, error) {
	row := SweepRow{Scenario: name, Workers: workers, Shards: shards, Reduce: reduce}
	g, searchCfg, err := scenario.InitialState(name, scenario.Options{})
	if err != nil {
		return row, err
	}
	searchCfg.Budget = mc.Budget{States: cfg.States, Violations: 8, Workers: workers}
	searchCfg.Seed = cfg.Seed
	var res *mc.Result
	if shards > 1 {
		searchCfg.Mode = mc.Exhaustive
		dres, err := dist.Local(dist.LocalConfig{
			Shards: shards,
			Search: searchCfg,
			Root:   g,
			Budget: searchCfg.Budget,
			Faults: cfg.Faults,
		})
		if err != nil {
			return row, err
		}
		res = &dres.Checker
		row.Forwarded = dres.Stats.StatesForwarded
		row.Received = dres.Stats.StatesReceived
		row.RemoteDeduped = dres.Stats.RemoteDeduped
		row.BatchFlushes = dres.Stats.BatchFlushes
		row.Retries = dres.Recovery.Retries
		row.ShardsLost = len(dres.Recovery.Deaths)
	} else {
		searchCfg.Mode = mc.Consequence
		searchCfg.Reduce = reduce
		res = mc.NewSearch(searchCfg).Run(g)
	}
	distinct := map[string]bool{}
	for _, v := range res.Violations {
		distinct[v.Signature()] = true
	}
	row.States = res.StatesExplored
	row.Transitions = res.Transitions
	row.Pruned = res.TransitionsPruned
	row.DistinctLocals = res.DistinctLocalStates
	row.Coverage = 1000 * float64(row.DistinctLocals) / float64(cfg.States)
	row.Distinct = len(distinct)
	return row, nil
}

// FormatSweep renders the matrix as a locals-per-budget coverage table;
// distributed cells (shards > 1) additionally report their frontier-
// exchange counters.
func FormatSweep(rows []SweepRow) string {
	t := stats.Table{
		Title: "Scenario x workers x shards x reduction sweep (one search per cell)",
		Header: []string{"scenario", "workers", "shards", "reduce", "states", "transitions", "pruned",
			"fwd", "rcvd", "rdedup", "flushes", "retries", "lost", "locals", "locals/1k-budget", "distinct-bugs"},
	}
	for _, r := range rows {
		t.Add(r.Scenario, r.Workers, r.Shards, onOff(r.Reduce), r.States, r.Transitions, r.Pruned,
			r.Forwarded, r.Received, r.RemoteDeduped, r.BatchFlushes,
			r.Retries, r.ShardsLost,
			r.DistinctLocals, fmt.Sprintf("%.1f", r.Coverage), r.Distinct)
	}
	return t.String()
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
