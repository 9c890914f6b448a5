// Package controller implements the CrystalBall controller of the paper's
// Figure 7: it periodically collects a consistent snapshot of the node's
// neighborhood, feeds it (with the local checkpoint) to the consequence-
// prediction model checker, and acts on predicted violations.
//
// Two operating modes mirror the paper:
//
//   - DeepOnlineDebugging: predicted violations are recorded as findings;
//   - ExecutionSteering: the controller derives an event filter from the
//     earliest controllable event of the violation path ("our current
//     policy is to steer the execution as early as possible"), re-runs
//     consequence prediction with the filter applied to check the filter
//     itself is safe, and installs it into the runtime. Filters are removed
//     after every model-checking run; at the start of each run, previously
//     discovered error paths are replayed against the fresh snapshot and
//     filters are immediately reinstalled if the violation still reproduces.
//
// Because the paper runs the checker as a separate process that races the
// live system, the controller charges a configurable virtual latency per
// explored state and only delivers the checker's report after that much
// simulated time: a bug that fires before the report lands must be caught
// by the immediate safety check (or not at all), which is exactly the
// decomposition Figure 14 measures.
package controller

import (
	"fmt"
	"slices"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/runtime"
	"crystalball/internal/sim"
	"crystalball/internal/sm"
	"crystalball/internal/snapshot"
)

// Mode selects what the controller does with predicted violations.
type Mode int

// Controller modes (paper section 3).
const (
	// DeepOnlineDebugging only records violation reports.
	DeepOnlineDebugging Mode = iota
	// ExecutionSteering installs event filters to avoid predicted
	// violations, with the immediate safety check as a fallback.
	ExecutionSteering
)

func (m Mode) String() string {
	switch m {
	case DeepOnlineDebugging:
		return "deep-online-debugging"
	case ExecutionSteering:
		return "execution-steering"
	default:
		// An unknown mode is a configuration bug; report it instead of
		// silently rendering it as one of the real modes.
		return fmt.Sprintf("unknown-mode(%d)", int(m))
	}
}

// Config parameterises a controller.
type Config struct {
	Mode Mode
	// Check is the search every consequence-prediction round runs, as the
	// checker takes it: properties, factory, fault model, reduction, seed
	// and budget (the filter-safety recheck runs on half Budget.States; a
	// zero Budget.Violations means defaultMaxViolations). The controller
	// forces Mode to mc.Consequence and sets Filters for that recheck,
	// nothing else — so rounds run with Check.Seed, which is 0 unless the
	// caller sets it (crystalball -seed seeds the simulator only).
	// Check.Factory also rebuilds service instances from checkpoints.
	// The immediate safety check reads Check.Props alone: it consults a
	// neighborhood view that is partial by construction, while
	// Check.GlobalProps earn their keep on the checker's complete views.
	Check mc.Config
	// SnapshotInterval is both the node's periodic checkpoint interval and
	// the gap between model-checking rounds (paper: 10 s).
	SnapshotInterval time.Duration
	// PerStateCost is the virtual model-checking time charged per
	// explored state; the report arrives only after the total latency.
	PerStateCost time.Duration
	// EnableISC turns on the immediate safety check as a fallback.
	EnableISC bool
	// CheckFilterSafety re-runs consequence prediction with a candidate
	// filter before installing it (ablation: disable to measure the
	// paper's safety argument).
	CheckFilterSafety bool
	// CheckRound, if set, replaces the embedded consequence-prediction
	// engine for the full per-round run (the filter-safety recheck and
	// path replay still use the embedded engine). It exists so the round
	// can *fail*: the paper runs the checker as a separate process, and a
	// separate process can crash, wedge, or time out. A nil error with a
	// nil result counts as a failure too. When a round fails, the
	// controller degrades to conservative mode — see Stats — instead of
	// blocking the snapshot loop or dropping its installed filters.
	CheckRound func(mc.Config, *mc.GState) (*mc.Result, error)
}

// DefaultConfig returns the configuration used across the experiments for
// rounds that run check; a zero check.Budget.States means 20000.
func DefaultConfig(check mc.Config) Config {
	if check.Budget.States == 0 {
		check.Budget.States = 20000
	}
	return Config{
		Mode:              DeepOnlineDebugging,
		Check:             check,
		SnapshotInterval:  10 * time.Second,
		PerStateCost:      300 * time.Microsecond,
		EnableISC:         true,
		CheckFilterSafety: true,
	}
}

// defaultMaxViolations is the per-round violation quota Config.Check.Budget
// gets unless it sets its own.
const defaultMaxViolations = 8

// maxStoredPaths bounds the remembered error paths; a steering controller
// replays them at the start of each round to reinstall still-relevant
// filters.
const maxStoredPaths = 16

// Finding is one recorded violation prediction: the checker's violation,
// when the report carrying it landed, and the corrective filter chosen (nil
// when none exists or in debugging mode). Its Signature is the violation's,
// so the same bug found at different nodes counts once here and in the
// checker alike.
type Finding struct {
	mc.Violation
	FoundAt sim.Time
	Filter  *sm.Filter
}

// Stats counts controller activity; the steering experiments read these.
type Stats struct {
	Rounds              int64
	SnapshotFailures    int64
	ViolationsPredicted int64
	FiltersInstalled    int64
	SteeringUnhelpful   int64 // no corrective action, or filter deemed unsafe
	FilterUnsafe        int64 // filters rejected by the safety recheck
	ReplayReinstalls    int64
	StatesExplored      int64
	// TransitionsPruned and SleepHits aggregate the checker's
	// partial-order-reduction counters over all rounds (including
	// filter-safety rechecks).
	TransitionsPruned int64
	SleepHits         int64
	MCVirtualTime     time.Duration
	// CheckerFailures counts checker rounds that returned an error (a
	// crashed/timed-out checker process in the paper's deployment). Each
	// failure flips the controller into conservative mode: the filters
	// installed by the last successful round stay in place — steering on
	// stale but vetted predictions — rather than expiring on the paper's
	// "after every model checking run" schedule, because the run never
	// completed. The next successful round clears and re-derives them as
	// usual.
	CheckerFailures int64
	// ConservativeRounds counts rounds the controller spent in
	// conservative mode (the failing round and every subsequent round
	// until a checker run succeeds again).
	ConservativeRounds int64
	// Stops counts the rounds that searched by why the search ended
	// (mc.Result.StopReason; a failed checker round counts under "error"):
	// Stops["states"] is how many rounds the state budget bound. Nil until
	// a round searches.
	Stops map[string]int64
	// Skipped counts the rounds that searched nothing because their
	// snapshot was identical to the last fully-searched one. Every round
	// either searches or is skipped: Rounds is Skipped plus the sum of Stops.
	Skipped int64
}

// Controller drives CrystalBall for one node.
type Controller struct {
	sim  *sim.Simulator
	node *runtime.Node
	mgr  *snapshot.Manager
	cfg  Config
	ws   *mc.Workspace // where the rounds and filter-safety rechecks search
	ids  []sm.NodeID   // a round's snapshot ids, sorted; reused across rounds

	lastView *props.View
	findings []Finding
	paths    []Finding // findings with a filter, whose paths a steering round replays
	busy     bool
	lastHash uint64 // hash of the last fully-searched snapshot
	// conservative is set while the node is coasting on the previous
	// round's filters after a checker failure (Stats.CheckerFailures).
	conservative bool

	// OnViolation, if set, is called when a report with violations is
	// processed (used by experiments to observe prediction timing).
	OnViolation func(f Finding)

	Stats Stats
}

// New attaches a controller to a node. The node gets a checkpoint manager
// that checkpoints every cfg.SnapshotInterval and, if cfg.EnableISC, the
// immediate safety check wired to the controller's latest neighborhood
// snapshot. The controller's searches — its rounds' and filter-safety
// rechecks' — run in ws, one at a time on the simulator's goroutine, so the
// controllers of one simulator may share one workspace.
func New(s *sim.Simulator, node *runtime.Node, cfg Config, ws *mc.Workspace) *Controller {
	cfg.Check.Mode = mc.Consequence
	if cfg.Check.Budget.Violations == 0 {
		cfg.Check.Budget.Violations = defaultMaxViolations
	}
	c := &Controller{
		sim:  s,
		node: node,
		mgr:  snapshot.NewManager(s, node, cfg.SnapshotInterval),
		cfg:  cfg,
		ws:   ws,
	}
	if cfg.EnableISC {
		node.EnableISC(cfg.Check.Props, func() *props.View { return c.lastView })
	}
	return c
}

// Node returns the underlying runtime node.
func (c *Controller) Node() *runtime.Node { return c.node }

// Manager returns the checkpoint manager.
func (c *Controller) Manager() *snapshot.Manager { return c.mgr }

// Findings returns all recorded violation predictions.
func (c *Controller) Findings() []Finding { return c.findings }

// Start begins periodic snapshot + model-checking rounds.
func (c *Controller) Start() { c.scheduleRound(c.cfg.SnapshotInterval) }

func (c *Controller) scheduleRound(d time.Duration) {
	c.sim.After(d, c.round)
}

func (c *Controller) round() {
	if c.busy {
		c.scheduleRound(c.cfg.SnapshotInterval)
		return
	}
	c.busy = true
	neighbors := c.node.Service().Neighbors()
	c.mgr.Collect(neighbors, c.onSnapshot)
}

func (c *Controller) onSnapshot(snap *snapshot.Snapshot) {
	if snap == nil || len(snap.States) == 0 {
		c.Stats.SnapshotFailures++
		c.busy = false
		c.scheduleRound(c.cfg.SnapshotInterval)
		return
	}
	c.Stats.Rounds++
	// Decode the checkpoints, in id order, into service instances; this
	// state is both the checker's start state and the ISC's evaluation
	// context.
	ids := c.ids[:0]
	for id := range snap.States {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	c.ids = ids
	start := mc.NewGState()
	view := props.NewView()
	for _, id := range ids {
		svc, timers, err := sm.DecodeFullState(c.cfg.Check.Factory, id, snap.States[id])
		if err != nil {
			continue
		}
		start.AddNode(id, svc, timers)
		// The view shares the start state's services: the checker never
		// writes a state it is handed (handlers run on copies), and the
		// immediate safety check only reads the view.
		view.Add(id, svc, timers)
	}
	c.lastView = view

	// A snapshot identical to the last fully-searched one cannot yield
	// new predictions, so the full model-checking run is skipped — and
	// since filters are removed "after every model checking run", a
	// skipped run leaves the installed filters in place.
	hash := start.Hash()
	if hash == c.lastHash {
		c.Stats.Skipped++
		if c.conservative {
			// A skipped run also leaves the stale filters in place, so
			// the coasting continues to be counted.
			c.Stats.ConservativeRounds++
		}
		c.busy = false
		c.scheduleRound(c.cfg.SnapshotInterval)
		return
	}

	// The full consequence-prediction run executes synchronously here, in
	// host time, *before* any filter-expiry scheduling — the run consumes
	// no virtual time itself (its report is delivered after the virtual
	// latency below), so the reorder is invisible to the simulation, but
	// it means a failed run can return without touching the installed
	// filters. The paper expires filters "after every model checking
	// run"; a run that errored never completed, so the node degrades to
	// conservative mode — keeping the last successful round's filters —
	// rather than dropping its protection or blocking the snapshot loop.
	res, cerr := c.checkRound(start)
	if cerr == nil && res == nil {
		cerr = fmt.Errorf("checker returned no report")
	}
	if cerr != nil {
		c.countStop("error")
		c.Stats.CheckerFailures++
		c.Stats.ConservativeRounds++
		c.conservative = true
		// lastHash stays at the last *successful* search, so the next
		// snapshot is re-checked even if the state did not move.
		c.busy = false
		c.scheduleRound(c.cfg.SnapshotInterval)
		return
	}
	c.conservative = false

	// Step 1 (paper, "Rechecking Previously Discovered Violations"): the
	// first thing the checker does is replay stored error paths; filters
	// for paths that still violate are reinstalled near-instantly.
	var reinstall []sm.Filter
	replayStates := 0
	if c.cfg.Mode == ExecutionSteering {
		replayer := mc.NewSearch(c.cfg.Check)
		for _, f := range c.paths {
			replayStates += len(f.Path)
			if violated := replayer.Replay(start, f.Path); len(violated) > 0 {
				reinstall = append(reinstall, *f.Filter)
			}
		}
	}
	replayLatency := time.Duration(replayStates) * c.cfg.PerStateCost
	c.sim.After(replayLatency, func() {
		// Filters from the previous round expire now; confirmed ones
		// return immediately.
		c.node.ClearFilters()
		for _, f := range reinstall {
			c.Stats.ReplayReinstalls++
			c.Stats.FiltersInstalled++
			c.node.InstallFilter(f)
		}
	})

	c.lastHash = hash

	// Step 2: account the full run. The search already executed above but
	// its report is delivered only after the virtual model-checking
	// latency, reproducing the checker/system race.
	c.Stats.StatesExplored += int64(res.StatesExplored)
	c.countStop(res.StopReason)
	c.observeCounters(res)
	mcLatency := replayLatency + time.Duration(res.StatesExplored)*c.cfg.PerStateCost
	c.Stats.MCVirtualTime += mcLatency
	c.sim.After(mcLatency, func() {
		c.processReport(start, res)
		c.busy = false
		c.scheduleRound(c.cfg.SnapshotInterval)
	})
}

func (c *Controller) processReport(start *mc.GState, res *mc.Result) {
	// Different violations in one report often derive the same corrective
	// filter (one bad handler reached along several interleavings); the
	// safety verdict is kept per filter so each is checked — and, if safe,
	// installed — once per round.
	verdicts := make(map[sm.Filter]bool)
	for _, v := range res.Violations {
		c.Stats.ViolationsPredicted++
		finding := Finding{Violation: v, FoundAt: c.sim.Now()}
		if c.cfg.Mode == ExecutionSteering {
			// A path with no filterable event has no verdict: safe stays false.
			f, ok := c.correctiveFilter(v.Path)
			safe, checked := verdicts[f]
			if ok && !checked {
				safe = !c.cfg.CheckFilterSafety || c.filterIsSafe(start, f)
				verdicts[f] = safe
				if safe {
					c.Stats.FiltersInstalled++
					c.node.InstallFilter(f)
				}
			}
			switch {
			case safe:
				finding.Filter = &f
			case ok:
				c.Stats.FilterUnsafe++
				c.Stats.SteeringUnhelpful++
			default:
				c.Stats.SteeringUnhelpful++
			}
		}
		c.recordFinding(finding)
		if c.OnViolation != nil {
			c.OnViolation(finding)
		}
	}
}

// correctiveFilter picks the earliest event of the path that this node can
// block: a message delivered to it, or one of its own timer/app events.
func (c *Controller) correctiveFilter(path []sm.Event) (sm.Filter, bool) {
	for _, ev := range path {
		if ev.Node != c.node.ID {
			continue
		}
		if f, ok := sm.FilterForEvent(ev); ok {
			return f, true
		}
	}
	return sm.Filter{}, false
}

// checkRound runs one full consequence-prediction round through the
// configured seam, defaulting to the embedded engine (which cannot fail).
func (c *Controller) checkRound(start *mc.GState) (*mc.Result, error) {
	if c.cfg.CheckRound != nil {
		return c.cfg.CheckRound(c.cfg.Check, start)
	}
	return mc.NewSearch(c.cfg.Check).RunIn(c.ws, start), nil
}

// filterIsSafe re-runs consequence prediction with the candidate filter's
// corrective action applied; the filter is safe when no violation remains
// reachable within the budget (paper, "Ensuring Safety of Event Filter
// Actions").
func (c *Controller) filterIsSafe(start *mc.GState, f sm.Filter) bool {
	res := mc.NewSearch(c.recheckConfig(f)).RunIn(c.ws, start)
	c.Stats.StatesExplored += int64(res.StatesExplored)
	c.observeCounters(res)
	return len(res.Violations) == 0
}

// recheckConfig is the round's search with f assumed installed: a second,
// cheaper pass on half the round's state budget that stops at the first
// violation.
func (c *Controller) recheckConfig(f sm.Filter) mc.Config {
	cfg := c.cfg.Check
	cfg.Filters = []sm.Filter{f}
	cfg.Budget.Violations = 1
	cfg.Budget.States /= 2
	return cfg
}

// countStop records why one round's search ended.
func (c *Controller) countStop(reason string) {
	if c.Stats.Stops == nil {
		c.Stats.Stops = make(map[string]int64)
	}
	c.Stats.Stops[reason]++
}

// observeCounters folds one search's reduction counters into the
// controller stats.
func (c *Controller) observeCounters(res *mc.Result) {
	c.Stats.TransitionsPruned += int64(res.TransitionsPruned)
	c.Stats.SleepHits += int64(res.SleepHits)
}

func (c *Controller) recordFinding(f Finding) {
	c.findings = append(c.findings, f)
	if f.Filter != nil {
		c.paths = append(c.paths, f)
		if len(c.paths) > maxStoredPaths {
			c.paths = c.paths[len(c.paths)-maxStoredPaths:]
		}
	}
}

// DistinctFindings deduplicates findings by bug-class signature; the
// Table 1 experiment reports these.
func DistinctFindings(findings []Finding) []Finding {
	seen := make(map[string]bool)
	var out []Finding
	for _, f := range findings {
		sig := f.Signature()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, f)
	}
	return out
}
