package mc

import (
	"runtime"
	"sync/atomic"
	"time"

	"crystalball/internal/props"
	"crystalball/internal/sm"
)

// Mode selects the exploration algorithm.
type Mode int

// Exploration modes.
const (
	// Exhaustive is the standard breadth-first search of paper Figure 5
	// (the MaceMC baseline).
	Exhaustive Mode = iota
	// Consequence is the consequence-prediction algorithm of paper
	// Figure 8: breadth-first, but internal actions of a (node, local
	// state) pair are explored at most once across the entire search.
	Consequence
	// RandomWalk repeatedly walks random enabled transitions to a depth
	// bound (MaceMC's random-walk mode, used in the paper's section 5.3
	// comparison).
	RandomWalk
)

func (m Mode) String() string {
	switch m {
	case Exhaustive:
		return "exhaustive"
	case Consequence:
		return "consequence"
	default:
		return "random-walk"
	}
}

// Config parameterises a search.
type Config struct {
	// Props are the safety properties to check on every explored state.
	Props props.Set
	// GlobalProps are the cross-node properties checked on the same view,
	// right after Props. Their violations flow through the identical
	// onset/dedup machinery, so filters and steering react to a diverged
	// replica pair exactly as they do to a local invariant break. Empty on
	// scenarios that declare none — the checker's behavior (and output) is
	// then bit-for-bit unchanged.
	GlobalProps props.GlobalSet
	// Factory creates fresh service instances for reset nodes.
	Factory sm.Factory
	// Mode selects the algorithm.
	Mode Mode
	// Budget is the search's resource envelope: states, depth, wall
	// clock, violations, transitions and workers in one value. With
	// Budget.Workers == 1 the breadth-first modes reproduce the serial
	// search of the paper exactly.
	Budget Budget
	// ExploreResets enables node-reset fault transitions.
	ExploreResets bool
	// MaxResetsPerPath bounds resets along a single path (default 1).
	MaxResetsPerPath int
	// ExploreConnBreaks adds spontaneous connection-break transitions: a
	// node observes a transport error for one of its neighbors without a
	// preceding reset. The paper treats transport errors as ordinary
	// messages "generated and processed by message handlers", and
	// several Chord scenarios (Figure 10) hinge on them.
	ExploreConnBreaks bool
	// Filters are event filters assumed installed; matching message
	// events are replaced by the filter's corrective action. Used by the
	// steering filter-safety check (paper: "upon encountering an
	// inconsistency, we allow consequence prediction to pursue actions
	// that an event filter could perform").
	Filters []sm.Filter
	// WalkDepth and Walks parameterise RandomWalk mode.
	WalkDepth int
	Walks     int
	// Seed drives deterministic handler randomness.
	Seed int64
	// Reduce enables dynamic partial-order reduction: sleep sets over
	// commuting transitions (independence per reduce.go's dependent —
	// different target nodes, disjoint RST queues) prune expansions whose
	// targets are provably duplicates of states a sibling branch reaches
	// at the same BFS level. The claimed-state set, the violations and
	// the distinct local-state set are identical to the unreduced search;
	// only redundant handler executions are skipped. Applies to the
	// breadth-first strategies (Exhaustive, Consequence).
	Reduce bool
	// RecordLocalStates asks the breadth-first engine to return the
	// sorted set of distinct node-local state hashes it claimed
	// (Result.LocalStates); differential oracles compare the sets.
	RecordLocalStates bool
	// RecordClaimedStates asks the breadth-first engine to return the
	// sorted set of state fingerprints it claimed into the visited set
	// (Result.ClaimedStates). The distributed-search differential oracle
	// compares this set against the union of the shards' claims.
	RecordClaimedStates bool
	// Now is the clock the wall budget (Budget.Wall) and Result.Elapsed
	// read (nil = time.Now). Injecting a fake clock makes wall-budget
	// expiry unit-testable; it is the only wall-clock access in the
	// checker, keeping everything else a deterministic function of the
	// configuration.
	Now func() time.Time
}

func (c *Config) defaults() {
	if c.MaxResetsPerPath == 0 {
		c.MaxResetsPerPath = 1
	}
	if c.WalkDepth == 0 {
		c.WalkDepth = 60
	}
	if c.Walks == 0 {
		c.Walks = 200
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Budget.Workers <= 0 {
		c.Budget.Workers = runtime.GOMAXPROCS(0)
	}
}

// Violation is a predicted inconsistency: the properties violated and the
// event path from the start state that reaches the violating state.
type Violation struct {
	Properties []string
	Path       []sm.Event
	StateHash  uint64
	Depth      int
}

// Signature identifies the violation's bug class for deduplication: the
// violated properties plus the class of the path's final event (the handler
// at fault, sm.EventKey.Class), with node identities stripped so the same bug
// reached along different interleavings — or at different nodes — counts once.
func (v Violation) Signature() string {
	var last sm.Event
	if n := len(v.Path); n > 0 {
		last = v.Path[n-1]
	}
	return signature(v.Properties, last)
}

// signature renders the bug-class key of a violation whose path ends in last
// (nil for the start state).
func signature(properties []string, last sm.Event) string {
	sig := ""
	for _, p := range properties {
		sig += p + "|"
	}
	if last != nil {
		sig += sm.KeyOf(last, nil).Class()
	}
	return sig
}

// Result summarises a search. Violations are deduplicated by Signature and
// sorted by (depth, state hash, signature). For runs bounded only by depth
// or exhaustion the reported set is reproducible regardless of worker
// interleaving (the engine's level-synchronized exploration visits exactly
// the same states); under a states/wall/violations cutoff, which states
// fall inside the budget can vary with more than one worker.
type Result struct {
	Violations      []Violation
	StatesExplored  int
	Transitions     int
	MaxDepthReached int
	// PeakMemoryBytes approximates the search-tree footprint: encoded
	// frontier states plus hash-set entries (Figures 15/16).
	PeakMemoryBytes int64
	// PerStateBytes is PeakMemoryBytes / StatesExplored (Figure 16).
	PerStateBytes  float64
	Elapsed        time.Duration
	DummyRedirects int
	// LocalPrunes counts internal-action expansions skipped by the
	// consequence-prediction rule (0 in exhaustive mode).
	LocalPrunes int
	// SleepHits counts network transitions skipped by the sleep-set
	// partial-order reduction (0 unless Config.Reduce).
	SleepHits int
	// TransitionsPruned is the total expansions avoided: SleepHits plus
	// LocalPrunes (controller.Stats sums it over a deployment's rounds).
	TransitionsPruned int
	// DistinctLocalStates counts distinct node-local states over all
	// claimed states — the ROADMAP's coverage metric ("distinct local
	// states reached per budget").
	DistinctLocalStates int
	// LocalStates is the sorted distinct local-state hash set, filled
	// only when Config.RecordLocalStates is set.
	LocalStates []uint64
	// ClaimedStates is the sorted visited-set fingerprint dump, filled
	// only when Config.RecordClaimedStates is set.
	ClaimedStates []uint64
	// Workers is the worker-pool size the search ran with.
	Workers int
	// StopReason says why the search ended: the first budget bound that
	// tripped ("states", "wall", "violations", "transitions"), or
	// "frontier-empty" when the breadth-first engine ran out of states and
	// "walks" when random-walk mode ran all its walks. Under a wall or
	// violations stop at the depth bound, leaves already checked at their
	// claim but not yet admitted are not in StatesExplored. controller.Stats
	// counts its rounds by it (Stats.Stops); sharded results (internal/dist)
	// do not carry it yet, and no wire field exists for it.
	StopReason string
}

// Search runs one exploration. Create with NewSearch, run with Run.
type Search struct {
	cfg Config
	// dummyRedirects counts messages redirected to the dummy node (sends
	// to nodes outside the snapshot); atomic because handler execution is
	// spread across the worker pool.
	dummyRedirects atomic.Int64
}

// NewSearch returns a Search for the given configuration.
func NewSearch(cfg Config) *Search {
	cfg.defaults()
	return &Search{cfg: cfg}
}

// Config returns the search's (defaulted) configuration.
func (s *Search) Config() Config { return s.cfg }

// Node is an entry of the search tree; parent links reconstruct violation
// paths. A node carries its state (and, under reduction, its sleep set) only
// while the engine still has to expand it: the engine clears both the moment
// expansion returns, and a child claimed at Budget.Depth — never expanded,
// only checked — gives its state up right after the claim pass that claimed
// it unless the check found a violation, so a queued leaf may hold no state.
// What the tree retains per state is (parent, event, hash, depth), and a path
// is replayed from its events, never read off retained states. parent, event,
// depth, hash and violated are immutable once the node is created; sleep is
// narrowed only in a claim pass, and state and sleep are cleared only by the
// worker that expanded the node or checked it as a leaf — in a sharded
// search, a worker of the shard that claimed a forwarded node — so workers
// and other shards may traverse parent chains and read hashes freely. A node
// without a state has nothing left to claim: it must never be injected again.
type Node struct {
	state  *GState // nil once expanded, or checked as a consistent leaf
	hash   uint64  // state's fingerprint, kept after state is let go
	parent *Node
	event  sm.Event
	depth  int
	// violated carries the properties already violated along this path,
	// so the search reports each violation's *onset* exactly once and
	// keeps exploring (the paper's Figures 5 and 8 likewise continue
	// past states added to the error set).
	violated map[string]bool
	// sleep is the node's sleep set under partial-order reduction: the
	// network transitions this path has proven redundant (nil when
	// reduction is off or nothing is slept).
	sleep sleepSet
}

// NewNode returns a chain root: a node with no parent, standing for state g
// at the given search depth. Run seeds the search with one at depth 0; a
// sharded search makes one per state that arrived over a wire.
func NewNode(g *GState, depth int) *Node { return &Node{state: g, hash: g.Hash(), depth: depth} }

// child returns the node for next, the successor ev leads to from n. NewNode
// and child are the only places a Node is built, so hash is never left unset.
func (n *Node) child(next *GState, ev sm.Event) *Node {
	return &Node{state: next, hash: next.Hash(), parent: n, event: ev, depth: n.depth + 1}
}

// State returns the node's state, or nil once the node has been expanded or
// checked as a consistent leaf at the depth bound.
func (n *Node) State() *GState { return n.state }

// Hash returns the fingerprint of the node's state; unlike State it stays
// available after expansion.
func (n *Node) Hash() uint64 { return n.hash }

// Depth returns the node's search depth.
func (n *Node) Depth() int { return n.depth }

// Root returns the chain root n descends from (n itself for a root).
func (n *Node) Root() *Node {
	for n.parent != nil {
		n = n.parent
	}
	return n
}

// Path returns the events leading from n's chain root to n.
func (n *Node) Path() []sm.Event {
	var rev []sm.Event
	for cur := n; cur.parent != nil; cur = cur.parent {
		rev = append(rev, cur.event)
	}
	out := make([]sm.Event, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// filterFor returns the first installed filter matching ev, if any.
func (s *Search) filterFor(ev sm.Event) (sm.Filter, bool) {
	for _, f := range s.cfg.Filters {
		if f.Matches(ev) {
			return f, true
		}
	}
	return sm.Filter{}, false
}

// applyFiltered executes the corrective action of filter f instead of ev:
// a filtered message is dropped and, if BreakConn, an RST notification is
// queued to the sender; filtered timers are rescheduled (no state change,
// so no successor); filtered app calls are suppressed.
func (s *Search) applyFiltered(g *GState, ev sm.Event, f sm.Filter, sc *scratch) *GState {
	me, ok := ev.(sm.MsgEvent)
	if !ok {
		return nil
	}
	i := findMsg(g, me.From, me.To, me.Msg.MsgType(), false)
	if i < 0 {
		return nil
	}
	next := g.shallowClone()
	next.removeMsgAt(i, 1, sc) // room for the one RST below
	if f.BreakConn {
		if _, known := next.index(me.From); known {
			next.addMsg(InFlight{From: me.To, To: me.From, Msg: nil}, sc)
		}
	}
	return next
}

// ApplyEvent executes ev on g — honoring installed event filters — and
// returns the successor state, or nil when the event is not applicable.
// g is never mutated: handlers run on cloned node states, and all encoding
// and hash caches are populated at state construction, so ApplyEvent is
// safe to call from concurrent workers on a shared predecessor. The
// successor's fingerprint is maintained incrementally during construction,
// so its Hash is ready in O(changed components). All transient workspace —
// scratch encoder, handler context, per-edge random stream — comes from a
// pooled scratch that is released before returning, so nothing reachable
// from the successor aliases it.
func (s *Search) ApplyEvent(g *GState, ev sm.Event) *GState {
	sc := getScratch()
	var next *GState
	if f, ok := s.filterFor(ev); ok {
		next = s.applyFiltered(g, ev, f, sc)
	} else {
		next = s.apply(g, ev, sc)
	}
	putScratch(sc)
	return next
}

// Run explores from the start state and returns the result. The start
// state is not mutated.
func (s *Search) Run(start *GState) *Result {
	s.dummyRedirects.Store(0)
	var res *Result
	switch s.cfg.Mode {
	case Exhaustive, Consequence:
		e := s.NewEngine(s.cfg.Budget, HashRange{}, nil)
		e.Inject(NewNode(start, 0))
		// Without a sink nothing in the drain can fail.
		_ = e.Drain(nil)
		res = e.Result()
	default:
		res = s.randomWalks(start)
	}
	res.DummyRedirects = int(s.dummyRedirects.Load())
	res.Workers = s.cfg.Budget.Workers
	return res
}

// checkProps evaluates the local property set and then, when configured,
// the global (cross-node) set against the same filled view, returning the
// combined violated names — locals first, globals after, each in
// declaration order. Every property-evaluation site in the checker (engine
// expansion, random walks, replay, Expander.Check) funnels through this one
// helper.
func (s *Search) checkProps(v *props.View) []string {
	violated := s.cfg.Props.Check(v)
	if len(s.cfg.GlobalProps) > 0 {
		violated = s.cfg.GlobalProps.AppendViolated(violated, props.Global(v))
	}
	return violated
}

// Replay re-executes a previously discovered error path from a (new) start
// state, following the paper's replay rule: timer and application events
// (and faults) replay directly, while message and error events replay only
// if the corresponding item is actually in flight — the service code itself
// regenerates messages, and we follow their causality. It returns the
// violated properties if the path still leads to a violation from this
// state, or nil.
func (s *Search) Replay(start *GState, path []sm.Event) []string {
	g := start
	v := props.NewView() // reused across every step of the replay
	g.FillView(v)
	if violated := s.checkProps(v); len(violated) > 0 {
		return violated
	}
	for _, ev := range path {
		next := s.ApplyEvent(g, ev)
		if next == nil {
			// Event not applicable from the new state: the path is
			// no longer feasible.
			return nil
		}
		g = next
		g.FillView(v)
		if violated := s.checkProps(v); len(violated) > 0 {
			return violated
		}
	}
	return nil
}
