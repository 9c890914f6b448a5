package mc

import (
	"fmt"
	"runtime"
	"slices"
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
)

func (m Mode) String() string {
	switch m {
	case Exhaustive:
		return "exhaustive"
	case Consequence:
		return "consequence"
	default:
		return fmt.Sprintf("unknown-mode(%d)", int(m))
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
	// clock, violations and workers in one value. With
	// Budget.Workers == 1 both modes reproduce the serial search of the
	// paper exactly.
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
	// Seed drives deterministic handler randomness.
	Seed int64
	// Reduce enables dynamic partial-order reduction: sleep sets over
	// commuting transitions (independence per reduce.go's dependent —
	// different target nodes, disjoint RST queues) prune expansions whose
	// targets are provably duplicates of states a sibling branch reaches
	// at the same BFS level. The claimed-state set, the violations and
	// the distinct local-state set are identical to the unreduced search;
	// only redundant handler executions are skipped. Applies to both
	// modes.
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
	var last sm.EventKey
	if n := len(v.Path); n > 0 {
		last = v.Path[n-1].EventKey
	}
	return signature(v.Properties, last)
}

// signature renders the bug-class key of a violation whose path ends in last
// (the zero key for the start state).
func signature(properties []string, last sm.EventKey) string {
	sig := ""
	for _, p := range properties {
		sig += p + "|"
	}
	if last.Kind != 0 {
		sig += last.Class()
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
	Violations []Violation
	// StatesExplored counts the states the search checked (mcheck's
	// states=): each is admitted against Budget.States, its properties are
	// checked and a violation is reported. After the state budget first
	// keeps a claimed successor out of the queue, a single-range search only
	// checks: the states it admits from then on are not expanded.
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
	// Unbuilt counts successors the breadth-first engine built in scratch
	// but never published, because their fingerprint was already claimed or
	// already proposed (Engine.fate). It is exact with one worker and varies
	// with more; a sharded result sums its shards'.
	Unbuilt int
	// HandlerRuns counts the event handlers (deliveries, timers, app calls,
	// transport errors) the engine's workers actually ran: a transition whose
	// (node local state, event, consumed item) a worker's memo already holds
	// runs none (runHandler). Resets, RST drops and filtered events are not
	// handler runs. Like Unbuilt it is exact with one worker and varies with
	// more (each worker has its own memo); a sharded result sums its shards'.
	HandlerRuns int
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
	// tripped ("states", "wall", "violations"), or "frontier-empty" when
	// the engine ran out of states. Under a wall or violations stop at the
	// depth bound, leaves already checked at their claim but not yet
	// admitted are not in StatesExplored. controller.Stats counts its
	// rounds by it (Stats.Stops); a sharded round (internal/dist) merges
	// its shards' reasons.
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

// Tree is the search tree of one engine: every state the engine claimed, as
// fixed-size pointer-free entries in a slab, plus the table of interned event
// descriptors the entries' edges and the sleep sets name by index. Nothing in
// it is a heap object per state and nothing in an entry is a pointer, so a
// tree of millions of states is a few dozen chunks the collector never looks
// inside. A claimed state's GState is not here: it sits in the engine's
// frontier until the state is expanded and is then let go; a path is replayed
// from its descriptors (Ref.Keys), never read off retained states.
//
// Ownership. The tree is written only by the goroutine driving its engine's
// Drain, between sweeps: entries are appended and descriptors interned in the
// claim pass (and by Inject), and an entry's pos changes when its state is
// queued. So the engine's workers read it during a sweep without a lock, and
// an entry's hash, parent, event, depth and violated never change once
// written. Another engine is handed indices only through a Forward, after the
// entry was written: a sharded engine's tree pins its directories (slab.pin),
// and a walk that starts from a forwarded Ref touches only values pushed
// before the hand-off — which is all a Ref can reach, parents being older
// than children.
type Tree struct {
	entries slab[entry]
	keys    slab[sm.EventKey] // interned descriptors; index 0 is "no event"
	ids     map[sm.EventKey]uint32
	origins slab[Ref] // where a forwarded chain root came from
}

// entry is one claimed state.
type entry struct {
	hash uint64 // the state's fingerprint
	// violated is the set of properties already violated along the path
	// (Search.violatedBits' encoding), so the search reports each violation's
	// onset exactly once and keeps exploring, as the paper's Figures 5 and 8
	// continue past states added to the error set.
	violated uint64
	// parent is the entry this state succeeds; a chain root has none: -1 for
	// a state injected bare (the start state), -2-i for one
	// forwarded from the entry origins[i] names in another engine's tree.
	parent int32
	event  uint32 // interned descriptor of the transition from the parent (0 at a bare root)
	depth  int32
	pos    int32 // position in its depth's frontier bucket (-1: never queued)
}

// Slab geometry: the first chunk of each table, as a shift. Constants, derived
// from nothing a user sets — a 300-state round pays for a few hundred
// entries, and of what a 10⁷-state search allocates at most a third is unused.
const (
	entryShift  = 6
	keyShift    = 4
	originShift = 4
	heldShift   = 3
)

// newTree returns an empty tree; shared pins it for readers on other
// goroutines than its writer's (another engine).
func newTree(shared bool) *Tree {
	t := &Tree{ids: make(map[sm.EventKey]uint32)}
	t.entries.shift, t.keys.shift, t.origins.shift = entryShift, keyShift, originShift
	if shared {
		t.entries.pin()
		t.keys.pin()
		t.origins.pin()
	}
	t.keys.push(sm.EventKey{})
	return t
}

// reset empties t for another search and keeps its storage.
func (t *Tree) reset() {
	t.entries.reset()
	t.keys.reset()
	t.origins.reset()
	clear(t.ids)
	t.keys.push(sm.EventKey{})
}

// intern returns k's index in the descriptor table, adding it if new.
func (t *Tree) intern(k sm.EventKey) uint32 {
	if id, ok := t.ids[k]; ok {
		return id
	}
	id := uint32(t.keys.push(k))
	t.ids[k] = id
	return id
}

// child appends the entry of a state that succeeds parent through desc and
// returns its index.
func (t *Tree) child(parent int32, desc sm.EventKey, hash uint64, depth int, violated uint64) int32 {
	return int32(t.entries.push(entry{
		hash: hash, violated: violated, parent: parent, event: t.intern(desc), depth: int32(depth), pos: -1,
	}))
}

// root appends a chain root for f.State — forwarded from f.Parent through
// f.Desc, or bare.
func (t *Tree) root(f Forward) int32 {
	e := entry{hash: f.State.Hash(), parent: -1, depth: int32(f.Depth), pos: -1}
	if f.Parent.t != nil {
		e.parent = int32(-2 - t.origins.push(f.Parent))
		e.event = t.intern(f.Desc)
	}
	return int32(t.entries.push(e))
}

// bytes returns the heap bytes the tree holds: slab chunks plus the intern
// map (measured: 90 B a descriptor).
func (t *Tree) bytes() int64 {
	return t.entries.bytes() + t.keys.bytes() + t.origins.bytes() + int64(len(t.ids))*90
}

// Ref names one claimed state: an entry of an engine's tree. The zero Ref
// names nothing.
type Ref struct {
	t *Tree
	i int32
}

// Forward is a state on its way into an engine: what an engine's sink
// receives for a proposed successor outside the engine's range, and what
// Inject takes. Parent and Desc say where it came from — the claimed state it
// succeeds, in the proposing engine's tree, and the transition between them;
// the zero Parent makes it a bare chain root (the start state).
type Forward struct {
	State  *GState
	Depth  int
	Parent Ref
	Desc   sm.EventKey
}

func (r Ref) entry() *entry { return r.t.entries.at(int(r.i)) }

// Hash returns the fingerprint of the state r names.
func (r Ref) Hash() uint64 { return r.entry().hash }

// Depth returns the search depth r was claimed at.
func (r Ref) Depth() int { return int(r.entry().depth) }

// up returns the entry r succeeds — in r's tree, or in the tree a forwarded
// chain root came from — and false at a bare root.
func (r Ref) up() (Ref, bool) {
	switch p := r.entry().parent; {
	case p >= 0:
		return Ref{r.t, p}, true
	case p == -1:
		return r, false
	default:
		return *r.t.origins.at(int(-2 - p)), true
	}
}

// last returns the descriptor of the transition into r (the zero key at a
// bare root).
func (r Ref) last() sm.EventKey { return *r.t.keys.at(int(r.entry().event)) }

// Keys returns the descriptors of the transitions leading from the bare
// chain root r descends from — following forwarded roots into the trees they
// came from — to r: the form a reported path takes, and what Path resolves.
func (r Ref) Keys() []sm.EventKey {
	var rev []sm.EventKey
	for {
		p, ok := r.up()
		if !ok {
			slices.Reverse(rev)
			return rev
		}
		rev = append(rev, r.last())
		r = p
	}
}

// resolve returns the event enabled at g that desc names: the one with
// desc's key — whole, so two same-named app calls at one node resolve by
// their argument fingerprints — whose payload, for a delivery, is the one
// the describer saw.
func (x *Expander) resolve(g *GState, desc sm.EventKey) (sm.Event, error) {
	want := desc
	if want.Kind == 'M' {
		want.Arg = 0
	}
	var ev *sm.Event
	x.each(g, func(at *sm.Event) bool {
		if at.EventKey == want {
			ev = at
		}
		return ev == nil
	})
	if ev == nil {
		return sm.Event{}, fmt.Errorf("no enabled event is %q (arg %#x)", desc, desc.Arg)
	}
	if desc.Kind == 'M' && sm.PayloadHash(ev.Msg, x.enc) != desc.Arg {
		return sm.Event{}, fmt.Errorf("%q: payload fingerprint mismatch", desc)
	}
	return *ev, nil
}

// ReplayKeys re-executes a descriptor path from root, resolving each
// descriptor against the events enabled in the state it executed in — the
// enumeration makes the match unique — and applying it. It returns the state
// the path reaches and, with wantEvents, the resolved events. This is the one
// way a stored path becomes events again: a tree's (Ref.Keys) and a sharded
// violation's (internal/dist).
func (s *Search) ReplayKeys(x *Expander, root *GState, path []sm.EventKey, wantEvents bool) ([]sm.Event, *GState, error) {
	g := root
	var events []sm.Event
	if wantEvents {
		events = make([]sm.Event, 0, len(path))
	}
	for i := range path {
		ev, err := x.resolve(g, path[i])
		if err != nil {
			return nil, nil, fmt.Errorf("replay step %d: %w", i, err)
		}
		next := s.applyEvent(g, &ev, true, x.sc)
		if next == nil {
			return nil, nil, fmt.Errorf("replay step %d: event %s not applicable", i, ev.Describe())
		}
		if wantEvents {
			events = append(events, ev)
		}
		g = next
	}
	return events, g, nil
}

// ReplayTo replays a descriptor path from root and returns its events if it
// reaches the state hash names, and an error otherwise: the one check a
// violation's path passes before it is reported, from a search tree or from
// a shard's report alike.
func (s *Search) ReplayTo(x *Expander, root *GState, path []sm.EventKey, hash uint64) ([]sm.Event, error) {
	events, g, err := s.ReplayKeys(x, root, path, true)
	if err != nil {
		return nil, err
	}
	if g.Hash() != hash {
		return nil, fmt.Errorf("path replays to state hash %#x, not the reported %#x — diverged configurations?", g.Hash(), hash)
	}
	return events, nil
}

// applyFiltered builds in sc the corrective action of filter f instead of
// ev: a filtered message is dropped and, if BreakConn, an RST notification
// is queued to the sender; filtered timers are rescheduled (no state change,
// so no successor); filtered app calls are suppressed.
func (s *Search) applyFiltered(g *GState, ev *sm.Event, f sm.Filter, sc *scratch) *GState {
	if ev.Kind != 'M' {
		return nil
	}
	i := findMsg(g, ev.From, ev.Node, ev.Name, false)
	if i < 0 {
		return nil
	}
	next := sc.begin(g, len(g.msgs)) // the moved queue-mates, or the one RST below
	next.removeMsgAt(i, sc)
	if f.BreakConn {
		if _, known := next.index(ev.From); known {
			next.addMsg(InFlight{From: ev.Node, To: ev.From, Msg: nil}, sc)
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
// so its Hash is ready in O(changed components). The successor is built in a
// pooled scratch and published before the scratch is released, so nothing
// reachable from it aliases the scratch.
func (s *Search) ApplyEvent(g *GState, ev sm.Event) *GState {
	sc := getScratch()
	next := s.applyEvent(g, &ev, false, sc)
	putScratch(sc)
	return next
}

// applyEvent builds ev's successor of g in sc and publishes it. enumerated
// says ev was enumerated at g itself (the engine's expansion or a replay's
// resolved descriptor): a delivery then already carries the queue head's
// payload.
//
//crystal:hotpath
func (s *Search) applyEvent(g *GState, ev *sm.Event, enumerated bool, sc *scratch) *GState {
	if s.apply(g, ev, enumerated, sc) == nil {
		return nil
	}
	return sc.publish(g)
}

// Run explores from the start state in a fresh workspace and returns the
// result. The start state is not mutated.
func (s *Search) Run(start *GState) *Result { return s.RunIn(NewWorkspace(), start) }

// RunIn is Run in w, which it borrows for the search and hands back cleared
// (see Workspace): a caller that runs many searches one after another runs
// them all in one workspace and gets the results Run would return.
func (s *Search) RunIn(w *Workspace, start *GState) *Result {
	s.dummyRedirects.Store(0)
	e := s.newEngine(w, s.cfg.Budget, HashRange{}, nil)
	defer w.release()
	e.Inject(Forward{State: start})
	// Without a sink only the claim pass's check of the engine's own
	// invariant can fail the drain: a bug, not a budget.
	if err := e.drain(nil, true); err != nil {
		panic(err)
	}
	res := e.Result()
	res.Violations = e.Violations(start)
	res.DummyRedirects = int(s.dummyRedirects.Load())
	res.Workers = s.cfg.Budget.Workers
	return res
}

// checkProps evaluates the local property set and then, when configured,
// the global (cross-node) set against the same filled view, returning the
// combined violated names — locals first, globals after, each in
// declaration order — or nil when all hold. Replay and Expander.Check report
// through it; the engine, which must also remember what a path has violated,
// keeps the set form below and renders names only for an onset.
func (s *Search) checkProps(v *props.View) []string {
	bits := s.violatedBits(v)
	if bits == 0 {
		return nil
	}
	return s.propNames(bits, v)
}

// tailBit is the bit every property from the 64th on shares: a path set is
// one word, so such a configuration is handled, not refused — its first 63
// properties report their onsets exactly, and the rest report one onset
// between them per path (the names are those violated where it happened).
const tailBit = 63

// holds evaluates property i (locals, then globals, in declaration order).
func (s *Search) holds(i int, v *props.View) bool {
	if i < len(s.cfg.Props) {
		return s.cfg.Props[i].Check(v)
	}
	return s.cfg.GlobalProps[i-len(s.cfg.Props)].Check(props.Global(v))
}

// violatedBits evaluates every property on v: bit min(i, tailBit) is set when
// property i is violated. This is the one place a property is evaluated.
func (s *Search) violatedBits(v *props.View) (bits uint64) {
	for i, n := 0, len(s.cfg.Props)+len(s.cfg.GlobalProps); i < n; i++ {
		if !s.holds(i, v) {
			bits |= 1 << min(i, tailBit)
		}
	}
	return bits
}

// propNames renders bits — a subset of violatedBits(v) — as property names
// in declaration order; the properties sharing tailBit are evaluated again
// to say which of them it stands for.
func (s *Search) propNames(bits uint64, v *props.View) []string {
	names := make([]string, 0, 1)
	for i, n := 0, len(s.cfg.Props)+len(s.cfg.GlobalProps); i < n; i++ {
		if bits&(1<<min(i, tailBit)) == 0 || (i >= tailBit && s.holds(i, v)) {
			continue
		}
		if i < len(s.cfg.Props) {
			names = append(names, s.cfg.Props[i].Name)
		} else {
			names = append(names, s.cfg.GlobalProps[i-len(s.cfg.Props)].Name)
		}
	}
	return names
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
