package dist

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"crystalball/internal/mc"
)

// CoordinatorConfig parameterises the hub.
type CoordinatorConfig struct {
	// Now is the clock Result.Checker.Elapsed reads (nil = time.Now) —
	// injected so round timing is testable like the engine's.
	Now func() time.Time
	// Search and Root, when set, let the coordinator materialize real
	// event paths for violations — they arrive as descriptors. Without
	// them violations keep a nil path.
	Search *mc.Search
	Root   *mc.GState
}

// arrival is one message fanned in from a shard connection.
type arrival struct {
	shard int
	msg   Msg
	err   error
}

// Coordinator is the hub of a distributed search session: it fans rounds
// out, relays every inter-shard batch (counting credits for the quiescence
// check), and merges shard reports into the one result the controller
// consumes. Methods must be called from a single goroutine.
//
// Shards are goroutines of this process on in-process pipes: nothing
// outside the program can close a pipe, and a panicking shard takes the
// process with it. A shard failure is therefore a bug in the engine or the
// protocol, and it ends the round with an error naming the shard and the
// cause; the session is then over, and only Shutdown remains to call.
type Coordinator struct {
	cfg   CoordinatorConfig
	conns []Conn
	inbox chan arrival
	done  chan struct{}
	round int
}

// NewCoordinator wraps one connection per shard (index = shard id) and
// starts a reader per connection, fanning messages into the coordinator's
// inbox.
func NewCoordinator(conns []Conn, cfg CoordinatorConfig) *Coordinator {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Coordinator{
		cfg:   cfg,
		conns: conns,
		inbox: make(chan arrival, 4*len(conns)+16),
		done:  make(chan struct{}),
	}
	for i, conn := range conns {
		go c.pump(i, conn)
	}
	return c
}

func (c *Coordinator) pump(shard int, conn Conn) {
	for {
		m, err := conn.Recv()
		select {
		case c.inbox <- arrival{shard: shard, msg: m, err: err}:
		case <-c.done:
			return
		}
		if err != nil {
			return
		}
	}
}

// nextArrival blocks for the next fan-in message.
func (c *Coordinator) nextArrival() arrival { return <-c.inbox }

// Shutdown ends the session: every shard is asked to exit and all
// connections are closed. Call exactly once, after the last round.
func (c *Coordinator) Shutdown() {
	for _, conn := range c.conns {
		_ = conn.Send(Shutdown{})
	}
	close(c.done)
	for _, conn := range c.conns {
		_ = conn.Close()
	}
}

// Result is one distributed round's merged outcome.
type Result struct {
	// Checker is the merged search result in the single-process engine's
	// shape: explored-state totals, max depth, merged deduplicated
	// violations, distinct local-state coverage, the shards' summed peak
	// memory accounting, and — on RecordStates rounds — the unioned
	// claimed-fingerprint dump.
	Checker mc.Result
	// Stats sums the shards' frontier-exchange counters.
	Stats Stats
	// PerShard keeps each seated shard's raw report (telemetry; per-shard
	// expansion counts are scheduling-dependent).
	PerShard []ShardReport
	// Recovery is always zero (see RecoveryStats).
	Recovery RecoveryStats
}

// RunRound runs one distributed exhaustive round: split the budget, fan
// out, relay batches until quiescent, then collect and merge reports. A
// shard failure in any phase — a connection error, a Fault or a message
// the phase refuses — ends the round with an error naming the round, the
// shard and the cause.
func (c *Coordinator) RunRound(b mc.Budget, recordStates bool) (*Result, error) {
	c.round++
	began := c.cfg.Now()
	// A bound smaller than the shard count seats only as many shards as it
	// has units; the others sit the round out.
	slots := usableSlots(b, len(c.conns))
	shares := SplitBudget(b, slots)
	for s := range shares {
		if err := c.send(s, RoundStart{Round: c.round, Slots: slots, Budget: shares[s], RecordStates: recordStates}); err != nil {
			return nil, err
		}
	}

	q := newQuiescence(slots)
	err := c.wait(slots, func(s int) bool { return !q.settled[s] }, func(s int, m Msg) error {
		switch m := m.(type) {
		case Batch:
			if m.To >= 0 && m.To < slots && m.From == s {
				q.relay(m.To)
				return c.send(m.To, m)
			}
		case Idle:
			if m.Shard == s && q.idle(s, m.Received) == nil {
				return nil
			}
		}
		return c.refuse(s, m)
	})
	if err != nil {
		return nil, err
	}

	for s := 0; s < slots; s++ {
		if err := c.send(s, RoundEnd{}); err != nil {
			return nil, err
		}
	}
	reports := make([]ShardReport, slots)
	reported := make([]bool, slots)
	err = c.wait(slots, func(s int) bool { return !reported[s] }, func(s int, m Msg) error {
		r, ok := m.(ShardReport)
		if !ok || r.Shard != s || reported[s] {
			return c.refuse(s, m)
		}
		reports[s], reported[s] = r, true
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c.merge(shares[0].Workers, reports, recordStates, began)
}

// fail is the error that ends the round when shard fails of cause: "conn"
// (its connection failed), "fault" (it reported its own error) or
// "protocol" (it sent what the phase refuses).
func (c *Coordinator) fail(shard int, cause string, detail any) error {
	return errorf("round %d: shard %d: %s: %v", c.round, shard, cause, detail)
}

// refuse is the protocol failure of a shard that sent m.
func (c *Coordinator) refuse(shard int, m Msg) error {
	return c.fail(shard, "protocol", fmt.Sprintf("refused %T", m))
}

// send sends m to shard id; a send that fails is the shard's "conn"
// failure.
func (c *Coordinator) send(id int, m Msg) error {
	if err := c.conns[id].Send(m); err != nil {
		return c.fail(id, "conn", err)
	}
	return nil
}

// wait is the one place the coordinator reads its shards. It takes
// arrivals until no seated shard (slot < slots) is pending, and ends the
// round at the first failure under one rule in every phase: a connection
// error is "conn", a Fault is "fault", and a message from a shard the
// round did not seat is "protocol". Every other message goes to step,
// which fails the round by returning an error.
func (c *Coordinator) wait(slots int, pending func(slot int) bool, step func(slot int, m Msg) error) error {
	waiting := func() bool {
		for s := 0; s < slots; s++ {
			if pending(s) {
				return true
			}
		}
		return false
	}
	for waiting() {
		a := c.nextArrival()
		var err error
		switch f, isFault := a.msg.(Fault); {
		case a.err != nil:
			err = c.fail(a.shard, "conn", a.err)
		case isFault:
			err = c.fail(a.shard, "fault", f.Err)
		case a.shard >= slots:
			err = c.refuse(a.shard, a.msg)
		default:
			err = step(a.shard, a.msg)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// merge folds the shard reports into the single result.
func (c *Coordinator) merge(workers int, reports []ShardReport, recordStates bool, began time.Time) (*Result, error) {
	res := &Result{PerShard: reports}
	res.Checker.StopReason = mc.FrontierEmpty
	var claimed, locals []uint64
	for i := range reports {
		r := &reports[i]
		// A state is explored once it is both claimed and expanded. A
		// budget cutoff leaves claimed frontier states unexpanded
		// (Expansions is exact, so the sum stays within Budget.States);
		// a min-depth re-claim expands one claimed state twice. Run to
		// the depth bound, this is the claimed-set size.
		res.Checker.StatesExplored += int(min(r.States, r.Expansions))
		res.Checker.Transitions += int(r.Transitions)
		res.Checker.Unbuilt += int(r.Unbuilt)
		res.Checker.HandlerRuns += int(r.HandlerRuns)
		res.Checker.PeakMemoryBytes += r.PeakBytes
		if int(r.MaxDepth) > res.Checker.MaxDepthReached {
			res.Checker.MaxDepthReached = int(r.MaxDepth)
		}
		// The round stopped for the first bound a shard reports, in slot
		// order; it ran out of states only if every shard did.
		if res.Checker.StopReason == mc.FrontierEmpty {
			res.Checker.StopReason = r.Stop
		}
		res.Stats.add(r.Stats)
		locals = append(locals, r.Locals...)
		claimed = append(claimed, r.Claimed...)
	}
	// Hash ranges partition the space, so claimed sets are disjoint;
	// locals overlap and need deduplication.
	slices.Sort(locals)
	res.Checker.DistinctLocalStates = len(slices.Compact(locals))
	if recordStates {
		slices.Sort(claimed)
		res.Checker.ClaimedStates = claimed
	}
	if res.Checker.StatesExplored > 0 {
		res.Checker.PerStateBytes = float64(res.Checker.PeakMemoryBytes) / float64(res.Checker.StatesExplored)
	}
	res.Checker.Workers = workers
	res.Checker.Elapsed = c.cfg.Now().Sub(began)

	vios, err := c.mergeViolations(reports)
	if err != nil {
		return nil, err
	}
	res.Checker.Violations = vios
	return res, nil
}

// mergeViolations merges the shards' violations by mc's collector rule
// (mc.Classes, keyed by the violated-property set as every shard keys its
// own) and materializes each representative's path, which must reach the
// state the shard reported.
func (c *Coordinator) mergeViolations(reports []ShardReport) ([]mc.Violation, error) {
	var classes mc.Classes[Violation]
	for i := range reports {
		for _, v := range reports[i].Violations {
			classes.Add(strings.Join(v.Props, "|"), int(v.Depth), v.StateHash, v)
		}
	}
	kept := classes.Sorted()
	out := make([]mc.Violation, len(kept))
	var x *mc.Expander // replay workspace
	for i, v := range kept {
		out[i] = mc.Violation{Properties: v.Props, StateHash: v.StateHash, Depth: int(v.Depth)}
		if len(v.Path) == 0 || c.cfg.Search == nil || c.cfg.Root == nil {
			continue
		}
		if x == nil {
			x = c.cfg.Search.NewExpander()
		}
		path, err := c.cfg.Search.ReplayTo(x, c.cfg.Root, v.Path, v.StateHash)
		if err != nil {
			return nil, errorf("materializing violation path: %w", err)
		}
		out[i].Path = path
	}
	return out, nil
}

// usableSlots returns how many of n shards budget b can occupy. A zero
// share would read as *unbounded* (mc.Budget's zero), so a non-zero States
// bound smaller than n occupies only that many slots: every share is then
// at least 1.
func usableSlots(b mc.Budget, n int) int {
	if b.States > 0 && b.States < n {
		return b.States
	}
	return n
}

// SplitBudget divides a round's budget across usableSlots(b, n) shards:
// States splits near-evenly (low shards take the remainder); Depth and Wall
// bound each shard identically; Workers is the per-shard worker count;
// Violations gives every shard the full quota — the merged report
// deduplicates, so a distributed round may record up to n× the quota before
// all shards halt (quota rounds trade exactness for an early stop, as the
// serial engine's do under >1 worker).
func SplitBudget(b mc.Budget, n int) []mc.Budget {
	n = usableSlots(b, n)
	shares := make([]mc.Budget, n)
	for i := range shares {
		s := b
		s.States = splitShare(b.States, i, n)
		shares[i] = s
	}
	return shares
}

func splitShare(total, i, n int) int {
	if i < total%n {
		return total/n + 1
	}
	return total / n
}
