package dist

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"crystalball/internal/mc"
)

// DefaultMaxRetries bounds how many times a round is aborted and retried on
// surviving shards before the coordinator gives up.
const DefaultMaxRetries = 2

// CoordinatorConfig parameterises the hub.
type CoordinatorConfig struct {
	// Now is the clock Result.Checker.Elapsed reads (nil = time.Now) —
	// injected so round timing is testable like the engine's.
	Now func() time.Time
	// Search and Root, when set, let the coordinator materialize real
	// event paths for violations — they arrive as descriptors — and are
	// the fault-tolerance floor: when every shard has died, the round's
	// last attempt runs on one in-process shard built from them (Pipe +
	// RunShard), adopted as shard 0 for that attempt only, so it reports
	// what a sharded round reports. Search must then be an Exhaustive
	// configuration, as every shard's is. Without them violations keep a
	// nil path and a zero-survivor round is an error.
	Search *mc.Search
	Root   *mc.GState
}

// arrival is one message fanned in from a shard connection. conn identifies
// the generation: once the floor takes slot 0 over, stale arrivals pumped
// from the dead shard 0's connection no longer match conns[0] and are
// discarded.
type arrival struct {
	shard int
	conn  Conn
	msg   Msg
	err   error
}

// Coordinator is the hub of a distributed search session: it fans rounds
// out, relays every inter-shard batch (counting credits for the quiescence
// check), and merges shard reports into the one result the controller
// consumes. Methods must be called from a single goroutine.
//
// Fault tolerance: a shard that errors, faults or breaks the protocol
// mid-round is declared dead; the coordinator aborts the round on the
// survivors (RoundAbort / AbortAck barrier), repartitions the hash space and
// the budget over the shards still alive, and retries — up to
// DefaultMaxRetries times, degrading all the way to a one-slot in-process
// round when nobody survives. Every death and retry is recorded in
// Result.Recovery.
type Coordinator struct {
	cfg   CoordinatorConfig
	conns []Conn
	live  []bool
	inbox chan arrival
	done  chan struct{}
	round int
}

// NewCoordinator wraps one connection per shard (index = shard id; at
// least one, as the floor borrows slot 0) and starts a reader per
// connection, fanning messages into the coordinator's inbox.
func NewCoordinator(conns []Conn, cfg CoordinatorConfig) *Coordinator {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Coordinator{
		cfg:   cfg,
		conns: conns,
		live:  make([]bool, len(conns)),
		inbox: make(chan arrival, 4*len(conns)+16),
		done:  make(chan struct{}),
	}
	for i, conn := range conns {
		c.adopt(i, conn)
	}
	return c
}

func (c *Coordinator) pump(shard int, conn Conn) {
	for {
		m, err := conn.Recv()
		select {
		case c.inbox <- arrival{shard: shard, conn: conn, msg: m, err: err}:
		case <-c.done:
			return
		}
		if err != nil {
			return
		}
	}
}

// adopt makes conn shard id's live connection and starts its reader.
func (c *Coordinator) adopt(id int, conn Conn) {
	c.conns[id] = conn
	c.live[id] = true
	go c.pump(id, conn)
}

// adoptFloor adopts, as shard 0, the degradation floor: an in-process shard
// owning the whole space — a Pipe whose far side serves RunShard over
// cfg.Search and cfg.Root — and returns the channel its exit error arrives
// on. The caller drops it (kill) after the round.
func (c *Coordinator) adoptFloor() <-chan error {
	hub, side := Pipe()
	done := make(chan error, 1)
	go func() {
		err := RunShard(side, ShardConfig{Index: 0, Shards: 1, Search: c.cfg.Search.Config(), Root: c.cfg.Root})
		side.Close() // a shard that fails to start must not leave the hub waiting
		done <- err
	}()
	c.adopt(0, hub)
	return done
}

// kill declares shard id dead: its connection is closed (stopping its pump)
// and it takes no further part in the session.
func (c *Coordinator) kill(id int) {
	if !c.live[id] {
		return
	}
	c.live[id] = false
	_ = c.conns[id].Close()
}

// liveShards returns the live connection identities in ascending order —
// the next attempt's slot → identity assignment.
func (c *Coordinator) liveShards() []int {
	ids := make([]int, 0, len(c.conns))
	for i, l := range c.live {
		if l {
			ids = append(ids, i)
		}
	}
	return ids
}

// nextArrival blocks for the next fan-in message.
func (c *Coordinator) nextArrival() arrival { return <-c.inbox }

// Shutdown ends the session: every live shard is asked to exit and all
// connections are closed. Call exactly once, after the last round.
func (c *Coordinator) Shutdown() {
	for i, conn := range c.conns {
		if c.live[i] {
			_ = conn.Send(Shutdown{})
		}
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
	// PerShard keeps each slot's raw report (telemetry; per-shard
	// expansion counts are scheduling-dependent).
	PerShard []ShardReport
	// Recovery is the round's fault-tolerance telemetry: deaths detected,
	// retries spent, and what the round finally ran on.
	Recovery RecoveryStats
}

// RunRound runs one distributed exhaustive round: split the budget, fan
// out, relay batches until quiescent, then collect and merge reports. A
// shard dying mid-round (connection error, Fault or protocol breach) aborts
// the attempt, repartitions over the survivors, and retries. When none
// survives, the round's last attempt runs on the floor (adoptFloor) through
// the same loop, without retries. Only exhausting DefaultMaxRetries,
// losing every shard with no Search and Root configured, or a failure of
// the floor itself surfaces as an error.
func (c *Coordinator) RunRound(b mc.Budget, recordStates bool) (*Result, error) {
	c.round++
	began := c.cfg.Now()
	var rec RecoveryStats
	for n := 1; ; n++ {
		at := &attempt{n: n, assign: c.liveShards()}
		var floor <-chan error
		if len(at.assign) == 0 {
			if c.cfg.Search == nil || c.cfg.Root == nil {
				return nil, errorf("round %d: no live shards and no local engine to fall back to", c.round)
			}
			floor = c.adoptFloor()
			at.assign = []int{0}
		}
		// A bound smaller than the live shard count occupies only as many
		// slots as it has units; the other shards sit the round out.
		at.assign = at.assign[:usableSlots(b, len(at.assign))]
		res, err := c.runAttempt(at, b, recordStates, began)
		if floor != nil {
			c.kill(0)
			if serr := <-floor; err == nil && len(at.deaths) > 0 {
				err = errorf("round %d: the floor lost %s: floor shard: %v", c.round, deathSummary(at.deaths), serr)
			}
			rec.SerialFallback = true
		}
		if err != nil {
			return nil, err
		}
		if len(at.deaths) == 0 {
			if floor == nil {
				rec.FinalShards = len(at.assign)
			}
			res.Recovery = rec
			return res, nil
		}
		lost := at.deaths
		c.abort(at)
		rec.Deaths = append(rec.Deaths, at.deaths...)
		if rec.Retries >= DefaultMaxRetries {
			return nil, errorf("round %d: attempt %d lost %s and the retry budget (%d) is exhausted",
				c.round, n, deathSummary(lost), DefaultMaxRetries)
		}
		rec.Retries++
	}
}

// attempt is one try at a round: slot s runs on connection assign[s].
type attempt struct {
	n      int // 1-based within the round
	assign []int
	deaths []ShardDeath
}

// slot returns the slot shard id holds in the attempt, or -1.
func (at *attempt) slot(id int) int {
	for s, a := range at.assign {
		if a == id {
			return s
		}
	}
	return -1
}

// die declares shard id dead of cause in attempt at.
func (c *Coordinator) die(at *attempt, id int, cause string) {
	c.kill(id)
	at.deaths = append(at.deaths, ShardDeath{Shard: id, Round: c.round, Attempt: at.n, Cause: cause})
}

// send sends m to shard id; a shard that cannot be sent to dies of "conn".
func (c *Coordinator) send(at *attempt, id int, m Msg) bool {
	if err := c.conns[id].Send(m); err != nil {
		c.die(at, id, "conn")
		return false
	}
	return true
}

// wait is the one place the coordinator reads its shards. It takes arrivals
// until no live slot of at is pending or a shard dies, and reports whether
// it ended without a death. Arrivals from dead or replaced connections are
// dropped; for the rest one death rule holds in every phase: a connection
// error kills the sender of "conn", a Fault of "fault", and a message from
// a shard outside the attempt or one step refuses of "protocol".
func (c *Coordinator) wait(at *attempt, pending func(slot int) bool, step func(slot int, m Msg) bool) bool {
	waiting := func() bool {
		for s, id := range at.assign {
			if c.live[id] && pending(s) {
				return true
			}
		}
		return false
	}
	for dead := len(at.deaths); waiting(); {
		a := c.nextArrival()
		if id := a.shard; c.live[id] && a.conn == c.conns[id] {
			switch s := at.slot(id); {
			case a.err != nil:
				c.die(at, id, "conn")
			case a.msg.kind() == kindFault:
				c.die(at, id, "fault")
			case s < 0 || !step(s, a.msg):
				c.die(at, id, "protocol")
			}
		}
		if len(at.deaths) > dead {
			return false
		}
	}
	return true
}

// runAttempt fans one round attempt out over at.assign and relays until
// quiescent, then collects reports and merges. Deaths are recorded on at;
// an attempt with deaths returns a nil result, and the caller must abort
// the survivors and retry. err is reserved for coordinator-side failures
// no retry can fix.
func (c *Coordinator) runAttempt(at *attempt, b mc.Budget, recordStates bool, began time.Time) (*Result, error) {
	slots := len(at.assign)
	shares := SplitBudget(b, slots)
	for s, id := range at.assign {
		if !c.send(at, id, RoundStart{Round: c.round, Slot: s, Slots: slots, Budget: shares[s], RecordStates: recordStates}) {
			return nil, nil
		}
	}

	q := newQuiescence(slots)
	if !c.wait(at, func(s int) bool { return !q.settled[s] }, func(s int, m Msg) bool {
		switch m := m.(type) {
		case Batch:
			if m.To < 0 || m.To >= slots || m.From != s {
				return false
			}
			q.relay(m.To)
			c.send(at, at.assign[m.To], m)
			return true
		case Idle:
			return m.Shard == s && q.idle(s, m.Received) == nil
		}
		return false
	}) {
		return nil, nil
	}

	for _, id := range at.assign {
		if !c.send(at, id, RoundEnd{}) {
			return nil, nil
		}
	}
	reports := make([]ShardReport, slots)
	reported := make([]bool, slots)
	if !c.wait(at, func(s int) bool { return !reported[s] }, func(s int, m Msg) bool {
		r, ok := m.(ShardReport)
		if !ok || r.Shard != s || reported[s] {
			return false
		}
		reports[s], reported[s] = r, true
		return true
	}) {
		return nil, nil
	}
	return c.merge(shares[0].Workers, reports, recordStates, began)
}

// abort tears a failed attempt down on its survivors: each gets RoundAbort
// and must answer AbortAck. The ack is a FIFO barrier — the coordinator
// relays nothing during the abort, so once a shard's ack is in, no stale
// batch, idle or report from the aborted round can follow on that
// connection; anything arriving before the ack is discarded. A survivor
// that dies meanwhile is one more death of the attempt, and the abort goes
// on waiting for the rest.
func (c *Coordinator) abort(at *attempt) {
	for _, id := range at.assign {
		if c.live[id] {
			c.send(at, id, RoundAbort{Round: c.round})
		}
	}
	acked := make([]bool, len(at.assign))
	// A death ends a wait; the abort waits on for the others.
	for !c.wait(at, func(s int) bool { return !acked[s] }, func(s int, m Msg) bool {
		switch m := m.(type) {
		case AbortAck:
			acked[s] = true
			return m.Shard == at.assign[s] && m.Round == c.round
		case Batch, Idle, ShardReport:
			return true
		}
		return false
	}) {
	}
}

// deathSummary renders an attempt's deaths for error text.
func deathSummary(deaths []ShardDeath) string {
	parts := make([]string, len(deaths))
	for i, d := range deaths {
		parts[i] = fmt.Sprintf("%d (%s)", d.Shard, d.Cause)
	}
	return "shard(s) " + strings.Join(parts, ", ")
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
