package dist

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"crystalball/internal/mc"
	"crystalball/internal/sm"
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
	// event paths for violations — they arrive as descriptors, from
	// in-process and TCP shards alike — and are the fault-tolerance floor:
	// when every shard has died, the round runs as a one-slot round on an
	// in-process shard built from them (Pipe + RunShard, merged like any
	// other), so it reports what a sharded round reports. Search must then
	// be an Exhaustive configuration, as every shard's is. Without them
	// violations keep a nil path and a zero-survivor round is an error.
	Search *mc.Search
	Root   *mc.GState
	// MaxRetries bounds aborted-attempt retries per round
	// (0 = DefaultMaxRetries, negative = never retry).
	MaxRetries int
	// StallTimeout is the application-level wedge detector: if no protocol
	// message arrives for this long mid-round, every shard that has not
	// yet settled (or reported, or acked the abort) is declared dead and
	// the round is retried on the survivors. It catches peers whose
	// transport stays alive while the protocol loop is stuck — the failure
	// mode the TCP PeerTimeout cannot see. 0 disables it (in-process
	// transports surface real deaths as connection errors already).
	StallTimeout time.Duration
	// After is the injected stall timer (nil = time.After).
	After func(time.Duration) <-chan time.Time
}

// arrival is one message fanned in from a shard connection. conn identifies
// the generation: after a shard rejoins, stale arrivals pumped from its old
// connection no longer match conns[shard] and are discarded.
type arrival struct {
	shard int
	conn  Conn
	msg   Msg
	err   error
}

// rejoinReq is a replacement connection waiting to be adopted.
type rejoinReq struct {
	shard int
	conn  Conn
}

// Coordinator is the hub of a distributed search session: it fans rounds
// out, relays every inter-shard batch (counting credits for the quiescence
// check), and merges shard reports into the one result the controller
// consumes. Methods must be called from a single goroutine.
//
// Fault tolerance: a shard that errors, faults, or stalls mid-round is
// declared dead; the coordinator aborts the round on the survivors
// (RoundAbort / AbortAck barrier), repartitions the hash space and the
// budget over the shards still alive, and retries — up to MaxRetries
// times, degrading all the way to a one-slot in-process round when nobody
// survives. Every death and retry is recorded in Result.Recovery.
type Coordinator struct {
	cfg    CoordinatorConfig
	conns  []Conn
	live   []bool
	inbox  chan arrival
	rejoin chan rejoinReq
	done   chan struct{}
	round  int
}

// NewCoordinator wraps one connection per shard (index = shard id) and
// starts a reader per connection, fanning messages into the coordinator's
// inbox.
func NewCoordinator(conns []Conn, cfg CoordinatorConfig) *Coordinator {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.After == nil {
		cfg.After = time.After
	}
	switch {
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = DefaultMaxRetries
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	}
	c := &Coordinator{
		cfg:    cfg,
		conns:  conns,
		live:   make([]bool, len(conns)),
		inbox:  make(chan arrival, 4*len(conns)+16),
		rejoin: make(chan rejoinReq, len(conns)+4),
		done:   make(chan struct{}),
	}
	for i, conn := range conns {
		c.live[i] = true
		go c.pump(i, conn)
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

// Rejoin hands the coordinator a replacement connection for a dead shard.
// Safe to call from any goroutine (mcheck -listen's accept loop); the
// connection is adopted at the next attempt boundary — never mid-attempt,
// so a rejoining shard cannot disturb a round in flight. Rejoining a shard
// that is still live is refused (the live connection keeps the slot).
func (c *Coordinator) Rejoin(shard int, conn Conn) error {
	if shard < 0 || shard >= len(c.conns) {
		return errorf("rejoin: unknown shard %d", shard)
	}
	select {
	case c.rejoin <- rejoinReq{shard: shard, conn: conn}:
		return nil
	default:
		return errorf("rejoin: queue full")
	}
}

// adoptRejoins folds queued replacement connections in. Called only from
// the round loop between attempts.
func (c *Coordinator) adoptRejoins() {
	for {
		select {
		case r := <-c.rejoin:
			if c.live[r.shard] {
				_ = r.conn.Close()
				continue
			}
			c.conns[r.shard] = r.conn
			c.live[r.shard] = true
			go c.pump(r.shard, r.conn)
		default:
			return
		}
	}
}

// kill declares shard id dead: its connection is closed (stopping its pump)
// and it takes no further part in the session unless it rejoins.
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

// nextArrival blocks for the next fan-in message, bounded by StallTimeout
// when configured. ok=false means the stall timer fired first.
func (c *Coordinator) nextArrival() (arrival, bool) {
	if c.cfg.StallTimeout <= 0 {
		return <-c.inbox, true
	}
	select {
	case a := <-c.inbox:
		return a, true
	case <-c.cfg.After(c.cfg.StallTimeout):
		return arrival{}, false
	}
}

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
// shard dying mid-round (connection error, Fault, or stall) aborts the
// attempt, repartitions over the survivors, and retries; only exhausting
// MaxRetries, losing every shard with no Search and Root configured, or a
// failure of the floor round itself surfaces as an error.
func (c *Coordinator) RunRound(b mc.Budget, recordStates bool) (*Result, error) {
	c.round++
	began := c.cfg.Now()
	var rec RecoveryStats
	for attempt := 1; ; attempt++ {
		c.adoptRejoins()
		assign := c.liveShards()
		if len(assign) == 0 {
			res, err := c.floorRound(b, recordStates, began)
			if err != nil {
				return nil, err
			}
			rec.SerialFallback = true
			res.Recovery = rec
			return res, nil
		}
		// A bound smaller than the live shard count occupies only as many
		// slots as it has units; the other shards sit the round out.
		assign = assign[:usableSlots(b, len(assign))]
		res, deaths, err := c.runAttempt(assign, b, recordStates, began, attempt)
		if err != nil {
			return nil, err
		}
		if deaths == nil {
			rec.FinalShards = len(assign)
			res.Recovery = rec
			return res, nil
		}
		rec.Deaths = append(rec.Deaths, deaths...)
		rec.Deaths = append(rec.Deaths, c.abortAttempt(assign, attempt)...)
		if rec.Retries >= c.cfg.MaxRetries {
			return nil, errorf("round %d: attempt %d lost %s and the retry budget (%d) is exhausted",
				c.round, attempt, deathSummary(deaths), c.cfg.MaxRetries)
		}
		rec.Retries++
	}
}

// runAttempt fans one round attempt out over assign (slot i → connection
// assign[i]) and relays until quiescent, then collects reports and merges.
// A non-nil deaths return means the attempt failed: the listed shards were
// declared dead and the caller must abort the survivors and retry. err is
// reserved for coordinator-side failures no retry can fix.
func (c *Coordinator) runAttempt(assign []int, b mc.Budget, recordStates bool, began time.Time, attempt int) (res *Result, deaths []ShardDeath, err error) {
	slots := len(assign)
	slotOf := make(map[int]int, slots)
	for s, id := range assign {
		slotOf[id] = s
	}
	shares := SplitBudget(b, slots)
	die := func(id int, cause string) {
		c.kill(id)
		deaths = append(deaths, ShardDeath{Shard: id, Round: c.round, Attempt: attempt, Cause: cause})
	}

	for s, id := range assign {
		start := RoundStart{Round: c.round, Slot: s, Slots: slots, Budget: shares[s], RecordStates: recordStates}
		if err := c.conns[id].Send(start); err != nil {
			die(id, "conn")
			return nil, deaths, nil
		}
	}

	q := newQuiescence(slots)
	for !q.quiescent() {
		a, ok := c.nextArrival()
		if !ok {
			for s, id := range assign {
				if c.live[id] && !q.settled[s] {
					die(id, "stall")
				}
			}
			return nil, deaths, nil
		}
		id := a.shard
		if !c.live[id] || a.conn != c.conns[id] {
			continue // stale arrival from a dead or replaced connection
		}
		if a.err != nil {
			die(id, "conn")
			return nil, deaths, nil
		}
		switch m := a.msg.(type) {
		case Batch:
			if m.To < 0 || m.To >= slots || slotOf[id] != m.From {
				die(id, "protocol")
				return nil, deaths, nil
			}
			q.relay(m.To)
			if err := c.conns[assign[m.To]].Send(m); err != nil {
				die(assign[m.To], "conn")
				return nil, deaths, nil
			}
		case Idle:
			if m.Shard != slotOf[id] {
				die(id, "protocol")
				return nil, deaths, nil
			}
			if err := q.idle(m.Shard, m.Received); err != nil {
				die(id, "protocol")
				return nil, deaths, nil
			}
		case Fault:
			die(id, "fault")
			return nil, deaths, nil
		default:
			die(id, "protocol")
			return nil, deaths, nil
		}
	}

	for _, id := range assign {
		if err := c.conns[id].Send(RoundEnd{}); err != nil {
			die(id, "conn")
			return nil, deaths, nil
		}
	}
	reports := make([]ShardReport, slots)
	reported := make([]bool, slots)
	for got := 0; got < slots; {
		a, ok := c.nextArrival()
		if !ok {
			for s, id := range assign {
				if c.live[id] && !reported[s] {
					die(id, "stall")
				}
			}
			return nil, deaths, nil
		}
		id := a.shard
		if !c.live[id] || a.conn != c.conns[id] {
			continue
		}
		if a.err != nil {
			die(id, "conn")
			return nil, deaths, nil
		}
		switch m := a.msg.(type) {
		case ShardReport:
			if m.Shard != slotOf[id] || reported[m.Shard] {
				die(id, "protocol")
				return nil, deaths, nil
			}
			reports[m.Shard] = m
			reported[m.Shard] = true
			got++
		case Fault:
			die(id, "fault")
			return nil, deaths, nil
		default:
			die(id, "protocol")
			return nil, deaths, nil
		}
	}
	res, err = c.merge(shares[0].Workers, reports, began)
	return res, nil, err
}

// abortAttempt tears a failed attempt down on the survivors of assign: each
// gets RoundAbort and must answer AbortAck. The ack is a FIFO barrier — the
// coordinator relays nothing during the abort, so once a shard's ack is in,
// no stale batch or idle from the aborted round can follow on that
// connection; anything arriving before the ack is discarded here. Survivors
// that error, fault, or stall during the abort die too (the retry loop will
// simply repartition over fewer shards). Returns the deaths it caused.
func (c *Coordinator) abortAttempt(assign []int, attempt int) (deaths []ShardDeath) {
	die := func(id int, cause string) {
		c.kill(id)
		deaths = append(deaths, ShardDeath{Shard: id, Round: c.round, Attempt: attempt, Cause: cause})
	}
	waiting := make(map[int]bool, len(assign))
	for _, id := range assign {
		if !c.live[id] {
			continue
		}
		if err := c.conns[id].Send(RoundAbort{Round: c.round}); err != nil {
			die(id, "conn")
			continue
		}
		waiting[id] = true
	}
	for len(waiting) > 0 {
		a, ok := c.nextArrival()
		if !ok {
			ids := make([]int, 0, len(waiting))
			for id := range waiting {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			for _, id := range ids {
				die(id, "stall")
			}
			return deaths
		}
		id := a.shard
		if !c.live[id] || a.conn != c.conns[id] || !waiting[id] {
			continue
		}
		if a.err != nil {
			die(id, "conn")
			delete(waiting, id)
			continue
		}
		switch m := a.msg.(type) {
		case AbortAck:
			if m.Shard != id || m.Round != c.round {
				die(id, "protocol")
			}
			delete(waiting, id)
		case Fault:
			die(id, "fault")
			delete(waiting, id)
		case Batch, Idle, ShardReport:
			// In-flight traffic from the aborted round racing the abort;
			// FIFO order guarantees it predates the ack. Discard.
		default:
			die(id, "protocol")
			delete(waiting, id)
		}
	}
	return deaths
}

// floorRound is the degradation floor: every shard is gone, so the round
// runs as one in-process slot — a Pipe whose far side serves RunShard over
// cfg.Search and cfg.Root — through the same protocol and merge as any
// other round, so it reports what a sharded round reports. It gets no
// retries: a fault inside it is the round's error, never a second floor.
func (c *Coordinator) floorRound(b mc.Budget, recordStates bool, began time.Time) (*Result, error) {
	if c.cfg.Search == nil || c.cfg.Root == nil {
		return nil, errorf("round %d: no live shards and no local engine to fall back to", c.round)
	}
	hub, side := Pipe()
	done := make(chan error, 1)
	go func() {
		err := RunShard(side, ShardConfig{Index: 0, Shards: 1, Search: c.cfg.Search.Config(), Root: c.cfg.Root})
		side.Close() // a shard that fails to start must not leave the hub waiting
		done <- err
	}()
	floor := NewCoordinator([]Conn{hub}, CoordinatorConfig{
		Now:        c.cfg.Now,
		Search:     c.cfg.Search,
		Root:       c.cfg.Root,
		MaxRetries: -1,
	})
	floor.round = c.round - 1 // its RunRound numbers the round as ours
	res, err := floor.RunRound(b, recordStates)
	floor.Shutdown()
	if serr := <-done; err != nil {
		if serr != nil && !errors.Is(serr, ErrClosed) {
			err = fmt.Errorf("%w: floor shard: %v", err, serr)
		}
		return nil, err
	}
	res.Checker.Elapsed = c.cfg.Now().Sub(began)
	return res, nil
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
func (c *Coordinator) merge(workers int, reports []ShardReport, began time.Time) (*Result, error) {
	res := &Result{PerShard: reports}
	res.Checker.StopReason = mc.FrontierEmpty
	var claimed, locals []uint64
	recorded := false
	for i := range reports {
		r := &reports[i]
		// A state is explored once it is both claimed and expanded. A
		// budget cutoff leaves claimed frontier states unexpanded
		// (Expansions is exact, so the sum stays within Budget.States);
		// a min-depth re-claim expands one claimed state twice. Run to
		// the depth bound, this is the claimed-set size.
		res.Checker.StatesExplored += int(min(r.States, r.Expansions))
		res.Checker.Transitions += int(r.Transitions)
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
		if r.Claimed != nil {
			recorded = true
			claimed = append(claimed, r.Claimed...)
		}
	}
	// Hash ranges partition the space, so claimed sets are disjoint;
	// locals overlap and need deduplication.
	locals = sortDedup(locals)
	res.Checker.DistinctLocalStates = len(locals)
	if recorded {
		sort.Slice(claimed, func(i, j int) bool { return claimed[i] < claimed[j] })
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

// mergeViolations deduplicates across shards by violated-property set,
// keeping the minimal (depth, state hash) representative — the same rule
// each shard applies locally — and materializes paths.
func (c *Coordinator) mergeViolations(reports []ShardReport) ([]mc.Violation, error) {
	bySig := make(map[string]int)
	var kept []Violation
	for i := range reports {
		for _, v := range reports[i].Violations {
			sig := strings.Join(v.Props, "|")
			j, seen := bySig[sig]
			if !seen {
				bySig[sig] = len(kept)
				kept = append(kept, v)
				continue
			}
			old := kept[j]
			if v.Depth < old.Depth || (v.Depth == old.Depth && v.StateHash < old.StateHash) {
				kept[j] = v
			}
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Depth != kept[j].Depth {
			return kept[i].Depth < kept[j].Depth
		}
		if kept[i].StateHash != kept[j].StateHash {
			return kept[i].StateHash < kept[j].StateHash
		}
		return strings.Join(kept[i].Props, "|") < strings.Join(kept[j].Props, "|")
	})
	out := make([]mc.Violation, len(kept))
	var x *mc.Expander // replay workspace
	for i, v := range kept {
		var path []sm.Event
		if len(v.Path) > 0 && c.cfg.Search != nil && c.cfg.Root != nil {
			if x == nil {
				x = c.cfg.Search.NewExpander()
			}
			events, g, err := c.cfg.Search.ReplayKeys(x, c.cfg.Root, v.Path, true)
			if err != nil {
				return nil, errorf("materializing violation path: %w", err)
			}
			if g.Hash() != v.StateHash {
				return nil, errorf("violation path replays to state hash %#x, shard reported %#x — diverged configurations?", g.Hash(), v.StateHash)
			}
			path = events
		}
		out[i] = mc.Violation{
			Properties: v.Props,
			Path:       path,
			StateHash:  v.StateHash,
			Depth:      int(v.Depth),
		}
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
	if total == 0 {
		return 0
	}
	q, r := total/n, total%n
	if i < r {
		return q + 1
	}
	return q
}

// sortDedup sorts hs and removes duplicates in place.
func sortDedup(hs []uint64) []uint64 {
	if len(hs) == 0 {
		return hs
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	out := hs[:1]
	for _, h := range hs[1:] {
		if h != out[len(out)-1] {
			out = append(out, h)
		}
	}
	return out
}
