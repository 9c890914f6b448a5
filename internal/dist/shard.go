package dist

import "crystalball/internal/mc"

// ShardConfig parameterises one shard of an n-way distributed search.
type ShardConfig struct {
	// Index and Shards place the shard: it is connection Index of the
	// coordinator's Shards. A round that seats Slots of them (RoundStart)
	// gives it mc.ShardRange(Index, Slots).
	Index  int
	Shards int
	// Search is the scenario's checker configuration. Mode must be
	// Exhaustive and Reduce is forced off (package doc: both other rules
	// need claims that cross shards). Every shard of a run must be given
	// the same configuration — same seed, same fault toggles — or the
	// partitioned searches diverge.
	Search mc.Config
	// Root is the shared start state.
	Root *mc.GState
}

// shard is one partition's protocol state: this round's range of the search
// core (mc.Engine does the searching), the per-owner outgoing batches, and
// the round bookkeeping. Everything is touched only from the shard's main
// goroutine.
type shard struct {
	cfg    ShardConfig
	slots  int // this round's partition width
	rng    mc.HashRange
	search *mc.Search
	conn   Conn

	// eng is the round's engine over rng (nil outside a round).
	eng *mc.Engine
	// fwd is the sender-side forward cache: fingerprint → minimal depth
	// already forwarded, so a successor is re-forwarded only when
	// strictly shallower.
	fwd map[uint64]int32
	out [][]ForwardState

	received int64
	record   bool
	st       Stats
}

func newShard(conn Conn, cfg ShardConfig) (*shard, error) {
	if cfg.Shards <= 0 || cfg.Index < 0 || cfg.Index >= cfg.Shards {
		return nil, errorf("bad shard index %d of %d", cfg.Index, cfg.Shards)
	}
	if cfg.Search.Mode != mc.Exhaustive {
		return nil, errorf("distributed search supports Exhaustive mode only")
	}
	if cfg.Root == nil {
		return nil, errorf("shard %d: nil root state", cfg.Index)
	}
	cfg.Search.Reduce = false
	return &shard{
		cfg:    cfg,
		search: mc.NewSearch(cfg.Search),
		conn:   conn,
	}, nil
}

// RunShard serves one shard over conn until Shutdown or a connection
// error. It is the body of every shard goroutine (dist.Local).
func RunShard(conn Conn, cfg ShardConfig) error {
	sh, err := newShard(conn, cfg)
	if err != nil {
		return err
	}
	return sh.serve()
}

func (sh *shard) serve() error {
	var pending Msg
	for {
		m := pending
		pending = nil
		if m == nil {
			var err error
			m, err = sh.conn.Recv()
			if err != nil {
				return err
			}
		}
		switch v := m.(type) {
		case RoundStart:
			if err := sh.startRound(v); err != nil {
				return sh.fault(err)
			}
			if err := sh.drainAndIdle(&pending); err != nil {
				return sh.fault(err)
			}
		case Batch:
			if err := sh.ingest(v); err != nil {
				return sh.fault(err)
			}
			if err := sh.pollBatches(&pending); err != nil {
				return sh.fault(err)
			}
			if err := sh.drainAndIdle(&pending); err != nil {
				return sh.fault(err)
			}
		case RoundEnd:
			if sh.eng == nil {
				return sh.fault(errorf("shard %d: round end outside a round", sh.cfg.Index))
			}
			if err := sh.conn.Send(sh.report()); err != nil {
				return err
			}
			sh.endRound()
		case Shutdown:
			return nil
		default:
			return sh.fault(errorf("shard %d: unexpected %T", sh.cfg.Index, m))
		}
	}
}

// fault surfaces a shard-side fatal error to the coordinator and returns it.
func (sh *shard) fault(err error) error {
	// Best effort: the connection itself may be the problem.
	_ = sh.conn.Send(Fault{Shard: sh.cfg.Index, Err: err.Error()})
	return err
}

// startRound resets per-round state, takes this round's range, and seeds
// the root if the range owns its fingerprint.
func (sh *shard) startRound(rs RoundStart) error {
	sh.slots = rs.Slots
	if sh.cfg.Index >= sh.slots {
		return errorf("shard %d: round start seats %d shards", sh.cfg.Index, rs.Slots)
	}
	sh.rng = mc.ShardRange(sh.cfg.Index, sh.slots)
	sh.eng = sh.search.NewEngine(rs.Budget, sh.rng, sh.route)
	sh.fwd = make(map[uint64]int32)
	sh.out = make([][]ForwardState, sh.slots)
	sh.received = 0
	sh.record = rs.RecordStates
	sh.st = Stats{}

	if sh.rng.Contains(sh.cfg.Root.Hash()) {
		sh.eng.Inject(mc.Forward{State: sh.cfg.Root})
	}
	return nil
}

// endRound drops the round's engine and tables so their memory is
// reclaimable between rounds.
func (sh *shard) endRound() {
	sh.eng, sh.fwd, sh.out = nil, nil, nil
}

// drainAndIdle runs the engine to exhaustion (or budget), flushes every
// outgoing batch, and reports idle to the coordinator. Between depth
// buckets it flushes partial batches and folds queued arrivals: flushing
// at level granularity hands peers their next wave while this shard keeps
// expanding (the overlap the scaling claim rests on), and claiming a
// shallow re-arrival now costs a map hit where the same state claimed
// after the drain would re-expand its whole subtree.
func (sh *shard) drainAndIdle(pending *Msg) error {
	err := sh.eng.Drain(func() error {
		if err := sh.flushAll(); err != nil {
			return err
		}
		if *pending != nil {
			return nil
		}
		return sh.pollBatches(pending)
	})
	if err != nil {
		return err
	}
	if err := sh.flushAll(); err != nil {
		return err
	}
	return sh.conn.Send(Idle{Shard: sh.cfg.Index, Received: sh.received})
}

// pollBatches ingests every already-queued batch without blocking. A
// non-batch message is stashed in *pending for the serve loop (the
// coordinator cannot legally send one while this shard is mid-drain, but
// the serve loop is where that protocol error is diagnosed).
func (sh *shard) pollBatches(pending *Msg) error {
	for {
		m, ok, err := sh.conn.TryRecv()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		b, isBatch := m.(Batch)
		if !isBatch {
			*pending = m
			return nil
		}
		if err := sh.ingest(b); err != nil {
			return err
		}
	}
}

// route is the engine's sink: a proposed successor this shard's range does
// not own is batched for its owner.
func (sh *shard) route(child mc.Forward) error {
	h, depth := child.State.Hash(), int32(child.Depth)
	if prior, ok := sh.fwd[h]; ok && prior <= depth {
		return nil
	}
	sh.fwd[h] = depth
	fs := ForwardState{Hash: h, Depth: depth, fwd: child}
	owner := mc.ShardOwner(h, sh.slots)
	if sh.out[owner] == nil {
		// A batch is handed to the connection whole, so each one is a new
		// slice: sized once, not regrown by doubling up to the threshold.
		sh.out[owner] = make([]ForwardState, 0, DefaultBatchSize)
	}
	sh.out[owner] = append(sh.out[owner], fs)
	sh.st.StatesForwarded++
	if len(sh.out[owner]) >= DefaultBatchSize {
		return sh.flush(owner)
	}
	return nil
}

func (sh *shard) flush(owner int) error {
	states := sh.out[owner]
	if len(states) == 0 {
		return nil
	}
	sh.out[owner] = nil
	sh.st.BatchFlushes++
	return sh.conn.Send(Batch{From: sh.cfg.Index, To: owner, States: states})
}

func (sh *shard) flushAll() error {
	for owner := range sh.out {
		if err := sh.flush(owner); err != nil {
			return err
		}
	}
	return nil
}

// ingest claims the states of one arriving batch. An exhausted shard still
// counts the batch (the quiescence protocol needs the credit repaid) but
// drops its states.
func (sh *shard) ingest(b Batch) error {
	if sh.eng == nil {
		return errorf("shard %d: batch outside a round", sh.cfg.Index)
	}
	sh.received++
	if b.To != sh.cfg.Index {
		return errorf("shard %d: misrouted batch for shard %d", sh.cfg.Index, b.To)
	}
	sh.st.StatesReceived += int64(len(b.States))
	if sh.eng.Exhausted() {
		return nil
	}
	for i := range b.States {
		fs := &b.States[i]
		if !sh.rng.Contains(fs.Hash) {
			return errorf("shard %d: received fingerprint %#x outside owned range", sh.cfg.Index, fs.Hash)
		}
		if sh.eng.Seen(fs.Hash, int(fs.Depth)) {
			sh.st.RemoteDeduped++
			continue
		}
		if fs.fwd.State == nil {
			return errorf("shard %d: forwarded state %#x has no state and no path", sh.cfg.Index, fs.Hash)
		}
		sh.eng.Inject(fs.fwd)
	}
	return nil
}

// report assembles this shard's round report. Violation paths travel as
// descriptors: the coordinator replays them from the root, which is how a
// tree's path becomes events anywhere.
func (sh *shard) report() ShardReport {
	res := sh.eng.Result()
	findings := sh.eng.Findings()
	r := ShardReport{
		Shard:       sh.cfg.Index,
		States:      int64(sh.eng.Claimed()),
		Expansions:  int64(res.StatesExplored),
		Transitions: int64(res.Transitions),
		Unbuilt:     int64(res.Unbuilt),
		HandlerRuns: int64(res.HandlerRuns),
		MaxDepth:    int32(res.MaxDepthReached),
		Stop:        res.StopReason,
		PeakBytes:   res.PeakMemoryBytes,
		Violations:  make([]Violation, len(findings)),
		Stats:       sh.st,
		Locals:      sh.eng.LocalStates(),
	}
	for i, f := range findings {
		r.Violations[i] = Violation{
			Props:     f.Props,
			Depth:     int32(f.Ref.Depth()),
			StateHash: f.Ref.Hash(),
			Path:      f.Ref.Keys(),
		}
	}
	if sh.record {
		r.Claimed = sh.eng.ClaimedStates()
	}
	return r
}
