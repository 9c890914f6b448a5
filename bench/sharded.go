package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"crystalball/internal/dist"
	"crystalball/internal/mc"
)

// timedConn is the harness's dist.Conn wrapper: it records one span per
// Send and per blocking Recv, so transport cost and the time a shard waits
// for work are measured from outside the package. TryRecv never blocks and
// is passed through.
type timedConn struct {
	dist.Conn
	tr     *tracer
	parent int
	pass   int
}

func (c *timedConn) Send(m dist.Msg) error {
	id := c.tr.start("dist.Conn.Send", c.parent, c.pass)
	err := c.Conn.Send(m)
	c.tr.end(id, nil)
	return err
}

func (c *timedConn) Recv() (dist.Msg, error) {
	id := c.tr.start("dist.Conn.Recv", c.parent, c.pass)
	m, err := c.Conn.Recv()
	c.tr.end(id, nil)
	return m, err
}

// shardedInstance runs the workload's search through dist, assembled from
// Pipe, RunShard and NewCoordinator exactly as dist.Local assembles them
// (the harness needs the seam between them to time the connections), and
// checks every pass against one serial run of the same configuration.
type shardedInstance struct {
	in       *searchInput
	serial   *mc.Result
	serialNS int64
}

// prepare runs the serial reference once: the same configuration with the
// reduction off, because shard engines force it off. Its wall is the base of
// dist.speedup_vs_serial.
func (sh *shardedInstance) prepare(tr *tracer) error {
	cfg := sh.in.cfg
	cfg.Reduce = false
	id := tr.start("dist.serial_reference", 0, setupPass)
	start := time.Now()
	sh.serial = mc.NewSearch(cfg).Run(sh.in.start)
	sh.serialNS = time.Since(start).Nanoseconds()
	tr.end(id, searchCounts(sh.serial))
	return sh.in.stoppedAtBound(sh.serial)
}

func (sh *shardedInstance) run(tr *tracer, parent, pass int) (*passRecord, error) {
	session := tr.start("dist.session", parent, pass)
	probe := mc.NewSearch(sh.in.cfg)
	budget := probe.Config().Budget

	hubConns := make([]dist.Conn, shardCount)
	errs := make([]error, shardCount)
	var wg sync.WaitGroup
	for i := 0; i < shardCount; i++ {
		hub, shardSide := dist.Pipe()
		hubConns[i] = hub
		wg.Add(1)
		go func(i int, conn dist.Conn) {
			defer wg.Done()
			id := tr.start("dist.RunShard", session, pass)
			if tr != nil {
				conn = &timedConn{Conn: conn, tr: tr, parent: id, pass: pass}
			}
			errs[i] = dist.RunShard(conn, dist.ShardConfig{
				Index:  i,
				Shards: shardCount,
				Search: sh.in.cfg,
				Root:   sh.in.start,
			})
			tr.end(id, nil)
		}(i, shardSide)
	}

	id := tr.start("dist.NewCoordinator", session, pass)
	coord := dist.NewCoordinator(hubConns, dist.CoordinatorConfig{
		Now:    probe.Config().Now,
		Search: probe,
		Root:   sh.in.start,
	})
	tr.end(id, nil)
	round := tr.start("dist.RunRound", session, pass)
	res, err := coord.RunRound(budget, false)
	tr.end(round, nil)
	coord.Shutdown()
	wg.Wait()
	if err != nil {
		tr.end(session, nil)
		return nil, fmt.Errorf("sharded round: %w", err)
	}
	for i, serr := range errs {
		if serr != nil && !errors.Is(serr, dist.ErrClosed) {
			tr.end(session, nil)
			return nil, fmt.Errorf("shard %d: %w", i, serr)
		}
	}

	counts := searchCounts(&res.Checker)
	counts["forwarded"] = float64(res.Stats.StatesForwarded)
	counts["received"] = float64(res.Stats.StatesReceived)
	counts["remote_deduped"] = float64(res.Stats.RemoteDeduped)
	counts["batch_flushes"] = float64(res.Stats.BatchFlushes)
	counts["retries"] = float64(res.Recovery.Retries)
	if sh.serial != nil { // the cold pass runs before the reference exists
		counts["serial_transitions"] = float64(sh.serial.Transitions)
		counts["serial_ns"] = float64(sh.serialNS)
	}
	most, least := int64(0), int64(-1)
	for _, r := range res.PerShard {
		if r.States > most {
			most = r.States
		}
		if least < 0 || r.States < least {
			least = r.States
		}
	}
	counts["shard_states_max"], counts["shard_states_min"] = float64(most), float64(least)
	tr.end(session, counts)

	return &passRecord{
		states:      int64(res.Checker.StatesExplored),
		transitions: int64(res.Checker.Transitions),
		attempted:   1,
		// Transitions are left out of the signature: re-expansion counts
		// vary with batch arrival order; the claimed set does not.
		sig:    fmt.Sprintf("states=%d locals=%d violated=[%s]", res.Checker.StatesExplored, res.Checker.DistinctLocalStates, violatedNames(res.Checker.Violations)),
		counts: counts,
		result: res,
	}, nil
}

// violatedNames is the sorted set of property names a result violates.
func violatedNames(vs []mc.Violation) string {
	set := make(map[string]bool)
	for _, v := range vs {
		for _, p := range v.Properties {
			set[p] = true
		}
	}
	names := make([]string, 0, len(set))
	for p := range set {
		names = append(names, p)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// check fails a pass that needed recovery, or whose claimed-state count,
// distinct-local-state count or violated-property set differs from the
// serial reference (and so from the cold pass).
func (sh *shardedInstance) check(rec, cold *passRecord) []string {
	var reasons []string
	res := rec.result.(*dist.Result)
	if res.Recovery.Retries > 0 || res.Recovery.SerialFallback {
		reasons = append(reasons, "round needed recovery: "+res.Recovery.String())
	}
	want := fmt.Sprintf("states=%d locals=%d violated=[%s]", sh.serial.StatesExplored, sh.serial.DistinctLocalStates, violatedNames(sh.serial.Violations))
	if rec.sig != want {
		reasons = append(reasons, fmt.Sprintf("differs from serial reference: %s vs %s", rec.sig, want))
	}
	if rec.sig != cold.sig {
		reasons = append(reasons, fmt.Sprintf("differs from cold pass: %s vs %s", rec.sig, cold.sig))
	}
	return reasons
}
