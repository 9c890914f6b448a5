package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"crystalball/internal/dist"
	"crystalball/internal/mc"
)

// The two TCP roles of a sharded search: -listen (the coordinator) and
// -connect (a worker), speaking the length-prefixed binary protocol of
// internal/dist.

type coordOpts struct {
	addr       string
	shards     int
	tcp        dist.TCPOptions
	faults     *dist.FaultPlan
	maxRetries int
	stall      time.Duration
}

// coordinate accepts o.shards workers, sends each su, runs one round of
// cfg's search over them and returns the merged result. cfg is what su
// builds plus the caller's mode, budget and reduction.
func coordinate(o coordOpts, su dist.Setup, g *mc.GState, cfg mc.Config) (*dist.Result, error) {
	// The probe doubles as the merge's violation-replay engine and as the
	// configuration of the in-process floor shard should every worker die.
	probe := mc.NewSearch(cfg)
	budget := cfg.Budget
	if budget.Workers <= 0 {
		budget.Workers = 1 // as dist.Local: the shards already run in parallel
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	fmt.Printf("coordinator: waiting for %d workers on %s\n", o.shards, ln.Addr())

	handshake := func(nc net.Conn) (dist.Conn, int, error) {
		conn := dist.WrapTCP(nc, o.tcp)
		m, err := conn.Recv()
		if err != nil {
			conn.Close()
			return nil, 0, fmt.Errorf("worker handshake: %w", err)
		}
		h, ok := m.(dist.Hello)
		if !ok || h.Shard < 0 || h.Shard >= o.shards || h.Shards != o.shards {
			conn.Close()
			return nil, 0, fmt.Errorf("bad worker hello %+v (want a slot in 0..%d)", m, o.shards-1)
		}
		if err := conn.Send(su); err != nil {
			conn.Close()
			return nil, 0, fmt.Errorf("worker %d setup: %w", h.Shard, err)
		}
		return conn, h.Shard, nil
	}

	conns := make([]dist.Conn, o.shards)
	for joined := 0; joined < o.shards; {
		nc, err := ln.Accept()
		if err != nil {
			return nil, err
		}
		conn, id, err := handshake(nc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coordinator: %v\n", err)
			continue
		}
		if conns[id] != nil {
			conn.Close()
			fmt.Fprintf(os.Stderr, "coordinator: duplicate hello for slot %d\n", id)
			continue
		}
		if o.faults != nil {
			conn = o.faults.Wrap(id, conn)
		}
		conns[id] = conn
		joined++
		fmt.Printf("coordinator: worker %d joined (%d/%d)\n", id, joined, o.shards)
	}

	coord := dist.NewCoordinator(conns, dist.CoordinatorConfig{
		Search:       probe,
		Root:         g,
		MaxRetries:   o.maxRetries,
		StallTimeout: o.stall,
	})
	defer coord.Shutdown()

	// Keep accepting: a worker that died and came back re-handshakes here
	// and is adopted at the coordinator's next retry boundary.
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				conn, id, err := handshake(nc)
				if err != nil {
					return
				}
				if o.faults != nil {
					conn = o.faults.Wrap(id, conn)
				}
				if err := coord.Rejoin(id, conn); err != nil {
					conn.Close()
					return
				}
				fmt.Printf("coordinator: worker %d rejoined\n", id)
			}(nc)
		}
	}()

	return coord.RunRound(budget, false)
}

type workOpts struct {
	addr        string
	shard       int
	shards      int
	tcp         dist.TCPOptions
	faults      *dist.FaultPlan
	connTimeout time.Duration
}

// dialRetry dials the coordinator with capped jittered exponential backoff
// until it connects or connTimeout elapses.
func dialRetry(o workOpts) (dist.Conn, error) {
	deadline := time.Now().Add(o.connTimeout)
	backoff := 100 * time.Millisecond
	for {
		conn, err := dist.DialTCP(o.addr, o.tcp)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dial %s: gave up after %v: %w", o.addr, o.connTimeout, err)
		}
		// Full jitter keeps a herd of restarting workers from thundering.
		//crystal:allow(globalrand) reconnect jitter exists to desynchronize worker processes; a seeded per-worker stream would defeat it
		sleep := time.Duration(rand.Int63n(int64(backoff))) + backoff/2
		fmt.Fprintf(os.Stderr, "worker %d: dial %s failed (%v), retrying in %v\n", o.shard, o.addr, err, sleep.Round(time.Millisecond))
		time.Sleep(sleep)
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// session handshakes on an established connection and serves shard rounds
// until the connection ends.
func session(o workOpts, conn dist.Conn) error {
	defer conn.Close()
	if o.faults != nil {
		conn = o.faults.Wrap(o.shard, conn)
	}
	if err := conn.Send(dist.Hello{Shard: o.shard, Shards: o.shards}); err != nil {
		return err
	}
	m, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("waiting for setup: %w", err)
	}
	su, ok := m.(dist.Setup)
	if !ok {
		return fmt.Errorf("expected setup, got %T", m)
	}
	g, cfg, err := buildScenario(su)
	if err != nil {
		return err
	}
	cfg.Mode = mc.Exhaustive
	fmt.Printf("worker %d/%d: searching %s\n", o.shard, o.shards, su.Scenario)
	return dist.RunShard(conn, dist.ShardConfig{
		Index:  o.shard,
		Shards: o.shards,
		Search: cfg,
		Root:   g,
	})
}

// work serves shard o.shard, redialing whenever the session is lost.
func work(o workOpts) error {
	for {
		conn, err := dialRetry(o)
		if err != nil {
			return err
		}
		err = session(o, conn)
		if err == dist.ErrClosed || err == nil {
			fmt.Printf("worker %d: done\n", o.shard)
			return nil
		}
		// Anything else — coordinator death, severed link, a fault that
		// got this shard expelled — is worth reconnecting over: the
		// coordinator may still be running the session and will adopt us
		// back at its next retry boundary. dialRetry's -connect-timeout
		// bounds how long a gone coordinator keeps us looping.
		fmt.Fprintf(os.Stderr, "worker %d: session ended: %v; reconnecting\n", o.shard, err)
	}
}
