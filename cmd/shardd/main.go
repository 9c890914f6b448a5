// Command shardd runs the distributed sharded search across real
// processes: one coordinator plus N workers, connected over TCP with the
// length-prefixed binary protocol from internal/dist.
//
// The coordinator listens, waits for every worker's Hello, sends each the
// Setup describing the scenario, then runs one distributed exhaustive
// round and prints the merged report (the same numbers mcheck prints, plus
// the frontier-exchange counters). Every worker builds the scenario from
// its own registry using the Setup fields, so all shards search from a
// bit-identical configuration.
//
// Fault tolerance: every connection runs heartbeats and read/write
// deadlines (-peer-timeout), so a dead worker is detected within the
// timeout instead of hanging the round; the coordinator then aborts,
// repartitions over the survivors and retries (internal/dist). Workers
// dial with capped jittered backoff until -connect-timeout, and a worker
// that loses its coordinator connection mid-session redials and
// re-handshakes; the coordinator keeps accepting in the background and
// adopts rejoined workers at the next retry boundary. -faults installs a
// deterministic fault-injection plan (see internal/dist/faults.go for the
// spec grammar) for chaos testing.
//
// Usage:
//
//	shardd -listen :7070 -shards 2 -service chord -nodes 3 -maxdepth 6
//	shardd -connect host:7070 -shard 0 -shards 2
//	shardd -connect host:7070 -shard 1 -shards 2
//
// Workers take the scenario from the coordinator; their only required
// flags are the address and their shard slot.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"crystalball/internal/dist"
	"crystalball/internal/mc"
	"crystalball/internal/scenario"
	_ "crystalball/internal/scenario/all"
)

func main() {
	var (
		listen      = flag.String("listen", "", "coordinator mode: listen address (e.g. :7070)")
		connect     = flag.String("connect", "", "worker mode: coordinator address")
		shard       = flag.Int("shard", 0, "worker mode: this worker's shard slot")
		shards      = flag.Int("shards", 2, "total shard count")
		service     = flag.String("service", "randtree", "scenario to check (coordinator)")
		variant     = flag.String("variant", "", "scenario variant (coordinator)")
		nodes       = flag.Int("nodes", 5, "number of nodes in the initial state (coordinator)")
		fixed       = flag.Bool("fixed", false, "check the bug-fixed service variants (coordinator)")
		seed        = flag.Int64("seed", 1, "random seed (coordinator)")
		resets      = flag.Bool("resets", true, "explore node resets (coordinator)")
		connBreaks  = flag.Bool("connbreaks", false, "explore connection breaks (coordinator)")
		maxDepth    = flag.Int("maxdepth", 0, "depth bound (0 = unbounded)")
		maxStates   = flag.Int("states", 500000, "state budget across all shards")
		maxWall     = flag.Duration("wall", time.Minute, "wall-clock budget")
		maxViol     = flag.Int("violations", 3, "per-shard violation quota")
		workers     = flag.Int("workers", 1, "expansion workers per shard")
		peerTimeout = flag.Duration("peer-timeout", dist.DefaultPeerTimeout, "declare a silent TCP peer dead after this long (negative disables)")
		connTimeout = flag.Duration("connect-timeout", 30*time.Second, "worker mode: give up dialing the coordinator after this long")
		maxRetries  = flag.Int("retries", dist.DefaultMaxRetries, "coordinator mode: round retries after shard deaths (negative = never retry)")
		stall       = flag.Duration("stall", time.Minute, "coordinator mode: declare unresponsive shards dead after this much protocol silence (0 disables)")
		faultSpec   = flag.String("faults", "", "deterministic fault-injection plan (see internal/dist/faults.go)")
	)
	flag.Parse()

	var faults *dist.FaultPlan
	if *faultSpec != "" {
		var err error
		faults, err = dist.ParseFaultPlan(*faultSpec)
		if err != nil {
			usage(fmt.Errorf("bad -faults spec: %v", err))
		}
	}
	if *shards <= 0 {
		usage(fmt.Errorf("-shards must be positive"))
	}
	topt := dist.TCPOptions{PeerTimeout: *peerTimeout}

	var err error
	switch {
	case *listen != "" && *connect == "":
		su := dist.Setup{
			Scenario:   *service,
			Nodes:      *nodes,
			Variant:    *variant,
			Fixed:      *fixed,
			Seed:       *seed,
			Resets:     *resets,
			ConnBreaks: *connBreaks,
		}
		// Validate the scenario locally before any worker connects.
		g, cfg, berr := buildScenario(su)
		if berr != nil {
			usage(berr)
		}
		err = coordinate(coordOpts{
			addr:       *listen,
			shards:     *shards,
			tcp:        topt,
			faults:     faults,
			maxRetries: *maxRetries,
			stall:      *stall,
		}, su, g, cfg, mc.Budget{
			States:     *maxStates,
			Depth:      *maxDepth,
			Wall:       *maxWall,
			Violations: *maxViol,
			Workers:    *workers,
		})
	case *connect != "" && *listen == "":
		err = work(workOpts{
			addr:        *connect,
			shard:       *shard,
			shards:      *shards,
			tcp:         topt,
			faults:      faults,
			connTimeout: *connTimeout,
		})
	default:
		usage(fmt.Errorf("exactly one of -listen (coordinator) or -connect (worker) is required"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// usage reports a command-line mistake and exits 2, as mcheck, crystalball
// and experiments do; failures of a run that started exit 1.
func usage(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// buildScenario constructs the search configuration a Setup describes —
// the one function both roles share, which is what keeps the shards'
// configurations bit-identical.
func buildScenario(su dist.Setup) (*mc.GState, mc.Config, error) {
	g, cfg, err := scenario.InitialState(su.Scenario, scenario.Options{
		Nodes:   su.Nodes,
		Fixed:   su.Fixed,
		Variant: su.Variant,
	})
	if err != nil {
		return nil, mc.Config{}, err
	}
	cfg.Mode = mc.Exhaustive
	cfg.Seed = su.Seed
	cfg.ExploreResets = su.Resets
	cfg.ExploreConnBreaks = su.ConnBreaks
	return g, cfg, nil
}

type coordOpts struct {
	addr       string
	shards     int
	tcp        dist.TCPOptions
	faults     *dist.FaultPlan
	maxRetries int
	stall      time.Duration
}

func coordinate(o coordOpts, su dist.Setup, g *mc.GState, cfg mc.Config, budget mc.Budget) error {
	// The probe doubles as the merge's violation-replay engine and as the
	// serial fallback should every worker die.
	probe := mc.NewSearch(cfg)

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
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
			return err
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

	res, err := coord.RunRound(budget, false)
	if err != nil {
		return err
	}

	r := &res.Checker
	fmt.Printf("service=%s nodes=%d shards=%d workers/shard=%d\n", su.Scenario, su.Nodes, o.shards, budget.Workers)
	fmt.Printf("states=%d transitions=%d depth=%d elapsed=%v states/sec=%.0f\n",
		r.StatesExplored, r.Transitions, r.MaxDepthReached, r.Elapsed.Round(time.Millisecond),
		float64(r.StatesExplored)/r.Elapsed.Seconds())
	fmt.Printf("forwarded=%d received=%d remote-deduped=%d batch-flushes=%d\n",
		res.Stats.StatesForwarded, res.Stats.StatesReceived, res.Stats.RemoteDeduped, res.Stats.BatchFlushes)
	if res.Recovery.Retries > 0 || len(res.Recovery.Deaths) > 0 || res.Recovery.SerialFallback {
		fmt.Printf("recovery: %s\n", res.Recovery)
	}
	if len(r.Violations) == 0 {
		fmt.Println("no violations found")
		return nil
	}
	for i, v := range r.Violations {
		fmt.Printf("violation %d: %v at depth %d\n", i+1, v.Properties, v.Depth)
		for _, ev := range v.Path {
			fmt.Printf("  %s\n", ev.Describe())
		}
	}
	return nil
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
	fmt.Printf("worker %d/%d: searching %s\n", o.shard, o.shards, su.Scenario)
	return dist.RunShard(conn, dist.ShardConfig{
		Index:  o.shard,
		Shards: o.shards,
		Search: cfg,
		Root:   g,
	})
}

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
