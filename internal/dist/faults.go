package dist

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Deterministic fault injection for the shard-merge protocol. A FaultPlan
// is a parsed schedule of transport faults — drop, delay, duplicate,
// corrupt, sever — that a test or operator wraps around shard connections
// (LocalConfig.Faults, mcheck -faults in any sharded role). Faults trigger on
// (round, per-connection message count), never on the wall clock, and
// probabilistic rules draw from an RNG seeded by (plan seed, shard,
// direction), so the same spec and seed produce the identical fault
// sequence on every run — which is what lets the chaos differential oracle
// require byte-identical recovery telemetry.
//
// Spec grammar (comma-separated items):
//
//	spec  := item { ',' item }
//	item  := 'seed=' int | rule
//	rule  := [ dir ':' ] op '@' 's' shard [ 'r' round ] ( 'm' count | '~' prob )
//	dir   := 'send' | 'recv'                      (default recv)
//	op    := 'kill' | 'sever' | 'drop' | 'dup' | 'corrupt' | 'delay' int
//
// Directions are relative to the wrapping side: on the coordinator's wrap
// of shard i's connection, recv is traffic arriving *from* the shard and
// send is traffic going *to* it. Counts are 1-based per direction and reset
// at every RoundStart (retries restart the count); a counted rule fires at
// most once per session, a '~' rule draws per message. Omitting 'r' matches
// any round.
//
//	kill@s1r1m2        sever shard 1's connection at its 2nd message of round 1
//	send:dup@s0r1m3    duplicate the 3rd message sent to shard 0 in round 1
//	drop@s1~0.05       drop each message from shard 1 with probability 0.05
//	delay3@s0r2m1      hold shard 0's 1st message of round 2 behind the next 3
//
// 'kill' and 'sever' are aliases: both cut the connection. In process the
// shard goroutine then exits (a kill); over TCP the socket closes and an
// mcheck -connect worker survives to reconnect (a sever). 'corrupt' fires on the
// first Batch at or after the scheduled count and mangles one forwarded
// state so the receiver's validation trips loudly — exercising the
// Fault-message recovery path rather than silent divergence.
const faultSpecOps = "kill sever drop dup corrupt delayN" // for docs/tests

// fault directions.
const (
	dirRecv = 0
	dirSend = 1
)

// fault operations.
type faultOp int

const (
	opKill faultOp = iota
	opDrop
	opDup
	opCorrupt
	opDelay
)

func (o faultOp) String() string {
	switch o {
	case opKill:
		return "kill"
	case opDrop:
		return "drop"
	case opDup:
		return "dup"
	case opCorrupt:
		return "corrupt"
	default:
		return "delay"
	}
}

// faultRule is one parsed rule.
type faultRule struct {
	dir   int
	op    faultOp
	hold  int // opDelay: messages to hold behind
	shard int
	round int   // 0 = any round
	count int64 // 1-based trigger index; 0 = probabilistic
	prob  float64
}

// FaultPlan is a parsed, immutable fault schedule. Wrap installs it on a
// connection; the returned Conn carries the mutable trigger state, so one
// plan can arm many connections (and many sessions) independently.
type FaultPlan struct {
	Seed  int64
	rules []faultRule
}

// ParseFaultPlan parses the spec grammar above. An empty spec is a valid
// plan with no rules.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	p := &FaultPlan{Seed: 1}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if s, ok := strings.CutPrefix(item, "seed="); ok {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, errorf("fault spec: bad seed %q", s)
			}
			p.Seed = n
			continue
		}
		r, err := parseFaultRule(item)
		if err != nil {
			return nil, err
		}
		p.rules = append(p.rules, r)
	}
	return p, nil
}

// MustFaultPlan is ParseFaultPlan for compiled-in test specs.
func MustFaultPlan(spec string) *FaultPlan {
	p, err := ParseFaultPlan(spec)
	if err != nil {
		panic(err)
	}
	return p
}

func parseFaultRule(item string) (faultRule, error) {
	r := faultRule{dir: dirRecv}
	rest := item
	if s, ok := strings.CutPrefix(rest, "send:"); ok {
		r.dir, rest = dirSend, s
	} else if s, ok := strings.CutPrefix(rest, "recv:"); ok {
		r.dir, rest = dirRecv, s
	}
	opPart, target, ok := strings.Cut(rest, "@")
	if !ok {
		return r, errorf("fault spec: rule %q has no @target", item)
	}
	switch {
	case opPart == "kill" || opPart == "sever":
		r.op = opKill
	case opPart == "drop":
		r.op = opDrop
	case opPart == "dup":
		r.op = opDup
	case opPart == "corrupt":
		r.op = opCorrupt
	case strings.HasPrefix(opPart, "delay"):
		n, err := strconv.Atoi(opPart[len("delay"):])
		if err != nil || n <= 0 {
			return r, errorf("fault spec: %q needs a positive hold count (e.g. delay3)", opPart)
		}
		r.op, r.hold = opDelay, n
	default:
		return r, errorf("fault spec: unknown op %q (want %s)", opPart, faultSpecOps)
	}

	// target := 's' shard [ 'r' round ] ( 'm' count | '~' prob )
	if !strings.HasPrefix(target, "s") {
		return r, errorf("fault spec: target %q must start with s<shard>", target)
	}
	target = target[1:]
	readInt := func() (int64, bool) {
		i := strings.IndexAny(target, "rm~")
		var digits string
		if i < 0 {
			digits, target = target, ""
		} else {
			digits, target = target[:i], target[i:]
		}
		n, err := strconv.ParseInt(digits, 10, 64)
		return n, err == nil
	}
	n, ok2 := readInt()
	if !ok2 || n < 0 {
		return r, errorf("fault spec: bad shard in %q", item)
	}
	r.shard = int(n)
	if strings.HasPrefix(target, "r") {
		target = target[1:]
		n, ok2 = readInt()
		if !ok2 || n <= 0 {
			return r, errorf("fault spec: bad round in %q", item)
		}
		r.round = int(n)
	}
	switch {
	case strings.HasPrefix(target, "m"):
		n, err := strconv.ParseInt(target[1:], 10, 64)
		if err != nil || n <= 0 {
			return r, errorf("fault spec: bad message count in %q", item)
		}
		r.count = n
	case strings.HasPrefix(target, "~"):
		f, err := strconv.ParseFloat(target[1:], 64)
		if err != nil || !(f >= 0 && f <= 1) { // NaN parses, and fails both tests
			return r, errorf("fault spec: bad probability in %q", item)
		}
		r.prob = f
	default:
		return r, errorf("fault spec: rule %q needs m<count> or ~<prob>", item)
	}
	return r, nil
}

// Rules reports how many rules target the given shard (telemetry/tests).
func (p *FaultPlan) Rules(shard int) int {
	n := 0
	for _, r := range p.rules {
		if r.shard == shard {
			n++
		}
	}
	return n
}

// Wrap arms the plan's rules for one shard's connection. Connections of
// shards no rule targets are returned unwrapped.
func (p *FaultPlan) Wrap(shard int, c Conn) Conn {
	if p == nil || p.Rules(shard) == 0 {
		return c
	}
	f := &faultConn{under: c, shard: shard}
	for _, r := range p.rules {
		if r.shard == shard {
			f.rules = append(f.rules, &armedRule{faultRule: r})
		}
	}
	for d := range f.dirs {
		f.dirs[d].rng = rand.New(rand.NewSource(p.Seed ^ int64(shard)*2654435761 ^ int64(d)<<32))
	}
	return f
}

// armedRule is one rule plus its spent flag (counted rules fire once).
type armedRule struct {
	faultRule
	spent bool
}

// heldMsg is a delayed message awaiting release.
type heldMsg struct {
	m   Msg
	due int64 // deliver once this many messages have passed
}

// dirState is one direction's mutable trigger state.
type dirState struct {
	count int64
	rng   *rand.Rand
	held  []heldMsg
}

// faultConn applies a shard's armed rules to every message crossing the
// wrapped connection. All state is guarded by mu: sends and receives run on
// different goroutines, and determinism needs each direction's count and
// RNG stream to advance atomically per message.
type faultConn struct {
	under Conn
	shard int
	mu    sync.Mutex
	round int
	rules []*armedRule
	dirs  [2]dirState
}

// observe advances one direction past msg and returns the action to take.
// Caller holds mu.
func (f *faultConn) observe(dir int, m Msg) (op faultOp, hold int, fired bool) {
	if rs, ok := m.(RoundStart); ok {
		// A new round (or a retry of one) restarts the per-round message
		// counts in both directions. RoundStart itself is never faulted:
		// it is the recovery path's own control message.
		f.round = rs.Round
		f.dirs[0].count, f.dirs[1].count = 0, 0
		return 0, 0, false
	}
	d := &f.dirs[dir]
	d.count++
	for _, r := range f.rules {
		if r.dir != dir || r.spent || (r.round != 0 && r.round != f.round) {
			continue
		}
		switch {
		case r.count > 0:
			// Corrupt waits for a Batch at or after its scheduled count;
			// everything else fires on the exact message.
			if r.op == opCorrupt {
				if _, isBatch := m.(Batch); !isBatch || d.count < r.count {
					continue
				}
			} else if d.count != r.count {
				continue
			}
			r.spent = true
			return r.op, r.hold, true
		case r.prob > 0:
			if d.rng.Float64() >= r.prob {
				continue
			}
			return r.op, r.hold, true
		}
	}
	return 0, 0, false
}

// corruptBatch deterministically mangles one forwarded state so the
// receiving shard's validation faults loudly: the state keeps its depth but
// loses both its path and its in-process node, and its fingerprint flips
// out of plausibility.
func corruptBatch(b Batch) Batch {
	states := make([]ForwardState, len(b.States))
	copy(states, b.States)
	if len(states) > 0 {
		states[0] = ForwardState{Hash: states[0].Hash ^ 1<<63, Depth: states[0].Depth}
	}
	b.States = states
	return b
}

// sever cuts the connection; the triggering message is lost with it.
func (f *faultConn) sever() error {
	_ = f.under.Close()
	return errorf("fault injection: severed connection of shard %d (round %d)", f.shard, f.round)
}

// dueHeld pops the earliest delayed message whose release point has
// passed. Caller holds mu.
func (f *faultConn) dueHeld(dir int) (Msg, bool) {
	d := &f.dirs[dir]
	for i, h := range d.held {
		if h.due <= d.count {
			d.held = append(d.held[:i], d.held[i+1:]...)
			return h.m, true
		}
	}
	return nil, false
}

func (f *faultConn) Send(m Msg) error {
	f.mu.Lock()
	op, hold, fired := f.observe(dirSend, m)
	if !fired {
		if held, ok := f.dueHeld(dirSend); ok {
			f.mu.Unlock()
			if err := f.under.Send(m); err != nil {
				return err
			}
			return f.under.Send(held)
		}
		f.mu.Unlock()
		return f.under.Send(m)
	}
	switch op {
	case opKill:
		defer f.mu.Unlock()
		return f.sever()
	case opDrop:
		f.mu.Unlock()
		return nil
	case opDup:
		f.mu.Unlock()
		if err := f.under.Send(m); err != nil {
			return err
		}
		return f.under.Send(m)
	case opCorrupt:
		f.mu.Unlock()
		return f.under.Send(corruptBatch(m.(Batch)))
	default: // opDelay
		d := &f.dirs[dirSend]
		d.held = append(d.held, heldMsg{m: m, due: d.count + int64(hold)})
		f.mu.Unlock()
		return nil
	}
}

func (f *faultConn) Recv() (Msg, error) {
	for {
		f.mu.Lock()
		if m, ok := f.dueHeld(dirRecv); ok {
			f.mu.Unlock()
			return m, nil
		}
		f.mu.Unlock()
		m, err := f.under.Recv()
		if err != nil {
			return nil, err
		}
		if m, ok, err := f.applyRecv(m); ok || err != nil {
			return m, err
		}
	}
}

func (f *faultConn) TryRecv() (Msg, bool, error) {
	for {
		f.mu.Lock()
		if m, ok := f.dueHeld(dirRecv); ok {
			f.mu.Unlock()
			return m, true, nil
		}
		f.mu.Unlock()
		m, ok, err := f.under.TryRecv()
		if err != nil || !ok {
			return nil, false, err
		}
		if m, ok, err := f.applyRecv(m); ok || err != nil {
			return m, ok, err
		}
	}
}

// applyRecv runs one received message through the rules; ok=false means the
// message was consumed (dropped or held) and the caller should poll again.
func (f *faultConn) applyRecv(m Msg) (Msg, bool, error) {
	f.mu.Lock()
	op, hold, fired := f.observe(dirRecv, m)
	if !fired {
		f.mu.Unlock()
		return m, true, nil
	}
	switch op {
	case opKill:
		defer f.mu.Unlock()
		return nil, false, f.sever()
	case opDrop:
		f.mu.Unlock()
		return nil, false, nil
	case opDup:
		d := &f.dirs[dirRecv]
		d.held = append(d.held, heldMsg{m: m, due: d.count})
		f.mu.Unlock()
		return m, true, nil
	case opCorrupt:
		f.mu.Unlock()
		return corruptBatch(m.(Batch)), true, nil
	default: // opDelay
		d := &f.dirs[dirRecv]
		d.held = append(d.held, heldMsg{m: m, due: d.count + int64(hold)})
		f.mu.Unlock()
		return nil, false, nil
	}
}

func (f *faultConn) Close() error { return f.under.Close() }

// TargetedShards lists the distinct shards the plan's rules touch, sorted —
// recovery tests use it to predict which connections can die.
func (p *FaultPlan) TargetedShards() []int {
	if p == nil {
		return nil
	}
	seen := map[int]bool{}
	for _, r := range p.rules {
		seen[r.shard] = true
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
