package dist

import (
	"strconv"
	"strings"
	"sync"
)

// Deterministic fault injection for the shard-merge protocol: exactly the
// faults the coordinator's recovery detects and the chaos oracle
// (internal/scenario) checks. A FaultPlan is a parsed schedule that a test
// or operator wraps around shard connections (LocalConfig.Faults, mcheck
// -faults). A rule fires on (round, per-connection message count), never on
// the wall clock, so the same spec produces the identical fault on every
// run — which is what lets the chaos oracle require byte-identical recovery
// telemetry.
//
// Spec grammar (comma-separated rules):
//
//	spec  := rule { ',' rule }
//	rule  := [ dir ':' ] op '@' 's' shard [ 'r' round ] 'm' count
//	dir   := 'send' | 'recv'                      (default recv)
//	op    := 'kill' | 'sever' | 'corrupt'
//
// Directions are relative to the wrapping side: on the coordinator's wrap
// of shard i's connection, recv is traffic arriving *from* the shard and
// send is traffic going *to* it. Counts are 1-based per direction and reset
// at every RoundStart (retries restart the count); a rule fires at most
// once per session. Omitting 'r' matches any round.
//
//	kill@s1r1m2        cut shard 1's connection at its 2nd message of round 1
//	send:sever@s1r1m1  cut it at the 1st message sent to shard 1 in round 1
//	corrupt@s1r1m1     mangle the first batch shard 1 sends in round 1
//
// 'kill' and 'sever' are aliases: both cut the shard's in-process pipe, the
// triggering message is lost with it, and the shard goroutine exits.
// 'corrupt' fires on the first Batch at or
// after the scheduled count and mangles one forwarded state so the
// receiver's validation trips loudly — exercising the Fault-message
// recovery path rather than silent divergence.

// fault directions.
const (
	dirRecv = 0
	dirSend = 1
)

// fault operations.
type faultOp int

const (
	opKill faultOp = iota
	opCorrupt
)

// faultRule is one parsed rule.
type faultRule struct {
	dir   int
	op    faultOp
	shard int
	round int   // 0 = any round
	count int64 // 1-based trigger index
}

// FaultPlan is a parsed, immutable fault schedule. Wrap installs it on a
// connection; the returned Conn carries the mutable trigger state, so one
// plan can arm many connections (and many sessions) independently.
type FaultPlan struct {
	rules []faultRule
}

// ParseFaultPlan parses the spec grammar above. An empty spec is a valid
// plan with no rules.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	p := &FaultPlan{}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
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
	switch opPart {
	case "kill", "sever":
		r.op = opKill
	case "corrupt":
		r.op = opCorrupt
	default:
		return r, errorf("fault spec: unknown op %q (want kill, sever or corrupt)", opPart)
	}

	// target := 's' shard [ 'r' round ] 'm' count
	if !strings.HasPrefix(target, "s") {
		return r, errorf("fault spec: target %q must start with s<shard>", target)
	}
	target = target[1:]
	readInt := func() (int64, bool) {
		i := strings.IndexAny(target, "rm")
		var digits string
		if i < 0 {
			digits, target = target, ""
		} else {
			digits, target = target[:i], target[i:]
		}
		n, err := strconv.ParseInt(digits, 10, 64)
		return n, err == nil
	}
	n, ok := readInt()
	if !ok || n < 0 {
		return r, errorf("fault spec: bad shard in %q", item)
	}
	r.shard = int(n)
	if strings.HasPrefix(target, "r") {
		target = target[1:]
		n, ok = readInt()
		if !ok || n <= 0 {
			return r, errorf("fault spec: bad round in %q", item)
		}
		r.round = int(n)
	}
	digits, ok := strings.CutPrefix(target, "m")
	if !ok {
		return r, errorf("fault spec: rule %q needs m<count>", item)
	}
	count, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || count <= 0 {
		return r, errorf("fault spec: bad message count in %q", item)
	}
	r.count = count
	return r, nil
}

// Wrap arms the plan's rules for one shard's connection. Connections of
// shards no rule targets are returned unwrapped.
func (p *FaultPlan) Wrap(shard int, c Conn) Conn {
	if p == nil {
		return c
	}
	f := &faultConn{under: c, shard: shard}
	for _, r := range p.rules {
		if r.shard == shard {
			f.rules = append(f.rules, &armedRule{faultRule: r})
		}
	}
	if len(f.rules) == 0 {
		return c
	}
	return f
}

// armedRule is one rule plus its spent flag (a rule fires once).
type armedRule struct {
	faultRule
	spent bool
}

// faultConn applies a shard's armed rules to every message crossing the
// wrapped connection. All state is guarded by mu: sends and receives run on
// different goroutines, and determinism needs each direction's count to
// advance atomically per message.
type faultConn struct {
	under Conn
	shard int
	mu    sync.Mutex
	round int
	rules []*armedRule
	count [2]int64 // per direction, this round
}

// apply advances one direction past m and returns what crosses instead:
// m itself, a corrupted copy of it, or — once a kill fires — nothing, the
// connection being severed.
func (f *faultConn) apply(dir int, m Msg) (Msg, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if rs, ok := m.(RoundStart); ok {
		// A new round (or a retry of one) restarts the per-round message
		// counts in both directions. RoundStart itself is never faulted:
		// it is the recovery path's own control message.
		f.round = rs.Round
		f.count = [2]int64{}
		return m, nil
	}
	f.count[dir]++
	for _, r := range f.rules {
		if r.dir != dir || r.spent || (r.round != 0 && r.round != f.round) {
			continue
		}
		// Corrupt waits for a Batch at or after its scheduled count; a
		// kill fires on the exact message.
		if r.op == opCorrupt {
			if _, isBatch := m.(Batch); !isBatch || f.count[dir] < r.count {
				continue
			}
			r.spent = true
			return corruptBatch(m.(Batch)), nil
		}
		if f.count[dir] != r.count {
			continue
		}
		r.spent = true
		_ = f.under.Close()
		return nil, errorf("fault injection: severed connection of shard %d (round %d)", f.shard, f.round)
	}
	return m, nil
}

// corruptBatch deterministically mangles one forwarded state so the
// receiving shard's validation faults loudly: the state keeps its depth but
// loses the state itself, and its fingerprint flips out of plausibility.
func corruptBatch(b Batch) Batch {
	states := make([]ForwardState, len(b.States))
	copy(states, b.States)
	if len(states) > 0 {
		states[0] = ForwardState{Hash: states[0].Hash ^ 1<<63, Depth: states[0].Depth}
	}
	b.States = states
	return b
}

func (f *faultConn) Send(m Msg) error {
	m, err := f.apply(dirSend, m)
	if err != nil {
		return err
	}
	return f.under.Send(m)
}

func (f *faultConn) Recv() (Msg, error) {
	m, err := f.under.Recv()
	if err != nil {
		return nil, err
	}
	return f.apply(dirRecv, m)
}

func (f *faultConn) TryRecv() (Msg, bool, error) {
	m, ok, err := f.under.TryRecv()
	if err != nil || !ok {
		return nil, false, err
	}
	if m, err = f.apply(dirRecv, m); err != nil {
		return nil, false, err
	}
	return m, true, nil
}

func (f *faultConn) Close() error { return f.under.Close() }
