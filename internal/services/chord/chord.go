// Package chord implements the Chord distributed hash table used in the
// CrystalBall paper's evaluation (section 5.2.2): nodes arrange themselves
// in a ring ordered by identifier, each keeping a predecessor pointer and a
// successor list; a stabilize timer periodically repairs the pointers.
//
// The join protocol follows the paper: a joining node queries with its id
// via FindPred, the request routes to the appropriate node P, which replies
// with a FindPredReply carrying its successor list; the joiner sets its
// predecessor to P, adopts the reply's successor list, and sends UpdatePred
// to its new successor.
//
// The three inconsistency bugs CrystalBall found ship enabled by default:
//
//  1. the UpdatePred handler sets an unset predecessor to the message's
//     sender even when the sender is the node itself (the loopback path of
//     Figure 10), violating "if successor is self, so is predecessor";
//  2. the GetPredReply handler merges new successors without re-checking
//     the predecessor ordering constraint (Figure 11);
//  3. the FindPredReply handler adopts the reply's successor list without
//     filtering out the node itself, leaving a self-loop alongside other
//     ring members.
package chord

import (
	"slices"

	"crystalball/internal/sm"
)

// TimerStabilize fires the periodic stabilization round.
const TimerStabilize sm.TimerID = "stabilize"

// TimerJoin retries joining while not joined.
const TimerJoin sm.TimerID = "join-retry"

// The stabilize and join retry periods.
const (
	stabilizeInterval = 5 * sm.Second
	joinRetryInterval = 2 * sm.Second
)

// Fix flags disabling the seeded bugs.
type Fix uint32

// Fixes for the three seeded Chord bugs.
const (
	// FixSelfPred stops a node from assigning its predecessor pointer
	// to itself while the successor list names other nodes (the paper's
	// suggested correction for the Figure 10 bug).
	FixSelfPred Fix = 1 << iota
	// FixOrdering updates the predecessor after updating the successor
	// list (the paper's correction for the Figure 11 bug).
	FixOrdering
	// FixSelfInSuccs filters the node itself out of adopted successor
	// lists unless it is alone.
	FixSelfInSuccs

	// AllFixes enables every repair.
	AllFixes Fix = 1<<3 - 1
)

// Config parameterises the service.
type Config struct {
	// Bootstrap lists designated members a joiner contacts.
	Bootstrap []sm.NodeID
	// SuccListLen bounds the successor list (default 4).
	SuccListLen int
	// Fixes disables seeded bugs.
	Fixes Fix
}

func (c *Config) defaults() {
	if c.SuccListLen == 0 {
		c.SuccListLen = 4
	}
}

// New returns an sm.Factory producing Chord instances with cfg.
func New(cfg Config) sm.Factory {
	cfg.defaults()
	return func(self sm.NodeID) sm.Service {
		return &Ring{Self: self, Pred: sm.NoNode, cfg: cfg}
	}
}

// Ring is the per-node Chord state machine. Node identifiers double as
// ring positions (the paper's scenarios are likewise expressed directly in
// node ids).
type Ring struct {
	Self    sm.NodeID
	Joined  bool
	Joining bool
	Pred    sm.NodeID
	// Succs is the successor list, nearest first; by convention the
	// node itself appears as the final fallback entry.
	Succs []sm.NodeID

	cfg Config
}

func (r *Ring) fixed(f Fix) bool { return r.cfg.Fixes&f != 0 }

// Between reports whether x lies strictly within the clockwise ring
// interval (a, b).
func Between(x, a, b sm.NodeID) bool {
	if x == a || x == b {
		return false
	}
	if a < b {
		return a < x && x < b
	}
	if a > b {
		return x > a || x < b
	}
	// a == b: the interval covers the whole ring except a itself.
	return x != a
}

// Messages.

// FindPred routes a joiner's query toward its future predecessor.
type FindPred struct{ Origin sm.NodeID }

// MsgType implements sm.Message.
func (FindPred) MsgType() string { return "FindPred" }

// Size implements sm.Message.
func (FindPred) Size() int { return 12 }

// EncodeMsg implements sm.Message.
func (m FindPred) EncodeMsg(e *sm.Encoder) { e.NodeID(m.Origin) }

// FindPredReply answers a FindPred with the predecessor's successor list.
type FindPredReply struct{ Succs []sm.NodeID }

// MsgType implements sm.Message.
func (FindPredReply) MsgType() string { return "FindPredReply" }

// Size implements sm.Message.
func (m FindPredReply) Size() int { return 8 + 4*len(m.Succs) }

// EncodeMsg implements sm.Message.
func (m FindPredReply) EncodeMsg(e *sm.Encoder) { e.NodeSlice(m.Succs) }

// UpdatePred tells the receiver its predecessor may now be the sender.
type UpdatePred struct{}

// MsgType implements sm.Message.
func (UpdatePred) MsgType() string { return "UpdatePred" }

// Size implements sm.Message.
func (UpdatePred) Size() int { return 4 }

// EncodeMsg implements sm.Message.
func (UpdatePred) EncodeMsg(e *sm.Encoder) {}

// GetPred asks the receiver for its predecessor and successor list
// (stabilization).
type GetPred struct{}

// MsgType implements sm.Message.
func (GetPred) MsgType() string { return "GetPred" }

// Size implements sm.Message.
func (GetPred) Size() int { return 4 }

// EncodeMsg implements sm.Message.
func (GetPred) EncodeMsg(e *sm.Encoder) {}

// GetPredReply answers GetPred.
type GetPredReply struct {
	Pred  sm.NodeID
	Succs []sm.NodeID
}

// MsgType implements sm.Message.
func (GetPredReply) MsgType() string { return "GetPredReply" }

// Size implements sm.Message.
func (m GetPredReply) Size() int { return 12 + 4*len(m.Succs) }

// EncodeMsg implements sm.Message.
func (m GetPredReply) EncodeMsg(e *sm.Encoder) { e.NodeID(m.Pred); e.NodeSlice(m.Succs) }

// AppJoin asks the node to join the ring.
type AppJoin struct{}

// CallName implements sm.AppCall.
func (AppJoin) CallName() string { return "AppJoin" }

// EncodeCall implements sm.AppCall.
func (AppJoin) EncodeCall(e *sm.Encoder) {}

// Init implements sm.Service.
func (r *Ring) Init(ctx sm.Context) {}

// HandleApp implements sm.Service.
func (r *Ring) HandleApp(ctx sm.Context, call sm.AppCall) {
	if call.CallName() != "AppJoin" || r.Joined {
		return
	}
	target := r.pickBootstrap(ctx)
	if target == sm.NoNode {
		// Alone: a single-node ring points everywhere at itself.
		r.Joined = true
		r.Pred = r.Self
		r.Succs = []sm.NodeID{r.Self}
		ctx.SetTimer(TimerStabilize, stabilizeInterval)
		return
	}
	r.Joining = true
	ctx.Send(target, FindPred{Origin: r.Self})
	ctx.SetTimer(TimerJoin, joinRetryInterval)
}

func (r *Ring) pickBootstrap(ctx sm.Context) sm.NodeID {
	var candidates []sm.NodeID
	for _, b := range r.cfg.Bootstrap {
		if b != r.Self {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 {
		return sm.NoNode
	}
	return candidates[ctx.Rand().Intn(len(candidates))]
}

// HandleTimer implements sm.Service.
func (r *Ring) HandleTimer(ctx sm.Context, t sm.TimerID) {
	switch t {
	case TimerJoin:
		if r.Joined {
			return
		}
		if target := r.pickBootstrap(ctx); target != sm.NoNode {
			r.Joining = true
			ctx.Send(target, FindPred{Origin: r.Self})
			ctx.SetTimer(TimerJoin, joinRetryInterval)
		} else {
			r.HandleApp(ctx, AppJoin{})
		}
	case TimerStabilize:
		if s := r.firstSucc(); s != sm.NoNode && s != r.Self {
			ctx.Send(s, GetPred{})
		}
		ctx.SetTimer(TimerStabilize, stabilizeInterval)
	}
}

func (r *Ring) firstSucc() sm.NodeID {
	if len(r.Succs) == 0 {
		return sm.NoNode
	}
	return r.Succs[0]
}

// HandleMessage implements sm.Service.
func (r *Ring) HandleMessage(ctx sm.Context, from sm.NodeID, msg sm.Message) {
	switch m := msg.(type) {
	case FindPred:
		r.handleFindPred(ctx, from, m)
	case FindPredReply:
		r.handleFindPredReply(ctx, from, m)
	case UpdatePred:
		r.handleUpdatePred(ctx, from)
	case GetPred:
		ctx.Send(from, GetPredReply{Pred: r.Pred, Succs: sm.CloneNodeSlice(r.Succs)})
	case GetPredReply:
		r.handleGetPredReply(ctx, from, m)
	}
}

func (r *Ring) handleFindPred(ctx sm.Context, from sm.NodeID, m FindPred) {
	if !r.Joined {
		return
	}
	succ := r.firstSucc()
	if succ == sm.NoNode {
		return
	}
	// We are the querier's predecessor when its id falls in (self, succ]
	// — including a successor slot equal to the origin itself, which is
	// exactly the stale-successor situation of Figure 10.
	if succ == r.Self || Between(m.Origin, r.Self, succ) || m.Origin == succ {
		ctx.Send(m.Origin, FindPredReply{Succs: sm.CloneNodeSlice(r.Succs)})
		return
	}
	// Route onward around the ring.
	ctx.Send(succ, m)
}

func (r *Ring) handleFindPredReply(ctx sm.Context, from sm.NodeID, m FindPredReply) {
	if r.Joined && !r.Joining {
		return
	}
	// Paper Figure 10: "node C i) sets its predecessor to A; ii) stores
	// the successor list included in the message as its successor list;
	// and iii) sends an UpdatePred message to A's successor".
	r.Joined = true
	r.Joining = false
	r.Pred = from
	succs := sm.CloneNodeSlice(m.Succs)
	if r.fixed(FixSelfInSuccs) {
		// Bug 3: the adopted list may name this node (its previous
		// incarnation); filter unless it would empty the list.
		succs = filterSelf(succs, r.Self)
	}
	r.Succs = r.capList(append(succs, r.Self))
	ctx.CancelTimer(TimerJoin)
	ctx.SetTimer(TimerStabilize, stabilizeInterval)
	if s := r.firstSucc(); s != sm.NoNode {
		ctx.Send(s, UpdatePred{})
	}
}

func (r *Ring) handleUpdatePred(ctx sm.Context, from sm.NodeID) {
	if !r.Joined {
		return
	}
	// A lone node (successor = self) adopts its first contact as
	// successor too, so a two-node ring can bootstrap.
	if from != r.Self && r.firstSucc() == r.Self {
		r.Succs = r.capList(append([]sm.NodeID{from}, r.Succs...))
	}
	if r.Pred == sm.NoNode {
		// Bug 1 (paper Figure 10): an unset predecessor is assigned
		// the sender — even when the sender is this node itself via
		// the loopback UpdatePred. The paper's correction: "if the
		// successor list includes nodes in addition to itself, avoid
		// assigning the predecessor pointer to itself".
		if from == r.Self && r.fixed(FixSelfPred) && r.hasOtherSuccs() {
			return
		}
		r.Pred = from
		return
	}
	if Between(from, r.Pred, r.Self) {
		r.Pred = from
	}
}

func (r *Ring) hasOtherSuccs() bool {
	for _, s := range r.Succs {
		if s != r.Self {
			return true
		}
	}
	return false
}

func (r *Ring) handleGetPredReply(ctx sm.Context, from sm.NodeID, m GetPredReply) {
	if !r.Joined {
		return
	}
	// A reported predecessor between us and our successor becomes our
	// new immediate successor (classic stabilization)...
	merged := sm.CloneNodeSlice(r.Succs)
	if m.Pred != sm.NoNode && m.Pred != r.Self && Between(m.Pred, r.Self, from) {
		merged = append([]sm.NodeID{m.Pred}, merged...)
	}
	// ... and the peer's successor list backs ours up.
	for _, s := range m.Succs {
		if s != r.Self {
			merged = append(merged, s)
		}
	}
	merged = append(merged, r.Self)
	r.Succs = r.capList(merged)
	if s := r.firstSucc(); s != sm.NoNode && s != r.Self {
		ctx.Send(s, UpdatePred{})
	}
	if r.fixed(FixOrdering) {
		// Bug 2 (paper Figure 11): merging can surface a node that
		// sits between our predecessor and us; the correction updates
		// the predecessor after updating the successor list.
		for _, s := range r.Succs {
			if s == r.Self {
				continue
			}
			if r.Pred == sm.NoNode || Between(s, r.Pred, r.Self) {
				r.Pred = s
			}
		}
	}
}

// capList dedupes (keeping first occurrences) and truncates the successor
// list, always retaining self as the final fallback entry.
func (r *Ring) capList(list []sm.NodeID) []sm.NodeID {
	seen := make(map[sm.NodeID]bool, len(list))
	out := make([]sm.NodeID, 0, r.cfg.SuccListLen)
	for _, s := range list {
		if s == sm.NoNode || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
		if len(out) == r.cfg.SuccListLen {
			break
		}
	}
	if !seen[r.Self] {
		if len(out) == r.cfg.SuccListLen {
			out[len(out)-1] = r.Self
		} else {
			out = append(out, r.Self)
		}
	}
	return out
}

func filterSelf(list []sm.NodeID, self sm.NodeID) []sm.NodeID {
	out := list[:0]
	for _, s := range list {
		if s != self {
			out = append(out, s)
		}
	}
	return out
}

// HandleTransportError implements sm.Service: the paper's scenarios remove
// the dead peer from every internal structure, including the predecessor
// pointer.
func (r *Ring) HandleTransportError(ctx sm.Context, peer sm.NodeID) {
	if r.Pred == peer {
		r.Pred = sm.NoNode
	}
	out := r.Succs[:0]
	for _, s := range r.Succs {
		if s != peer {
			out = append(out, s)
		}
	}
	r.Succs = out
	if !r.Joined {
		ctx.SetTimer(TimerJoin, joinRetryInterval)
	}
}

// Neighbors implements sm.Service: predecessor plus successor list — the
// paper's "a distributed hash table node keeps track of O(log n) other
// nodes".
func (r *Ring) Neighbors() []sm.NodeID {
	// Ascending and duplicate-free, built in place — each candidate goes
	// straight to its position — in a buffer that lives on the stack for any
	// realistic successor list; the result is an exact-size copy.
	var buf [8]sm.NodeID
	out := buf[:0]
	if r.Pred != sm.NoNode && r.Pred != r.Self {
		out = append(out, r.Pred)
	}
	for _, s := range r.Succs {
		if s == r.Self {
			continue
		}
		if i, present := slices.BinarySearch(out, s); !present {
			out = slices.Insert(out, i, s)
		}
	}
	return slices.Clone(out)
}

// Clone implements sm.Service.
func (r *Ring) Clone() sm.Service { return r.CloneInto(nil) }

// CloneInto implements sm.Service: dst's struct and successor list are
// reused.
func (r *Ring) CloneInto(dst sm.Service) sm.Service {
	out, ok := dst.(*Ring)
	if !ok {
		out = new(Ring)
	}
	succs := out.Succs
	*out = *r
	out.Succs = append(succs[:0], r.Succs...)
	return out
}

// EncodeState implements sm.Service.
//
//crystal:hotpath
func (r *Ring) EncodeState(e *sm.Encoder) {
	e.NodeID(r.Self)
	e.Bool(r.Joined)
	e.Bool(r.Joining)
	e.NodeID(r.Pred)
	e.NodeSlice(r.Succs)
}

// DecodeState implements sm.Service.
func (r *Ring) DecodeState(d *sm.Decoder) error {
	r.Self = d.NodeID()
	r.Joined = d.Bool()
	r.Joining = d.Bool()
	r.Pred = d.NodeID()
	r.Succs = d.NodeSlice()
	return d.Err()
}

// ModelAppCalls implements sm.ModelActions.
func (r *Ring) ModelAppCalls() []sm.AppCall {
	if !r.Joined {
		return []sm.AppCall{AppJoin{}}
	}
	return nil
}
