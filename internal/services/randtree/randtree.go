// Package randtree implements the RandTree random overlay tree from the
// CrystalBall paper (section 1.2): a random, degree-constrained overlay
// tree resilient to node failures and network partitions. Trees built by
// this protocol serve as the control tree for Bullet′ and similar services.
//
// Topology rules (paper): nodes form a directed tree of bounded degree;
// each node keeps a children list and the root's address; the node with the
// numerically smallest identifier acts as root; non-root nodes keep a
// parent pointer; children of the root keep a sibling list.
//
// Join protocol (paper): a joining node sends a Join request to a
// designated node; non-roots forward it to the root; a root over capacity
// delegates to a child; the accepting parent replies with JoinReply and, if
// it is the root, tells its other children about the new sibling with
// UpdateSibling. A root that sees a Join from a numerically smaller node
// relinquishes the root role: it sends its own Join to the newcomer and, on
// acceptance, announces the new root to its children with NewRoot.
//
// The package ships with the seven inconsistency bugs CrystalBall found in
// the mature Mace implementation *enabled by default* (Table 1 reports 7
// RandTree bugs); each has a Fix flag so tests can assert both behaviours.
package randtree

import (
	"crystalball/internal/sm"
)

// Timer names.
const (
	// TimerRecovery periodically probes peer-list members (paper:
	// "Recovery Timer Should Always Run").
	TimerRecovery sm.TimerID = "recovery"
	// TimerJoin retries joining while not joined.
	TimerJoin sm.TimerID = "join-retry"
)

// The recovery probe and join retry periods.
const (
	recoveryInterval  = 5 * sm.Second
	joinRetryInterval = 2 * sm.Second
)

// Fix flags: each disables one of the seeded bugs.
type Fix uint32

// Fixes for the seven seeded RandTree bugs.
const (
	// FixUpdateSiblingChildren removes a newly announced sibling from
	// the children list (paper Figure 2's bug).
	FixUpdateSiblingChildren Fix = 1 << iota
	// FixJoinReplyStale purges the new parent/root from stale children
	// and sibling entries in the JoinReply handler (the paper's
	// "variations of this bug ... in other handlers").
	FixJoinReplyStale
	// FixNewRootChild purges the announced root from the children list
	// (paper Figure 9: "Root ... appears as a child").
	FixNewRootChild
	// FixPromoteSiblings clears the sibling list when a node promotes
	// itself to root after losing its parent ("Root Has No Siblings").
	FixPromoteSiblings
	// FixJoinSelfTimer schedules the recovery timer when a node joins
	// as its own root ("Recovery Timer Should Always Run").
	FixJoinSelfTimer
	// FixAcceptChildSibling removes an accepted child from the sibling
	// list.
	FixAcceptChildSibling
	// FixRelinquishSiblings clears the sibling list (and stale parent
	// info) when the root relinquishes in favor of a smaller node.
	FixRelinquishSiblings

	// AllFixes enables every repair.
	AllFixes Fix = 1<<7 - 1
)

// Config parameterises the service.
type Config struct {
	// Bootstrap lists designated nodes a joiner contacts.
	Bootstrap []sm.NodeID
	// MaxChildren bounds node degree (default 4).
	MaxChildren int
	// Fixes disables seeded bugs.
	Fixes Fix
}

func (c *Config) defaults() {
	if c.MaxChildren == 0 {
		c.MaxChildren = 4
	}
}

// New returns an sm.Factory producing RandTree instances with cfg.
func New(cfg Config) sm.Factory {
	cfg.defaults()
	return func(self sm.NodeID) sm.Service {
		return &Tree{
			Self:     self,
			Root:     sm.NoNode,
			Parent:   sm.NoNode,
			Children: make(map[sm.NodeID]bool),
			Siblings: make(map[sm.NodeID]bool),
			Peers:    make(map[sm.NodeID]bool),
			cfg:      cfg,
		}
	}
}

// Tree is the per-node RandTree state machine.
type Tree struct {
	Self   sm.NodeID
	Joined bool
	// Joining is set while a Join request is outstanding; a node with a
	// pending join that receives a Join from a larger node has been
	// selected as the new root (the handover handshake of Figure 9).
	Joining  bool
	IsRoot   bool
	Root     sm.NodeID
	Parent   sm.NodeID
	Children map[sm.NodeID]bool
	Siblings map[sm.NodeID]bool
	// Peers is the peer list the recovery timer probes: every member
	// this node is aware of.
	Peers map[sm.NodeID]bool

	cfg Config
}

func (t *Tree) fixed(f Fix) bool { return t.cfg.Fixes&f != 0 }

// Messages.

// Join asks the receiver (or the root it forwards to) to adopt Origin.
type Join struct{ Origin sm.NodeID }

// MsgType implements sm.Message.
func (Join) MsgType() string { return "Join" }

// Size implements sm.Message.
func (Join) Size() int { return 12 }

// EncodeMsg implements sm.Message.
func (m Join) EncodeMsg(e *sm.Encoder) { e.NodeID(m.Origin) }

// JoinReply tells a joiner it was accepted; Root carries the root address.
type JoinReply struct{ Root sm.NodeID }

// MsgType implements sm.Message.
func (JoinReply) MsgType() string { return "JoinReply" }

// Size implements sm.Message.
func (JoinReply) Size() int { return 12 }

// EncodeMsg implements sm.Message.
func (m JoinReply) EncodeMsg(e *sm.Encoder) { e.NodeID(m.Root) }

// UpdateSibling tells a root's child about a sibling change.
type UpdateSibling struct {
	Sibling sm.NodeID
	Add     bool
}

// MsgType implements sm.Message.
func (UpdateSibling) MsgType() string { return "UpdateSibling" }

// Size implements sm.Message.
func (UpdateSibling) Size() int { return 13 }

// EncodeMsg implements sm.Message.
func (m UpdateSibling) EncodeMsg(e *sm.Encoder) { e.NodeID(m.Sibling); e.Bool(m.Add) }

// NewRoot announces a root handover to the old root's children.
type NewRoot struct{ Root sm.NodeID }

// MsgType implements sm.Message.
func (NewRoot) MsgType() string { return "NewRoot" }

// Size implements sm.Message.
func (NewRoot) Size() int { return 12 }

// EncodeMsg implements sm.Message.
func (m NewRoot) EncodeMsg(e *sm.Encoder) { e.NodeID(m.Root) }

// Probe asks a peer for its view (recovery protocol).
type Probe struct{}

// MsgType implements sm.Message.
func (Probe) MsgType() string { return "Probe" }

// Size implements sm.Message.
func (Probe) Size() int { return 4 }

// EncodeMsg implements sm.Message.
func (Probe) EncodeMsg(e *sm.Encoder) {}

// ProbeReply carries the prober's view of the replier.
type ProbeReply struct {
	IsRoot bool
	Root   sm.NodeID
	Parent sm.NodeID
}

// MsgType implements sm.Message.
func (ProbeReply) MsgType() string { return "ProbeReply" }

// Size implements sm.Message.
func (ProbeReply) Size() int { return 13 }

// EncodeMsg implements sm.Message.
func (m ProbeReply) EncodeMsg(e *sm.Encoder) { e.Bool(m.IsRoot); e.NodeID(m.Root); e.NodeID(m.Parent) }

// AppJoin is the application call asking the node to join the overlay.
type AppJoin struct{}

// CallName implements sm.AppCall.
func (AppJoin) CallName() string { return "AppJoin" }

// EncodeCall implements sm.AppCall.
func (AppJoin) EncodeCall(e *sm.Encoder) {}

// Init implements sm.Service; RandTree waits for an AppJoin.
func (t *Tree) Init(ctx sm.Context) {}

// HandleApp implements sm.Service.
func (t *Tree) HandleApp(ctx sm.Context, call sm.AppCall) {
	if call.CallName() != "AppJoin" || t.Joined {
		return
	}
	target := t.pickBootstrap(ctx)
	if target == sm.NoNode {
		// No designated node other than ourselves: join as our own
		// root (paper: "node A joins itself, and changes its state to
		// 'joined' but does not schedule any timers" — bug 5).
		t.Joined = true
		t.IsRoot = true
		t.Root = t.Self
		t.Parent = sm.NoNode
		if t.fixed(FixJoinSelfTimer) {
			ctx.SetTimer(TimerRecovery, recoveryInterval)
		}
		return
	}
	t.Joining = true
	ctx.Send(target, Join{Origin: t.Self})
	ctx.SetTimer(TimerJoin, joinRetryInterval)
}

func (t *Tree) pickBootstrap(ctx sm.Context) sm.NodeID {
	var candidates []sm.NodeID
	for _, b := range t.cfg.Bootstrap {
		if b != t.Self {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 {
		return sm.NoNode
	}
	return candidates[ctx.Rand().Intn(len(candidates))]
}

// HandleTimer implements sm.Service.
func (t *Tree) HandleTimer(ctx sm.Context, timer sm.TimerID) {
	switch timer {
	case TimerJoin:
		if t.Joined {
			return
		}
		if target := t.pickBootstrap(ctx); target != sm.NoNode {
			t.Joining = true
			ctx.Send(target, Join{Origin: t.Self})
		} else {
			// Alone: self-join via the app path.
			t.HandleApp(ctx, AppJoin{})
			return
		}
		ctx.SetTimer(TimerJoin, joinRetryInterval)
	case TimerRecovery:
		// Probe peer-list members to keep the view fresh (paper:
		// "vital for the tree's consistency").
		for _, p := range sm.SortedNodes(t.Peers) {
			if p != t.Self && p != t.Parent && !t.Children[p] {
				ctx.Send(p, Probe{})
			}
		}
		ctx.SetTimer(TimerRecovery, recoveryInterval)
	}
}

// HandleMessage implements sm.Service.
func (t *Tree) HandleMessage(ctx sm.Context, from sm.NodeID, msg sm.Message) {
	switch m := msg.(type) {
	case Join:
		t.handleJoin(ctx, from, m)
	case JoinReply:
		t.handleJoinReply(ctx, from, m)
	case UpdateSibling:
		t.handleUpdateSibling(ctx, from, m)
	case NewRoot:
		t.handleNewRoot(ctx, from, m)
	case Probe:
		ctx.Send(from, ProbeReply{IsRoot: t.IsRoot && t.Joined, Root: t.Root, Parent: t.Parent})
	case ProbeReply:
		t.handleProbeReply(ctx, from, m)
	}
}

func (t *Tree) handleJoin(ctx sm.Context, from sm.NodeID, m Join) {
	origin := m.Origin
	if origin == t.Self {
		return
	}
	if !t.Joined {
		if !t.Joining || origin < t.Self {
			// Not part of a join handshake we initiated: ignore.
			return
		}
		// A joining node that receives a Join from a larger node has
		// been chosen as the new root by the old root (the handover
		// handshake in paper Figure 9): become root, adopt the sender.
		t.Joined = true
		t.Joining = false
		t.IsRoot = true
		t.Root = t.Self
		t.Parent = sm.NoNode
		ctx.CancelTimer(TimerJoin)
		ctx.SetTimer(TimerRecovery, recoveryInterval)
		t.accept(ctx, origin)
		return
	}
	if t.IsRoot && origin < t.Self {
		// The newcomer is more eligible: relinquish the root role.
		// Send our own Join to it; on JoinReply we announce NewRoot.
		ctx.Send(origin, Join{Origin: t.Self})
		return
	}
	if !t.IsRoot && from != t.Parent && from != t.Root {
		// A direct request to a non-root member: forward to the root
		// (paper: "If the node receiving the join request is not the
		// root, it forwards the request to the root").
		if t.Root != sm.NoNode && t.Root != t.Self {
			ctx.Send(t.Root, m)
		}
		return
	}
	// Either we are the root, or the request was delegated down to us
	// ("it asks one of its children to incorporate the node").
	if t.Children[origin] {
		// Duplicate join (e.g. retry): re-send the reply.
		ctx.Send(origin, JoinReply{Root: t.Root})
		return
	}
	if len(t.Children) < t.cfg.MaxChildren {
		t.accept(ctx, origin)
		return
	}
	// Full: delegate to a random child.
	children := sm.SortedNodes(t.Children)
	ctx.Send(children[ctx.Rand().Intn(len(children))], m)
}

// accept adopts origin as a child and, when we are root, updates the other
// children's sibling lists.
func (t *Tree) accept(ctx sm.Context, origin sm.NodeID) {
	t.Children[origin] = true
	t.Peers[origin] = true
	if t.fixed(FixAcceptChildSibling) {
		// Bug 6: a stale sibling entry for the new child survives.
		delete(t.Siblings, origin)
	}
	ctx.Send(origin, JoinReply{Root: t.Root})
	if t.IsRoot {
		for _, c := range sm.SortedNodes(t.Children) {
			if c != origin {
				ctx.Send(c, UpdateSibling{Sibling: origin, Add: true})
			}
		}
	}
}

func (t *Tree) handleJoinReply(ctx sm.Context, from sm.NodeID, m JoinReply) {
	if t.Joined && t.IsRoot {
		// We relinquished the root role to `from` (paper Figure 9):
		// become its child and announce the new root to our children.
		t.IsRoot = false
		t.Parent = from
		t.Root = m.Root
		t.Peers[from] = true
		for _, c := range sm.SortedNodes(t.Children) {
			ctx.Send(c, NewRoot{Root: m.Root})
		}
		if t.fixed(FixRelinquishSiblings) {
			// Bug 7: the relinquishing root keeps its stale sibling
			// list ("clean the sibling list whenever a node
			// relinquishes the root position").
			t.Siblings = make(map[sm.NodeID]bool)
		}
		return
	}
	// Normal join acceptance.
	t.Joined = true
	t.Joining = false
	t.IsRoot = false
	t.Parent = from
	t.Root = m.Root
	t.Peers[from] = true
	if m.Root != sm.NoNode {
		t.Peers[m.Root] = true
	}
	ctx.CancelTimer(TimerJoin)
	ctx.SetTimer(TimerRecovery, recoveryInterval)
	if t.fixed(FixJoinReplyStale) {
		// Bug 2: stale children/sibling entries for the new parent
		// and root survive a rejoin.
		delete(t.Children, from)
		delete(t.Siblings, from)
		delete(t.Children, m.Root)
	}
}

func (t *Tree) handleUpdateSibling(ctx sm.Context, from sm.NodeID, m UpdateSibling) {
	if from != t.Parent && from != t.Root {
		return
	}
	if m.Add {
		t.Siblings[m.Sibling] = true
		t.Peers[m.Sibling] = true
		if t.fixed(FixUpdateSiblingChildren) {
			// Bug 1 (paper Figure 2): the new sibling may still sit
			// in our children list after its silent reset + rejoin;
			// the handler must remove it.
			delete(t.Children, m.Sibling)
		}
	} else {
		delete(t.Siblings, m.Sibling)
	}
}

func (t *Tree) handleNewRoot(ctx sm.Context, from sm.NodeID, m NewRoot) {
	if from != t.Parent && from != t.Root {
		return
	}
	t.Root = m.Root
	t.Peers[m.Root] = true
	if t.fixed(FixNewRootChild) {
		// Bug 3 (paper Figure 9): "check the children list whenever
		// installing information about the new root node".
		delete(t.Children, m.Root)
		delete(t.Siblings, m.Root)
	}
}

func (t *Tree) handleProbeReply(ctx sm.Context, from sm.NodeID, m ProbeReply) {
	// Recovery repairs: a peer that declares itself root cannot be our
	// child or sibling; adopt its root pointer if we lack one.
	if m.IsRoot {
		delete(t.Children, from)
		delete(t.Siblings, from)
		if !t.IsRoot {
			t.Root = from
			t.Peers[from] = true
		}
	}
}

// HandleTransportError implements sm.Service: a broken connection purges
// the peer; losing the parent triggers self-promotion (paper "Root Has No
// Siblings" scenario).
func (t *Tree) HandleTransportError(ctx sm.Context, peer sm.NodeID) {
	wasParent := peer == t.Parent
	delete(t.Children, peer)
	delete(t.Siblings, peer)
	delete(t.Peers, peer)
	if !t.Joined {
		// The join target died: retry soon via the join timer.
		ctx.SetTimer(TimerJoin, joinRetryInterval)
		return
	}
	if wasParent {
		// Promote ourselves to root; the recovery protocol will merge
		// partitions later.
		t.Parent = sm.NoNode
		t.IsRoot = true
		t.Root = t.Self
		if t.fixed(FixPromoteSiblings) {
			// Bug 4: the promoted root keeps its stale sibling list.
			t.Siblings = make(map[sm.NodeID]bool)
		}
	}
	if peer == t.Root && !t.IsRoot {
		t.Root = sm.NoNode
	}
}

// Neighbors implements sm.Service: parent, children, siblings and root —
// exactly the paper's "a node is typically aware of the root, its parent,
// its children, and its siblings".
func (t *Tree) Neighbors() []sm.NodeID {
	set := make(map[sm.NodeID]bool)
	if t.Parent != sm.NoNode {
		set[t.Parent] = true
	}
	if t.Root != sm.NoNode && t.Root != t.Self {
		set[t.Root] = true
	}
	for c := range t.Children {
		set[c] = true
	}
	for s := range t.Siblings {
		set[s] = true
	}
	delete(set, t.Self)
	return sm.SortedNodes(set)
}

// Clone implements sm.Service.
func (t *Tree) Clone() sm.Service { return t.CloneInto(nil) }

// CloneInto implements sm.Service: dst's struct and three node sets are
// reused.
func (t *Tree) CloneInto(dst sm.Service) sm.Service {
	out, ok := dst.(*Tree)
	if !ok {
		out = new(Tree)
	}
	children, siblings, peers := out.Children, out.Siblings, out.Peers
	*out = *t
	out.Children = sm.CopyNodeSet(children, t.Children)
	out.Siblings = sm.CopyNodeSet(siblings, t.Siblings)
	out.Peers = sm.CopyNodeSet(peers, t.Peers)
	return out
}

// EncodeState implements sm.Service.
//
//crystal:hotpath
func (t *Tree) EncodeState(e *sm.Encoder) {
	e.NodeID(t.Self)
	e.Bool(t.Joined)
	e.Bool(t.Joining)
	e.Bool(t.IsRoot)
	e.NodeID(t.Root)
	e.NodeID(t.Parent)
	e.NodeSet(t.Children)
	e.NodeSet(t.Siblings)
	e.NodeSet(t.Peers)
}

// DecodeState implements sm.Service.
func (t *Tree) DecodeState(d *sm.Decoder) error {
	t.Self = d.NodeID()
	t.Joined = d.Bool()
	t.Joining = d.Bool()
	t.IsRoot = d.Bool()
	t.Root = d.NodeID()
	t.Parent = d.NodeID()
	t.Children = d.NodeSet()
	t.Siblings = d.NodeSet()
	t.Peers = d.NodeSet()
	return d.Err()
}

// ModelAppCalls implements sm.ModelActions: an unjoined node may attempt
// to join.
func (t *Tree) ModelAppCalls() []sm.AppCall {
	if !t.Joined {
		return []sm.AppCall{AppJoin{}}
	}
	return nil
}
