// Package paxos implements single-decree Paxos as evaluated in the
// CrystalBall paper (section 5.4.2): a minimal implementation where every
// node plays all three roles (proposer, acceptor, learner) and the five
// protocol steps follow the paper's footnote:
//
//  1. a leader sends Prepare messages carrying a unique round number;
//  2. an acceptor whose last promised round is smaller responds with a
//     Promise carrying its last accepted value, if any;
//  3. on a majority of Promises the leader broadcasts an Accept request
//     with the value of the highest-round Promise (or its own value if no
//     Promise reported one);
//  4. an acceptor that has not promised a higher round accepts by
//     broadcasting a Learn message;
//  5. a learner that receives Learn messages from a majority considers the
//     value chosen.
//
// Two bugs from the paper can be injected:
//
//   - Bug1 (from the WiDS-checker study): step 3 uses the value of the
//     *last received* Promise rather than the highest-round one;
//   - Bug2 (from "Paxos Made Live"): the acceptor's promise and accepted
//     value are not written to disk, so they vanish across a reset.
//
// The safety property is the original Paxos property: at most one value may
// be chosen, across all nodes.
package paxos

import (
	"slices"

	"crystalball/internal/sm"
)

// Config parameterises the service.
type Config struct {
	// Members lists all participants (every node plays every role).
	Members []sm.NodeID
	// Bug1 makes the leader use the last Promise's value.
	Bug1 bool
	// Bug2 stops the acceptor from persisting its promise.
	Bug2 bool
}

// New returns an sm.Factory producing Paxos instances.
func New(cfg Config) sm.Factory {
	cfg.Members = slices.Clone(cfg.Members)
	slices.Sort(cfg.Members)
	// What a node's instances share never changes — the configuration, its
	// peer list, the one call ModelAppCalls offers — so it is built once per
	// member, here (three arrays for all of them), and every instance, restart
	// and clone of that node points at it.
	n := len(cfg.Members)
	members := make([]member, n)
	peers := make([]sm.NodeID, 0, n*max(n-1, 0))
	calls := make([]sm.AppCall, n)
	for i, self := range cfg.Members {
		lo := len(peers)
		for _, m := range cfg.Members {
			if m != self {
				peers = append(peers, m)
			}
		}
		calls[i] = Propose{Val: int64(self)}
		members[i] = member{Config: cfg, peers: peers[lo:len(peers):len(peers)], propose: calls[i : i+1 : i+1]}
	}
	return func(self sm.NodeID) sm.Service {
		if i, ok := slices.BinarySearch(cfg.Members, self); ok {
			return &Paxos{Self: self, cfg: &members[i]}
		}
		// Not a member: everyone is a peer.
		return &Paxos{Self: self, cfg: &member{Config: cfg, peers: cfg.Members, propose: []sm.AppCall{Propose{Val: int64(self)}}}}
	}
}

// member is what every instance of one node shares, read-only after New.
type member struct {
	Config
	peers   []sm.NodeID  // every member but the node itself, ascending
	propose []sm.AppCall // what ModelAppCalls offers
}

// promiseInfo records one received Promise in arrival order (arrival order
// is what bug 1 depends on).
type promiseInfo struct {
	From          sm.NodeID
	AcceptedRound uint64
	AcceptedVal   int64
	HasAccepted   bool
}

// Paxos is the per-node state machine.
type Paxos struct {
	// Self and the three flags share one word (each bool in a word of its
	// own put the struct in the 144-byte class; it is 112 bytes this way):
	// HasAccepted is acceptor state, Proposing and AcceptSent proposer state.
	Self        sm.NodeID
	HasAccepted bool
	Proposing   bool
	AcceptSent  bool

	// Acceptor state (the part bug 2 fails to persist).
	PromisedRound uint64
	AcceptedRound uint64
	AcceptedVal   int64

	// Proposer state.
	CurRound   uint64
	ProposeVal int64
	Promises   []promiseInfo

	// Learner state: round -> sender -> learned value.
	Learns map[uint64]map[sm.NodeID]int64
	// ChosenVals lists the distinct values this node has observed chosen
	// (more than one entry is itself a local violation).
	ChosenVals []int64

	cfg *member
}

// Majority returns the quorum size.
func (p *Paxos) Majority() int { return len(p.cfg.Members)/2 + 1 }

func (p *Paxos) memberIndex() uint64 {
	for i, m := range p.cfg.Members {
		if m == p.Self {
			return uint64(i)
		}
	}
	return 0
}

// NextRound returns a fresh round number unique to this proposer and larger
// than anything the node has seen.
func (p *Paxos) NextRound() uint64 {
	n := uint64(len(p.cfg.Members))
	if n == 0 {
		n = 1
	}
	base := p.PromisedRound
	if p.CurRound > base {
		base = p.CurRound
	}
	return (base/n+1)*n + p.memberIndex()
}

// Messages.

// Prepare is step 1.
type Prepare struct{ Round uint64 }

// MsgType implements sm.Message.
func (Prepare) MsgType() string { return "Prepare" }

// Size implements sm.Message.
func (Prepare) Size() int { return 12 }

// EncodeMsg implements sm.Message.
func (m Prepare) EncodeMsg(e *sm.Encoder) { e.Uint64(m.Round) }

// Promise is step 2.
type Promise struct {
	Round         uint64
	AcceptedRound uint64
	AcceptedVal   int64
	HasAccepted   bool
}

// MsgType implements sm.Message.
func (Promise) MsgType() string { return "Promise" }

// Size implements sm.Message.
func (Promise) Size() int { return 25 }

// EncodeMsg implements sm.Message.
func (m Promise) EncodeMsg(e *sm.Encoder) {
	e.Uint64(m.Round)
	e.Uint64(m.AcceptedRound)
	e.Int64(m.AcceptedVal)
	e.Bool(m.HasAccepted)
}

// Accept is step 3.
type Accept struct {
	Round uint64
	Val   int64
}

// MsgType implements sm.Message.
func (Accept) MsgType() string { return "Accept" }

// Size implements sm.Message.
func (Accept) Size() int { return 16 }

// EncodeMsg implements sm.Message.
func (m Accept) EncodeMsg(e *sm.Encoder) { e.Uint64(m.Round); e.Int64(m.Val) }

// Learn is step 4.
type Learn struct {
	Round uint64
	Val   int64
}

// MsgType implements sm.Message.
func (Learn) MsgType() string { return "Learn" }

// Size implements sm.Message.
func (Learn) Size() int { return 16 }

// EncodeMsg implements sm.Message.
func (m Learn) EncodeMsg(e *sm.Encoder) { e.Uint64(m.Round); e.Int64(m.Val) }

// Propose is the application call starting a proposal. Round 0 lets the
// node pick the next free round.
type Propose struct {
	Val   int64
	Round uint64
}

// CallName implements sm.AppCall.
func (Propose) CallName() string { return "Propose" }

// EncodeCall implements sm.AppCall.
func (m Propose) EncodeCall(e *sm.Encoder) { e.Int64(m.Val); e.Uint64(m.Round) }

// Init implements sm.Service.
func (p *Paxos) Init(ctx sm.Context) {}

// HandleApp implements sm.Service.
func (p *Paxos) HandleApp(ctx sm.Context, call sm.AppCall) {
	m, ok := call.(Propose)
	if !ok {
		return
	}
	round := m.Round
	if round == 0 {
		round = p.NextRound()
	}
	p.CurRound = round
	p.ProposeVal = m.Val
	p.Proposing = true
	p.AcceptSent = false
	p.Promises = nil
	for _, n := range p.cfg.Members {
		ctx.Send(n, Prepare{Round: round})
	}
}

// HandleMessage implements sm.Service.
func (p *Paxos) HandleMessage(ctx sm.Context, from sm.NodeID, msg sm.Message) {
	switch m := msg.(type) {
	case Prepare:
		p.handlePrepare(ctx, from, m)
	case Promise:
		p.handlePromise(ctx, from, m)
	case Accept:
		p.handleAccept(ctx, from, m)
	case Learn:
		p.handleLearn(ctx, from, m)
	}
}

func (p *Paxos) handlePrepare(ctx sm.Context, from sm.NodeID, m Prepare) {
	if m.Round <= p.PromisedRound {
		return // already promised a round at least this high
	}
	p.PromisedRound = m.Round
	ctx.Send(from, Promise{
		Round:         m.Round,
		AcceptedRound: p.AcceptedRound,
		AcceptedVal:   p.AcceptedVal,
		HasAccepted:   p.HasAccepted,
	})
}

func (p *Paxos) handlePromise(ctx sm.Context, from sm.NodeID, m Promise) {
	if !p.Proposing || m.Round != p.CurRound || p.AcceptSent {
		return
	}
	for _, pi := range p.Promises {
		if pi.From == from {
			return // duplicate
		}
	}
	p.Promises = append(p.Promises, promiseInfo{
		From:          from,
		AcceptedRound: m.AcceptedRound,
		AcceptedVal:   m.AcceptedVal,
		HasAccepted:   m.HasAccepted,
	})
	if len(p.Promises) < p.Majority() {
		return
	}
	// Step 3: pick the value for the Accept request.
	val := p.ProposeVal
	if p.cfg.Bug1 {
		// Bug 1: "using the submitted value from the last Promise
		// message instead of the Promise message with highest round
		// number". A last promise with no accepted value leaves the
		// leader free to push its own value even when an earlier
		// promise reported one.
		last := p.Promises[len(p.Promises)-1]
		if last.HasAccepted {
			val = last.AcceptedVal
		}
	} else {
		var bestRound uint64
		has := false
		for _, pi := range p.Promises {
			if pi.HasAccepted && (!has || pi.AcceptedRound > bestRound) {
				has = true
				bestRound = pi.AcceptedRound
				val = pi.AcceptedVal
			}
		}
	}
	p.AcceptSent = true
	for _, n := range p.cfg.Members {
		ctx.Send(n, Accept{Round: p.CurRound, Val: val})
	}
}

func (p *Paxos) handleAccept(ctx sm.Context, from sm.NodeID, m Accept) {
	if m.Round < p.PromisedRound {
		return // promised a higher round in the meanwhile
	}
	p.PromisedRound = m.Round
	p.AcceptedRound = m.Round
	p.AcceptedVal = m.Val
	p.HasAccepted = true
	for _, n := range p.cfg.Members {
		ctx.Send(n, Learn{Round: m.Round, Val: m.Val})
	}
}

func (p *Paxos) handleLearn(ctx sm.Context, from sm.NodeID, m Learn) {
	senders := p.Learns[m.Round]
	if senders == nil {
		if p.Learns == nil { // most states have learned nothing: the map waits for the first Learn
			p.Learns = make(map[uint64]map[sm.NodeID]int64)
		}
		senders = make(map[sm.NodeID]int64)
		p.Learns[m.Round] = senders
	}
	senders[from] = m.Val
	count := 0
	for _, v := range senders {
		if v == m.Val {
			count++
		}
	}
	if count >= p.Majority() {
		for _, v := range p.ChosenVals {
			if v == m.Val {
				return
			}
		}
		p.ChosenVals = append(p.ChosenVals, m.Val)
	}
}

// HandleTimer implements sm.Service (Paxos proposals are driven by the
// application in this minimal implementation).
func (p *Paxos) HandleTimer(ctx sm.Context, t sm.TimerID) {}

// HandleTransportError implements sm.Service: Paxos tolerates message loss
// natively; nothing to clean up.
func (p *Paxos) HandleTransportError(ctx sm.Context, peer sm.NodeID) {}

// Neighbors implements sm.Service: the full member list — consensus
// properties span every participant.
func (p *Paxos) Neighbors() []sm.NodeID { return p.cfg.peers }

// StableBytes implements sm.StableStore: a correct acceptor persists its
// promise and accepted value; with Bug2 nothing reaches the disk.
func (p *Paxos) StableBytes() []byte {
	if p.cfg.Bug2 {
		return nil
	}
	e := sm.NewEncoder()
	e.Uint64(p.PromisedRound)
	e.Uint64(p.AcceptedRound)
	e.Int64(p.AcceptedVal)
	e.Bool(p.HasAccepted)
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out
}

// RestoreStable implements sm.StableStore.
func (p *Paxos) RestoreStable(data []byte) {
	d := sm.NewDecoder(data)
	p.PromisedRound = d.Uint64()
	p.AcceptedRound = d.Uint64()
	p.AcceptedVal = d.Int64()
	p.HasAccepted = d.Bool()
}

// Clone implements sm.Service.
func (p *Paxos) Clone() sm.Service { return p.CloneInto(nil) }

// CloneInto implements sm.Service: dst's struct, promise and chosen lists
// and learn maps are reused; a round's sender map survives only under the
// same round.
func (p *Paxos) CloneInto(dst sm.Service) sm.Service {
	out, ok := dst.(*Paxos)
	if !ok {
		out = new(Paxos)
	}
	promises, learns, chosen := out.Promises, out.Learns, out.ChosenVals
	*out = *p
	out.Promises = append(promises[:0], p.Promises...)
	out.ChosenVals = append(chosen[:0], p.ChosenVals...)
	out.Learns = nil
	if len(p.Learns) > 0 {
		if learns == nil {
			learns = make(map[uint64]map[sm.NodeID]int64, len(p.Learns))
		}
		for r := range learns {
			if _, keep := p.Learns[r]; !keep {
				delete(learns, r)
			}
		}
		for r, senders := range p.Learns {
			learns[r] = sm.CopyMap(learns[r], senders)
		}
		out.Learns = learns
	}
	return out
}

// EncodeState implements sm.Service.
//
//crystal:hotpath
func (p *Paxos) EncodeState(e *sm.Encoder) {
	e.NodeID(p.Self)
	e.Uint64(p.PromisedRound)
	e.Uint64(p.AcceptedRound)
	e.Int64(p.AcceptedVal)
	e.Bool(p.HasAccepted)
	e.Uint64(p.CurRound)
	e.Bool(p.Proposing)
	e.Int64(p.ProposeVal)
	e.Bool(p.AcceptSent)
	e.Uint32(uint32(len(p.Promises)))
	for _, pi := range p.Promises {
		e.NodeID(pi.From)
		e.Uint64(pi.AcceptedRound)
		e.Int64(pi.AcceptedVal)
		e.Bool(pi.HasAccepted)
	}
	var roundBuf [4]uint64 // on the stack for any realistic learner
	rounds := roundBuf[:0]
	for r := range p.Learns {
		rounds = append(rounds, r)
	}
	slices.Sort(rounds)
	e.Uint32(uint32(len(rounds)))
	for _, r := range rounds {
		e.Uint64(r)
		senders := p.Learns[r]
		var idBuf [8]sm.NodeID
		ids := idBuf[:0]
		for n := range senders {
			ids = append(ids, n)
		}
		slices.Sort(ids)
		e.Uint32(uint32(len(ids)))
		for _, n := range ids {
			e.NodeID(n)
			e.Int64(senders[n])
		}
	}
	e.Uint32(uint32(len(p.ChosenVals)))
	for _, v := range p.ChosenVals {
		e.Int64(v)
	}
}

// DecodeState implements sm.Service.
func (p *Paxos) DecodeState(d *sm.Decoder) error {
	p.Self = d.NodeID()
	p.PromisedRound = d.Uint64()
	p.AcceptedRound = d.Uint64()
	p.AcceptedVal = d.Int64()
	p.HasAccepted = d.Bool()
	p.CurRound = d.Uint64()
	p.Proposing = d.Bool()
	p.ProposeVal = d.Int64()
	p.AcceptSent = d.Bool()
	n := d.Count(21)
	p.Promises = nil
	for i := 0; i < n && d.Err() == nil; i++ {
		p.Promises = append(p.Promises, promiseInfo{
			From:          d.NodeID(),
			AcceptedRound: d.Uint64(),
			AcceptedVal:   d.Int64(),
			HasAccepted:   d.Bool(),
		})
	}
	nr := d.Count(12)
	p.Learns = nil
	if nr > 0 {
		p.Learns = make(map[uint64]map[sm.NodeID]int64, nr)
	}
	for i := 0; i < nr && d.Err() == nil; i++ {
		r := d.Uint64()
		ns := d.Count(12)
		senders := make(map[sm.NodeID]int64, ns)
		for j := 0; j < ns && d.Err() == nil; j++ {
			id := d.NodeID()
			senders[id] = d.Int64()
		}
		p.Learns[r] = senders
	}
	nc := d.Count(8)
	p.ChosenVals = nil
	for i := 0; i < nc && d.Err() == nil; i++ {
		p.ChosenVals = append(p.ChosenVals, d.Int64())
	}
	return d.Err()
}

// ModelAppCalls implements sm.ModelActions: any node that is not already
// driving a proposal may become the next leader (the paper's Figure 13 has
// B — a round-1 participant — propose round 2), so the checker explores a
// proposal from it with a value derived from its identity.
func (p *Paxos) ModelAppCalls() []sm.AppCall {
	if p.Proposing || p.AcceptSent {
		return nil
	}
	return p.cfg.propose
}
