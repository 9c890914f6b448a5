package sm

// Event is one step of a distributed-system execution: the unit in which
// the model checker explores (paper Figure 4's transition relation), the
// runtime executes, and violation reports are expressed. It is its key —
// the event's identity (EventKey) — plus the payload a key does not hold:
// the message a delivery carries and the call an app event makes. Build one
// with the constructor of its kind, which keeps the key and the payload in
// step: a delivery's Name is its Msg.MsgType(), an app call's its
// Call.CallName().
type Event struct {
	EventKey
	Msg  Message // 'M': the message delivered
	Call AppCall // 'A': the call made
}

// Delivery is the delivery (and handling) at to of msg, sent by from. Its
// key's Arg is zero: the payload is no part of a delivery's identity (DescOf).
func Delivery(from, to NodeID, msg Message) Event {
	return Event{EventKey: EventKey{Kind: 'M', From: from, Node: to, Name: msg.MsgType()}, Msg: msg}
}

// TimerFiring is the firing of timer t at a node.
func TimerFiring(at NodeID, t TimerID) Event {
	return Event{EventKey: EventKey{Kind: 'T', Node: at, Name: string(t)}}
}

// AppInvocation is call arriving at a node. enc fingerprints the call into
// Arg, the part of the key that tells two same-named calls apart; with a nil
// enc Arg stays zero, which is all an event that is only executed, printed
// or filtered needs.
func AppInvocation(at NodeID, call AppCall, enc *Encoder) Event {
	ev := Event{EventKey: EventKey{Kind: 'A', Node: at, Name: call.CallName()}, Call: call}
	if enc != nil {
		enc.Reset()
		call.EncodeCall(enc)
		ev.Arg = enc.Hash()
	}
	return ev
}

// Reset is a node crash+restart (the low-probability fault the paper's
// consequence prediction explores, e.g. "the Reset action on node n13").
func Reset(at NodeID) Event { return Event{EventKey: EventKey{Kind: 'R', Node: at}} }

// TransportError is the observation at a node of a broken transport
// connection to peer (RST arrival or stale-socket discovery). An RST-derived
// error and a spontaneous conn-break of the same pair are one transition.
func TransportError(at, peer NodeID) Event {
	return Event{EventKey: EventKey{Kind: 'E', From: peer, Node: at}}
}

// RSTDrop is the loss of an in-flight RST notification from from to to;
// only RST-like control notifications can be dropped in the model (TCP
// payloads cannot), which keeps the branching factor small while still
// covering the paper's "TCP RST packet ... is lost" scenarios.
func RSTDrop(from, to NodeID) Event {
	return Event{EventKey: EventKey{Kind: 'D', From: from, Node: to}}
}

// Describe renders the event for traces and reports: the text form of its
// key.
func (e Event) Describe() string { return e.EventKey.String() }

// DescOf returns ev's descriptor: its key plus, for a delivery, the
// fingerprint of the message it carries. That is the form a path takes
// wherever it is stored without its events — a search tree's edges, a sleep
// promise's entering transition, a forwarded path on a wire. The payload is
// no part of the delivery's identity (the FIFO head is), so a descriptor with
// Arg cleared is the key again; the fingerprint is there to be checked when
// the path is replayed.
func DescOf(ev Event, enc *Encoder) EventKey {
	k := ev.EventKey
	if k.Kind == 'M' {
		k.Arg = PayloadHash(ev.Msg, enc)
	}
	return k
}

// PayloadHash fingerprints the message a delivery carries.
func PayloadHash(msg Message, enc *Encoder) uint64 {
	enc.Reset()
	msg.EncodeMsg(enc)
	return enc.Hash()
}

// Filter is an event filter installed by execution steering (paper section
// 3.3): it temporarily blocks the invocation of a state-machine handler, and
// a handler invocation is what an event key names. Key is that key with Arg
// zero — a filter names the handler, not the payload — so one filter blocks
// every delivery of a message type from one sender, every firing of a timer
// or every call of a name at Key.Node. The runtime drops a filtered message
// and the checker takes it out of flight; with BreakConn both also reset the
// connection, signalling the sender that something went wrong so it cleans
// up its state. The runtime reschedules a filtered timer and the checker
// leaves it pending. The runtime drops a filtered app call and the checker
// suppresses it; neither reschedules it.
type Filter struct {
	Key       EventKey
	BreakConn bool
}

// FilterForEvent derives the filter that blocks ev's handler — a message
// filter breaks the connection — or ok=false when ev invokes none: resets,
// transport errors and RST drops are environment faults.
func FilterForEvent(ev Event) (Filter, bool) {
	switch ev.Kind {
	case 'M', 'T', 'A':
		k := ev.EventKey
		k.Arg = 0
		return Filter{Key: k, BreakConn: ev.Kind == 'M'}, true
	default:
		return Filter{}, false
	}
}

// Matches reports whether f blocks ev: whether ev's key, Arg aside, is f's.
func (f Filter) Matches(ev Event) bool {
	k := ev.EventKey
	k.Arg = 0
	return k == f.Key
}

// FilterFor returns the first of fs that blocks ev, if any: the one rule by
// which the runtime and the checker alike decide that ev is filtered.
func FilterFor(fs []Filter, ev Event) (Filter, bool) {
	for _, f := range fs {
		if f.Matches(ev) {
			return f, true
		}
	}
	return Filter{}, false
}
