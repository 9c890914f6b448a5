package sm

import "fmt"

// Event is one step of a distributed-system execution: the unit in which
// the model checker explores (paper Figure 4's transition relation), the
// runtime executes, and violation reports are expressed.
type Event interface {
	// Node returns the node at which the event executes.
	Node() NodeID
	// Describe renders the event for traces and reports: the text form of
	// its EventKey.
	Describe() string
	isEvent()
}

// MsgEvent is the delivery (and handling) of a network message at To.
type MsgEvent struct {
	From NodeID
	To   NodeID
	Msg  Message
}

// Node implements Event.
func (e MsgEvent) Node() NodeID { return e.To }

// Describe implements Event.
func (e MsgEvent) Describe() string { return KeyOf(e, nil).String() }
func (MsgEvent) isEvent()           {}

// TimerEvent is the firing of a timer at a node.
type TimerEvent struct {
	At    NodeID
	Timer TimerID
}

// Node implements Event.
func (e TimerEvent) Node() NodeID { return e.At }

// Describe implements Event.
func (e TimerEvent) Describe() string { return KeyOf(e, nil).String() }
func (TimerEvent) isEvent()           {}

// AppEvent is an application call arriving at a node.
type AppEvent struct {
	At   NodeID
	Call AppCall
}

// Node implements Event.
func (e AppEvent) Node() NodeID { return e.At }

// Describe implements Event.
func (e AppEvent) Describe() string { return KeyOf(e, nil).String() }
func (AppEvent) isEvent()           {}

// ResetEvent is a node crash+restart (the low-probability fault the paper's
// consequence prediction explores, e.g. "the Reset action on node n13").
type ResetEvent struct {
	At NodeID
}

// Node implements Event.
func (e ResetEvent) Node() NodeID { return e.At }

// Describe implements Event.
func (e ResetEvent) Describe() string { return KeyOf(e, nil).String() }
func (ResetEvent) isEvent()           {}

// ErrorEvent is the observation of a broken transport connection at At
// about Peer (RST arrival or stale-socket discovery).
type ErrorEvent struct {
	At   NodeID
	Peer NodeID
}

// Node implements Event.
func (e ErrorEvent) Node() NodeID { return e.At }

// Describe implements Event.
func (e ErrorEvent) Describe() string { return KeyOf(e, nil).String() }
func (ErrorEvent) isEvent()           {}

// DropEvent is the loss of an in-flight RST notification; only RST-like
// control notifications can be dropped in the model (TCP payloads cannot),
// which keeps the branching factor small while still covering the paper's
// "TCP RST packet ... is lost" scenarios.
type DropEvent struct {
	From NodeID
	To   NodeID
}

// Node implements Event.
func (e DropEvent) Node() NodeID { return e.To }

// Describe implements Event.
func (e DropEvent) Describe() string { return KeyOf(e, nil).String() }
func (DropEvent) isEvent()           {}

// Filter is an event filter installed by execution steering (paper section
// 3.3): it temporarily blocks the invocation of a state-machine handler.
// For network messages the filter matches message type, source and
// destination and the runtime drops the message (optionally breaking the
// connection); for timer and application events it matches the handler
// identity and the runtime reschedules rather than drops.
type Filter struct {
	// Kind discriminates what the filter blocks.
	Kind FilterKind
	// Node is the node at which the filter is installed.
	Node NodeID
	// From matches the message sender (message filters only).
	From NodeID
	// MsgType matches Message.MsgType (message filters only).
	MsgType string
	// Timer matches the timer id (timer filters only).
	Timer TimerID
	// Call matches AppCall.CallName (app filters only).
	Call string
	// BreakConn additionally resets the connection with the sender
	// (message filters only), signalling the sender that something went
	// wrong so it cleans up its state.
	BreakConn bool
}

// FilterKind is the category of event a Filter blocks.
type FilterKind int

// Filter kinds.
const (
	FilterMessage FilterKind = iota
	FilterTimer
	FilterApp
)

// Matches reports whether the filter blocks the given event at its node:
// whether it is, BreakConn aside, the filter FilterForEvent derives for it.
func (f Filter) Matches(ev Event) bool {
	g, ok := FilterForEvent(ev)
	g.BreakConn = f.BreakConn
	return ok && g == f
}

// FilterForEvent derives the filter that would block ev, or ok=false when
// the event is not filterable (resets and transport errors are environment
// faults, not handler invocations).
func FilterForEvent(ev Event) (Filter, bool) {
	switch k := KeyOf(ev, nil); k.Kind {
	case 'M':
		return Filter{Kind: FilterMessage, Node: k.Node, From: k.From, MsgType: k.Name, BreakConn: true}, true
	case 'T':
		return Filter{Kind: FilterTimer, Node: k.Node, Timer: TimerID(k.Name)}, true
	case 'A':
		return Filter{Kind: FilterApp, Node: k.Node, Call: k.Name}, true
	default:
		return Filter{}, false
	}
}

// String renders the filter.
func (f Filter) String() string {
	switch f.Kind {
	case FilterMessage:
		return fmt.Sprintf("filter{msg %s %s->%s break=%v}", f.MsgType, f.From, f.Node, f.BreakConn)
	case FilterTimer:
		return fmt.Sprintf("filter{timer %s@%s}", f.Timer, f.Node)
	default:
		return fmt.Sprintf("filter{app %s@%s}", f.Call, f.Node)
	}
}
