package sm

// EventKey is an event's identity: what a trace prints, what a sleep set
// and a forwarded path hold, and what a violation's bug class is read from.
// It names a transition independently of the state it is enabled in —
// per-(from, to, type) FIFO delivery makes a delivery's key resolve to the
// queue head, a (node, timer) pair names the one pending timer, and an app
// call is pinned by its argument fingerprint — so among the events enabled in
// one state every key is distinct, and two events with equal keys are the
// same transition. Keys are comparable with ==.
type EventKey struct {
	Kind byte   // 'M' delivery, 'T' timer, 'A' app call, 'R' reset, 'E' transport error, 'D' RST drop
	From NodeID // M, D: sender; E: peer
	Node NodeID // the node the event executes at
	Name string // M: message type; T: timer id; A: call name
	Arg  uint64 // A: EncodeCall fingerprint (the name alone does not pin the call)
}

// appendTo appends the key's text form: the one rendering behind
// Event.Describe, every edge seed (Fold) and every printed trace.
func (k EventKey) appendTo(b []byte) []byte {
	if k.Kind == 'D' {
		b = append(b, "drop RST "...)
		b = k.From.appendTo(b)
		b = append(b, "->"...)
		return k.Node.appendTo(b)
	}
	b = k.Node.appendTo(b)
	switch k.Kind {
	case 'M':
		b = append(b, ": deliver "...)
		b = append(b, k.Name...)
		b = append(b, " from "...)
		return k.From.appendTo(b)
	case 'T':
		return append(append(b, ": timer "...), k.Name...)
	case 'A':
		return append(append(b, ": app "...), k.Name...)
	case 'R':
		return append(b, ": reset"...)
	default:
		return k.From.appendTo(append(b, ": transport error for "...))
	}
}

// String returns the key's text form, e.g. "n2: deliver Join from n1".
func (k EventKey) String() string {
	var buf [64]byte
	return string(k.appendTo(buf[:0]))
}

// Fold folds the text form into the FNV-64a state h. Nothing is allocated
// unless the text outgrows the stack buffer.
func (k EventKey) Fold(h uint64) uint64 {
	var buf [64]byte
	return FNV64aBytes(h, k.appendTo(buf[:0]))
}

// Class names the key's bug class, with node identities stripped so the same
// handler at fault counts once wherever it ran: "msg:Join", "timer:recovery",
// "app:propose", "reset", "error", "drop".
func (k EventKey) Class() string {
	switch k.Kind {
	case 'M':
		return "msg:" + k.Name
	case 'T':
		return "timer:" + k.Name
	case 'A':
		return "app:" + k.Name
	case 'R':
		return "reset"
	case 'E':
		return "error"
	default:
		return "drop"
	}
}
