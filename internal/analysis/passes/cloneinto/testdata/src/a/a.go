// Package a exercises the cloneinto pass: a service's Clone is exactly
// CloneInto(nil), and every type with a Clone declares its own CloneInto.
package a

// Service models sm.Service's copy methods.
type Service interface {
	Clone() Service
	CloneInto(dst Service) Service
}

// Counter is a well-formed service: one copy body.
type Counter struct{ peers []int }

func (c *Counter) Clone() Service { return c.CloneInto(nil) }

func (c *Counter) CloneInto(dst Service) Service {
	out, ok := dst.(*Counter)
	if !ok {
		out = new(Counter)
	}
	peers := out.peers
	*out = *c
	out.peers = append(peers[:0], c.peers...)
	return out
}

// Wrapped embeds a service and declares both methods: its copies stay
// Wrapped.
type Wrapped struct{ *Counter }

func (w Wrapped) Clone() Service { return w.CloneInto(nil) }

func (w Wrapped) CloneInto(dst Service) Service {
	d, _ := dst.(Wrapped)
	var into Service
	if d.Counter != nil {
		into = d.Counter
	}
	return Wrapped{w.Counter.CloneInto(into).(*Counter)}
}

// Promoted overrides Clone but inherits Counter's CloneInto, which returns a
// bare *Counter.
type Promoted struct{ *Counter }

func (p Promoted) Clone() Service { return p.CloneInto(nil) } // want `Promoted declares Clone but not CloneInto: it inherits the embedded service's`

// TwoBodies copies itself in Clone as well as in CloneInto.
type TwoBodies struct{ n int }

func (t *TwoBodies) Clone() Service { // want `the body of TwoBodies.Clone must be exactly`
	c := *t
	return &c
}

func (t *TwoBodies) CloneInto(dst Service) Service { return &TwoBodies{n: t.n} }

// Extra does something before the call.
type Extra struct{ n int }

func (e *Extra) Clone() Service { // want `the body of Extra.Clone must be exactly`
	e.n++
	return e.CloneInto(nil)
}

func (e *Extra) CloneInto(dst Service) Service { return &Extra{n: e.n} }

// Other clones another value, and passes a destination.
type Other struct{ n int }

var spare = &Other{}

func (o *Other) Clone() Service { return spare.CloneInto(nil) } // want `the body of Other.Clone must be exactly`

func (o *Other) CloneInto(dst Service) Service { return o.CloneInto(spare) } // fine: not Clone

// Reused passes a spare instead of nil.
type Reused struct{ n int }

func (r *Reused) Clone() Service { return r.CloneInto(spare) } // want `the body of Reused.Clone must be exactly`

func (r *Reused) CloneInto(dst Service) Service { return &Reused{n: r.n} }

// Lone has no CloneInto anywhere and does not implement Service.
type Lone struct{}

func (l *Lone) Clone() Service { return nil } // want `Lone declares Clone but not CloneInto: a service's one copy body is CloneInto` `the body of Lone.Clone must be exactly`

// Snapshot's Clone returns its own type, not a Service: not checked.
type Snapshot struct{ n int }

func (s *Snapshot) Clone() *Snapshot { c := *s; return &c }
