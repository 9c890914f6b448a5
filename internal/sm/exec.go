package sm

import "math/rand"

// This file is the only statement of how an event becomes a handler call.
// The model checker, the runtime's immediate safety check and the live
// runtime all execute through Deliver and Restart, so the three cannot
// disagree about which handler an event runs, when a fired timer stops being
// pending, or what survives a crash.

// Deliver runs ev's handler on svc with effects going to ctx and reports
// whether a handler ran: resets and drops run none. Timers are one-shot: the
// fired timer is cancelled through ctx before HandleTimer runs, so the
// handler sees it not pending and a periodic service re-arms it.
//
//crystal:hotpath
func Deliver(svc Service, ctx Context, ev Event) bool {
	switch ev.Kind {
	case 'M':
		svc.HandleMessage(ctx, ev.From, ev.Msg)
	case 'T':
		ctx.CancelTimer(TimerID(ev.Name))
		svc.HandleTimer(ctx, TimerID(ev.Name))
	case 'A':
		svc.HandleApp(ctx, ev.Call)
	case 'E':
		svc.HandleTransportError(ctx, ev.From)
	default:
		return false
	}
	return true
}

// Restart returns the instance node id runs after a crash: fresh from
// factory, with old's stable storage (if both keep any) restored, and not
// yet Init-ed — the caller runs Init with its own context.
func Restart(factory Factory, id NodeID, old Service) Service {
	fresh := factory(id)
	if from, ok := old.(StableStore); ok {
		if to, ok := fresh.(StableStore); ok {
			if data := from.StableBytes(); data != nil {
				to.RestoreStable(data)
			}
		}
	}
	return fresh
}

// Outgoing is one message a handler asked to send.
type Outgoing struct {
	To  NodeID
	Msg Message
}

// Effects is the Context that buffers what a handler does instead of doing
// it: sends are captured in order and timer changes edit a working copy of
// the pending set. Whoever ran the handler reads Sends and Timers afterwards
// and decides what becomes of them. An Effects is reused across invocations
// (Begin); both slices alias its buffers and are valid until the next Begin.
type Effects struct {
	Sends  []Outgoing
	Timers TimerSet

	self NodeID
	rng  *rand.Rand
}

// Begin readies the context for one handler invocation at self, starting
// from the pending-timer set timers, which is copied and never written.
//
//crystal:hotpath
func (c *Effects) Begin(self NodeID, timers TimerSet, rng *rand.Rand) {
	c.self, c.rng = self, rng
	c.Timers = append(c.Timers[:0], timers...)
	c.Sends = c.Sends[:0]
}

// Effects implements Context. Buffered time does not pass, so SetTimer
// records only that the timer is pending.

func (c *Effects) Self() NodeID                   { return c.self }
func (c *Effects) Send(to NodeID, msg Message)    { c.Sends = append(c.Sends, Outgoing{to, msg}) }
func (c *Effects) SetTimer(t TimerID, d Duration) { c.Timers.Add(t) }
func (c *Effects) CancelTimer(t TimerID)          { c.Timers.Remove(t) }
func (c *Effects) TimerPending(t TimerID) bool    { return c.Timers.Has(t) }
func (c *Effects) Rand() *rand.Rand               { return c.rng }
