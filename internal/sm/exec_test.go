package sm

import (
	"fmt"
	"slices"
	"testing"
)

type ping struct{}

func (ping) MsgType() string      { return "Ping" }
func (ping) Size() int            { return 1 }
func (ping) EncodeMsg(e *Encoder) {}

type poke struct{}

func (poke) CallName() string      { return "Poke" }
func (poke) EncodeCall(e *Encoder) {}

// probe records which handler ran with what, and what its timer handler saw.
type probe struct {
	calls       []string
	rearm       bool
	sawPending  bool // TimerPending(t) inside HandleTimer(t)
	initialised bool
}

func (p *probe) Init(ctx Context) { p.initialised = true }
func (p *probe) HandleMessage(ctx Context, from NodeID, msg Message) {
	p.calls = append(p.calls, fmt.Sprintf("msg %s from %s", msg.MsgType(), from))
	ctx.Send(from, msg)
}
func (p *probe) HandleTimer(ctx Context, t TimerID) {
	p.calls = append(p.calls, "timer "+string(t))
	p.sawPending = ctx.TimerPending(t)
	if p.rearm {
		ctx.SetTimer(t, Second)
	}
}
func (p *probe) HandleApp(ctx Context, call AppCall) {
	p.calls = append(p.calls, "app "+call.CallName())
}
func (p *probe) HandleTransportError(ctx Context, peer NodeID) {
	p.calls = append(p.calls, "error "+peer.String())
}
func (p *probe) Neighbors() []NodeID { return nil }
func (p *probe) Clone() Service      { return p.CloneInto(nil) }
func (p *probe) CloneInto(dst Service) Service {
	out, ok := dst.(*probe)
	if !ok {
		out = new(probe)
	}
	calls := out.calls
	*out = *p
	out.calls = append(calls[:0], p.calls...)
	return out
}
func (p *probe) EncodeState(e *Encoder)       {}
func (p *probe) DecodeState(d *Decoder) error { return nil }

// diskProbe is a probe with stable storage.
type diskProbe struct {
	probe
	disk     []byte
	restores int
}

func (p *diskProbe) StableBytes() []byte       { return p.disk }
func (p *diskProbe) RestoreStable(data []byte) { p.disk, p.restores = slices.Clone(data), p.restores+1 }

func TestDeliverRunsTheHandlerTheEventNames(t *testing.T) {
	for _, tc := range []struct {
		ev   Event
		want string // "" = no handler runs
	}{
		{Delivery(2, 1, ping{}), "msg Ping from n2"},
		{TimerFiring(1, "tick"), "timer tick"},
		{AppInvocation(1, poke{}, nil), "app Poke"},
		{TransportError(1, 3), "error n3"},
		{Reset(1), ""},
		{RSTDrop(2, 1), ""},
	} {
		var p probe
		var fx Effects
		fx.Begin(1, nil, nil)
		ran := Deliver(&p, &fx, tc.ev)
		if ran != (tc.want != "") {
			t.Errorf("%s: Deliver reports ran=%v", tc.ev.Describe(), ran)
		}
		if tc.want == "" && len(p.calls) != 0 || tc.want != "" && !slices.Equal(p.calls, []string{tc.want}) {
			t.Errorf("%s: handlers run: %q, want %q", tc.ev.Describe(), p.calls, tc.want)
		}
	}
}

func TestDeliverConsumesTheTimerBeforeItsHandler(t *testing.T) {
	for _, rearm := range []bool{false, true} {
		p := probe{rearm: rearm}
		var fx Effects
		fx.Begin(1, TimerSet{"other", "tick"}, nil)
		Deliver(&p, &fx, TimerFiring(1, "tick"))
		if p.sawPending {
			t.Errorf("rearm=%v: the handler saw its own timer still pending", rearm)
		}
		want := TimerSet{"other"}
		if rearm {
			want = TimerSet{"other", "tick"}
		}
		if !fx.Timers.Equal(want) {
			t.Errorf("rearm=%v: pending set after the handler is %v, want %v", rearm, fx.Timers, want)
		}
	}
}

func TestRestartCarriesStableStorageOnly(t *testing.T) {
	plain := func(NodeID) Service { return &probe{} }
	disk := func(NodeID) Service { return &diskProbe{} }

	old := &diskProbe{probe: probe{calls: []string{"lived"}}, disk: []byte("promise")}
	fresh := Restart(disk, 1, old).(*diskProbe)
	if string(fresh.disk) != "promise" || fresh.restores != 1 {
		t.Errorf("stable storage not restored: disk=%q after %d restores", fresh.disk, fresh.restores)
	}
	if len(fresh.calls) != 0 || fresh.initialised {
		t.Errorf("restarted instance is not fresh and pre-Init: calls=%q initialised=%v", fresh.calls, fresh.initialised)
	}
	if fresh := Restart(disk, 1, &diskProbe{}).(*diskProbe); fresh.restores != 0 {
		t.Error("RestoreStable called although nothing was persisted")
	}
	if _, ok := Restart(plain, 1, &probe{calls: []string{"lived"}}).(*probe); !ok {
		t.Error("a service without stable storage did not restart from its factory")
	}
	// Storage on one side only: nothing to carry, nothing to carry it into.
	if fresh := Restart(disk, 1, &probe{}).(*diskProbe); fresh.restores != 0 {
		t.Error("restored from a service that keeps no stable storage")
	}
	if _, ok := Restart(plain, 1, old).(*probe); !ok {
		t.Error("a fresh instance without stable storage did not come from its factory")
	}
}

func TestEffectsBeginNeverWritesTheSetItLoads(t *testing.T) {
	backing := []TimerID{"a", "b", "c", "spare"}
	parent := TimerSet(backing[:3]) // room to grow in place, were anyone to append
	var fx Effects
	fx.Begin(1, parent, nil)
	fx.CancelTimer("a")
	fx.SetTimer("d", Second)
	fx.Send(2, ping{})
	if !slices.Equal(backing, []TimerID{"a", "b", "c", "spare"}) {
		t.Fatalf("the loaded set's storage was written: %v", backing)
	}
	if !fx.Timers.Equal(TimerSet{"b", "c", "d"}) || fx.TimerPending("a") || !fx.TimerPending("d") {
		t.Fatalf("working set is %v, want [b c d]", fx.Timers)
	}
	if len(fx.Sends) != 1 || fx.Sends[0] != (Outgoing{To: 2, Msg: ping{}}) {
		t.Fatalf("captured sends: %v", fx.Sends)
	}
	// The next invocation starts from its own set and no sends.
	fx.Begin(7, parent, nil)
	if fx.Self() != 7 || len(fx.Sends) != 0 || !fx.Timers.Equal(parent) {
		t.Fatalf("Begin left self=%v sends=%v timers=%v", fx.Self(), fx.Sends, fx.Timers)
	}
}
