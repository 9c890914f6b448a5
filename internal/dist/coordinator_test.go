package dist

import (
	"fmt"
	"sync"
	"testing"

	"crystalball/internal/mc"
)

// quiet is a scripted reply that says nothing (nil means "answer as an
// honest shard would").
var quiet = []Msg{}

// hangUp is a scripted action, not a message: the shard closes its end of
// the pipe.
type hangUp struct{}

func (hangUp) kind() byte { return 0 }

// refuse is a hub-side connection whose Send fails for one message kind.
type refuse struct {
	Conn
	kind byte
}

func (r refuse) Send(m Msg) error {
	if m.kind() == r.kind {
		return ErrClosed
	}
	return r.Conn.Send(m)
}

// script answers message m of attempt n (1-based, counted by round starts)
// on a scripted shard; nil is an honest answer.
type script func(n int, m Msg) []Msg

// inAttempt1 scripts the reply to one message kind in the first attempt.
func inAttempt1(kind byte, reply ...Msg) script {
	return func(n int, m Msg) []Msg {
		if n == 1 && m.kind() == kind {
			return reply
		}
		return nil
	}
}

// scripted serves the far side of a pipe like a shard that finds nothing:
// it idles on every round start, reports on round end and acks every abort,
// except where play says otherwise.
func scripted(id int, side Conn, play script) {
	slot, n := 0, 0
	for {
		m, err := side.Recv()
		if err != nil {
			return
		}
		var replies []Msg
		switch v := m.(type) {
		case RoundStart:
			slot, n = v.Slot, n+1
			replies = []Msg{Idle{Shard: slot}}
		case RoundEnd:
			replies = []Msg{ShardReport{Shard: slot, Stop: mc.FrontierEmpty}}
		case RoundAbort:
			replies = []Msg{AbortAck{Shard: id, Round: v.Round}}
		case Shutdown:
			return
		}
		if play != nil {
			if r := play(n, m); r != nil {
				replies = r
			}
		}
		for _, r := range replies {
			if _, ok := r.(hangUp); ok {
				side.Close()
				return
			}
			if side.Send(r) != nil {
				return
			}
		}
	}
}

// reportsVio scripts the shard holding slot to report one violation of props.
func reportsVio(slot int, depth int32, hash uint64, props ...string) script {
	return inAttempt1(kindRoundEnd, ShardReport{Shard: slot, Stop: mc.FrontierEmpty,
		Violations: []Violation{{Props: props, Depth: depth, StateHash: hash}}})
}

// TestDeathRules pins the coordinator's one death rule phase by phase: a
// connection error is "conn", a Fault "fault" and a message the phase
// refuses "protocol". Shard 1 (or both) is scripted; the other side of each pipe is a
// plain hub connection, so every row is deterministic. A round that loses
// every shard finishes on the floor (chord, depth 2).
func TestDeathRules(t *testing.T) {
	g, cfg := chordStart(t)
	faultAtStart := inAttempt1(kindRoundStart, Fault{Shard: 1, Err: "boom"})
	rows := []struct {
		name   string
		play   map[int]script
		refuse map[int]byte
		want   string
	}{
		{name: "start: RoundStart send fails", refuse: map[int]byte{1: kindRoundStart},
			want: "retries=1 final=1 deaths[r1a1s1:conn]"},

		{name: "relay: misrouted Batch", play: map[int]script{1: inAttempt1(kindRoundStart, Batch{From: 0, To: 0})},
			want: "retries=1 final=1 deaths[r1a1s1:protocol]"},
		{name: "relay: Batch for no slot", play: map[int]script{1: inAttempt1(kindRoundStart, Batch{From: 1, To: 2})},
			want: "retries=1 final=1 deaths[r1a1s1:protocol]"},
		{name: "relay: destination send fails", refuse: map[int]byte{0: kindBatch},
			play: map[int]script{1: inAttempt1(kindRoundStart, Batch{From: 1, To: 0})},
			want: "retries=1 final=1 deaths[r1a1s0:conn]"},
		{name: "relay: Idle for another slot", play: map[int]script{1: inAttempt1(kindRoundStart, Idle{Shard: 0})},
			want: "retries=1 final=1 deaths[r1a1s1:protocol]"},
		{name: "relay: Idle overshoots the relay count", play: map[int]script{1: inAttempt1(kindRoundStart, Idle{Shard: 1, Received: 1})},
			want: "retries=1 final=1 deaths[r1a1s1:protocol]"},
		{name: "relay: unexpected message", play: map[int]script{1: inAttempt1(kindRoundStart, ShardReport{Shard: 1})},
			want: "retries=1 final=1 deaths[r1a1s1:protocol]"},
		{name: "relay: Fault", play: map[int]script{1: faultAtStart},
			want: "retries=1 final=1 deaths[r1a1s1:fault]"},
		{name: "relay: conn error", play: map[int]script{1: inAttempt1(kindRoundStart, hangUp{})},
			want: "retries=1 final=1 deaths[r1a1s1:conn]"},

		{name: "round end: RoundEnd send fails", refuse: map[int]byte{1: kindRoundEnd},
			want: "retries=1 final=1 deaths[r1a1s1:conn]"},

		{name: "report: conn error", play: map[int]script{1: inAttempt1(kindRoundEnd, hangUp{})},
			want: "retries=1 final=1 deaths[r1a1s1:conn]"},
		{name: "report: for another slot", play: map[int]script{1: inAttempt1(kindRoundEnd, ShardReport{Shard: 0})},
			want: "retries=1 final=1 deaths[r1a1s1:protocol]"},
		{name: "report: duplicate", play: map[int]script{
			0: inAttempt1(kindRoundEnd, quiet...),
			1: inAttempt1(kindRoundEnd, ShardReport{Shard: 1}, ShardReport{Shard: 1})},
			want: "retries=1 final=1 deaths[r1a1s1:protocol]"},
		{name: "report: Fault", play: map[int]script{1: inAttempt1(kindRoundEnd, Fault{Shard: 1, Err: "boom"})},
			want: "retries=1 final=1 deaths[r1a1s1:fault]"},
		{name: "report: unexpected message", play: map[int]script{1: inAttempt1(kindRoundEnd, Idle{Shard: 1})},
			want: "retries=1 final=1 deaths[r1a1s1:protocol]"},

		{name: "abort: RoundAbort send fails", refuse: map[int]byte{0: kindAbort},
			play: map[int]script{1: faultAtStart},
			want: "retries=1 serial final=0 deaths[r1a1s0:conn r1a1s1:fault]"},
		{name: "abort: conn error", play: map[int]script{0: inAttempt1(kindAbort, hangUp{}), 1: faultAtStart},
			want: "retries=1 serial final=0 deaths[r1a1s0:conn r1a1s1:fault]"},
		{name: "abort: bad AbortAck", play: map[int]script{
			0: inAttempt1(kindAbort, AbortAck{Shard: 0, Round: 7}), 1: faultAtStart},
			want: "retries=1 serial final=0 deaths[r1a1s0:protocol r1a1s1:fault]"},
		{name: "abort: Fault", play: map[int]script{
			0: inAttempt1(kindAbort, Fault{Shard: 0, Err: "boom"}), 1: faultAtStart},
			want: "retries=1 serial final=0 deaths[r1a1s0:fault r1a1s1:fault]"},
		{name: "abort: unexpected message", play: map[int]script{
			0: inAttempt1(kindAbort, RoundEnd{}), 1: faultAtStart},
			want: "retries=1 serial final=0 deaths[r1a1s0:protocol r1a1s1:fault]"},
		{name: "abort: stale Batch is discarded", play: map[int]script{
			0: inAttempt1(kindAbort, Batch{From: 0, To: 1}, AbortAck{Shard: 0, Round: 1}), 1: faultAtStart},
			want: "retries=1 final=1 deaths[r1a1s1:fault]"},

		{name: "merge: the shallower of one set wins in slot 0", play: map[int]script{
			0: reportsVio(0, 2, 4, "p"), 1: reportsVio(1, 3, 1, "p")},
			want: "retries=0 final=2 [[p]@2#4]"},
		{name: "merge: the shallower of one set wins in slot 1", play: map[int]script{
			0: reportsVio(0, 3, 2, "p"), 1: reportsVio(1, 2, 9, "p")},
			want: "retries=0 final=2 [[p]@2#9]"},
		{name: "merge: equal depth, the smaller hash wins", play: map[int]script{
			0: reportsVio(0, 2, 8, "p"), 1: reportsVio(1, 2, 3, "p")},
			want: "retries=0 final=2 [[p]@2#3]"},
		{name: "merge: sets ordered by depth, then hash", play: map[int]script{
			0: reportsVio(0, 2, 2, "p"), 1: reportsVio(1, 1, 7, "q")},
			want: "retries=0 final=2 [[q]@1#7 [p]@2#2]"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var wg sync.WaitGroup
			conns := make([]Conn, 2)
			for id := range conns {
				hub, side := Pipe()
				conns[id] = hub
				if k, ok := row.refuse[id]; ok {
					conns[id] = refuse{hub, k}
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					scripted(id, side, row.play[id])
				}()
			}
			coord := NewCoordinator(conns, CoordinatorConfig{Search: mc.NewSearch(cfg), Root: g})
			res, err := coord.RunRound(mc.Budget{Depth: 2, Workers: 1}, false)
			coord.Shutdown()
			wg.Wait()
			if err != nil {
				t.Fatalf("round error: %v", err)
			}
			got := res.Recovery.String()
			if len(res.Checker.Violations) > 0 {
				got += fmt.Sprint(" ", vioSummary(res.Checker.Violations))
			}
			if got != row.want {
				t.Errorf("got  %s\nwant %s", got, row.want)
			}
		})
	}
}
