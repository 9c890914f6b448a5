package dist

import (
	"fmt"
	"strings"
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

// script answers message m on a scripted shard; nil is an honest answer.
type script func(m Msg) []Msg

// on scripts the reply to one message kind.
func on(kind byte, reply ...Msg) script {
	return func(m Msg) []Msg {
		if m.kind() == kind {
			return reply
		}
		return nil
	}
}

// scripted serves the far side of shard id's pipe like a shard that finds
// nothing: it idles on every round start and reports on round end, except
// where play says otherwise.
func scripted(id int, side Conn, play script) {
	for {
		m, err := side.Recv()
		if err != nil {
			return
		}
		var replies []Msg
		switch m.(type) {
		case RoundStart:
			replies = []Msg{Idle{Shard: id}}
		case RoundEnd:
			replies = []Msg{ShardReport{Shard: id, Stop: mc.FrontierEmpty}}
		case Shutdown:
			return
		}
		if play != nil {
			if r := play(m); r != nil {
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

// reportsVio scripts shard id to report one violation of props.
func reportsVio(id int, depth int32, hash uint64, props ...string) script {
	return on(kindRoundEnd, ShardReport{Shard: id, Stop: mc.FrontierEmpty,
		Violations: []Violation{{Props: props, Depth: depth, StateHash: hash}}})
}

// TestDeathRules is the failure table: the coordinator's one rule, phase
// by phase. A connection error is "conn", a Fault "fault" and a message the
// phase refuses "protocol", and each ends RunRound with an error naming
// the round, the shard and the cause. Shard 1 (or both) is scripted; the
// other side of each pipe is a plain hub connection, so every row is
// deterministic, and a row that hangs fails the test's -timeout. The merge
// rows are rounds that succeed, and pin the shard merge's violation rule.
func TestDeathRules(t *testing.T) {
	rows := []struct {
		name   string
		play   map[int]script
		refuse map[int]byte
		want   string // "shard N: cause" for a failed round, else the merged violations
	}{
		{name: "start: RoundStart send fails", refuse: map[int]byte{1: kindRoundStart},
			want: "shard 1: conn"},

		{name: "relay: misrouted Batch", play: map[int]script{1: on(kindRoundStart, Batch{From: 0, To: 0})},
			want: "shard 1: protocol"},
		{name: "relay: Batch for no slot", play: map[int]script{1: on(kindRoundStart, Batch{From: 1, To: 2})},
			want: "shard 1: protocol"},
		{name: "relay: destination send fails", refuse: map[int]byte{0: kindBatch},
			play: map[int]script{1: on(kindRoundStart, Batch{From: 1, To: 0})},
			want: "shard 0: conn"},
		{name: "relay: Idle for another slot", play: map[int]script{1: on(kindRoundStart, Idle{Shard: 0})},
			want: "shard 1: protocol"},
		{name: "relay: Idle overshoots the relay count", play: map[int]script{1: on(kindRoundStart, Idle{Shard: 1, Received: 1})},
			want: "shard 1: protocol"},
		{name: "relay: unexpected message", play: map[int]script{1: on(kindRoundStart, ShardReport{Shard: 1})},
			want: "shard 1: protocol"},
		{name: "relay: Fault", play: map[int]script{1: on(kindRoundStart, Fault{Shard: 1, Err: "boom"})},
			want: "shard 1: fault"},
		{name: "relay: conn error", play: map[int]script{1: on(kindRoundStart, hangUp{})},
			want: "shard 1: conn"},

		{name: "round end: RoundEnd send fails", refuse: map[int]byte{1: kindRoundEnd},
			want: "shard 1: conn"},

		{name: "report: conn error", play: map[int]script{1: on(kindRoundEnd, hangUp{})},
			want: "shard 1: conn"},
		{name: "report: for another slot", play: map[int]script{1: on(kindRoundEnd, ShardReport{Shard: 0})},
			want: "shard 1: protocol"},
		{name: "report: duplicate", play: map[int]script{
			0: on(kindRoundEnd, quiet...),
			1: on(kindRoundEnd, ShardReport{Shard: 1}, ShardReport{Shard: 1})},
			want: "shard 1: protocol"},
		{name: "report: Fault", play: map[int]script{1: on(kindRoundEnd, Fault{Shard: 1, Err: "boom"})},
			want: "shard 1: fault"},
		{name: "report: unexpected message", play: map[int]script{1: on(kindRoundEnd, Idle{Shard: 1})},
			want: "shard 1: protocol"},

		{name: "merge: the shallower of one set wins in slot 0", play: map[int]script{
			0: reportsVio(0, 2, 4, "p"), 1: reportsVio(1, 3, 1, "p")},
			want: "[[p]@2#4]"},
		{name: "merge: the shallower of one set wins in slot 1", play: map[int]script{
			0: reportsVio(0, 3, 2, "p"), 1: reportsVio(1, 2, 9, "p")},
			want: "[[p]@2#9]"},
		{name: "merge: equal depth, the smaller hash wins", play: map[int]script{
			0: reportsVio(0, 2, 8, "p"), 1: reportsVio(1, 2, 3, "p")},
			want: "[[p]@2#3]"},
		{name: "merge: sets ordered by depth, then hash", play: map[int]script{
			0: reportsVio(0, 2, 2, "p"), 1: reportsVio(1, 1, 7, "q")},
			want: "[[q]@1#7 [p]@2#2]"},
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
			coord := NewCoordinator(conns, CoordinatorConfig{})
			res, err := coord.RunRound(mc.Budget{Depth: 2, Workers: 1}, false)
			coord.Shutdown()
			wg.Wait()
			if strings.HasPrefix(row.want, "shard ") {
				if want := "round 1: " + row.want + ": "; err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("round error %v, want one naming %q", err, want)
				}
				return
			}
			if err != nil {
				t.Fatalf("round error: %v", err)
			}
			if got := fmt.Sprint(vioSummary(res.Checker.Violations)); got != row.want {
				t.Errorf("got  %s\nwant %s", got, row.want)
			}
		})
	}
}
