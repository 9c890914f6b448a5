// Package services stands in for crystalball/internal/services: the
// one-executor row allows a service to call handlers, its own or an embedded
// one's. The wall-clock row covers it and allows nothing here.
package services

import (
	"time"

	"crystalball/internal/sm"
)

// wrapper overrides one handler of the service it embeds.
type wrapper struct{ sm.Service }

func (w wrapper) HandleMessage(ctx sm.Context, from sm.NodeID, msg sm.Message) {
	w.Service.HandleMessage(ctx, from, msg)
	w.Service.HandleTimer(ctx, "retry")
}

func restore(st sm.StableStore, data []byte) { st.RestoreStable(data) }

// --- wall-clock ----------------------------------------------------------------

type clock struct {
	now func() time.Time
}

func bad() time.Time {
	time.Sleep(time.Millisecond) // want `wall-clock: use of time.Sleep`
	return time.Now()            // want `wall-clock: use of time.Now`
}

func since(t0 time.Time) time.Duration {
	return time.Since(t0) // want `wall-clock: use of time.Since`
}

func wait(d time.Duration) {
	<-time.After(d) // want `wall-clock: use of time.After`
}

// inject defaults an injected clock outside the row's Allow sites, which is
// a hit; reading through the injection is not, and neither is time's
// arithmetic.
func inject(c *clock) time.Time {
	if c.now == nil {
		c.now = time.Now // want `wall-clock: use of time.Now`
	}
	return c.now().Add(time.Duration(2) * time.Second)
}
