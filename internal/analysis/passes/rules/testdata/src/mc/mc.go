// Package mc stands in for crystalball/internal/mc: the one-event-switch row
// allows (*Search).apply alone, and the wall-clock row (*Config).defaults.
package mc

import (
	"time"

	"crystalball/internal/sm"
)

// Config stands in for mc.Config, which the one-check-config row reads.
type Config struct {
	Seed   int64
	Reduce bool
	Now    func() time.Time
}

// defaults is where the injected clock defaults to the host's.
func (c *Config) defaults() {
	if c.Now == nil {
		c.Now = time.Now
	}
}

// budget reads the injected clock, as the rest of the checker does; reading
// the host's here is a hit, a call or a value alike.
func (c *Config) budget(start time.Time) (time.Duration, time.Duration) {
	fallback := time.Now // want `wall-clock: use of time.Now`
	_ = fallback
	return c.Now().Sub(start), time.Since(start) // want `wall-clock: use of time.Since`
}

type Search struct{}

func (s *Search) apply(ev *sm.Event) bool {
	switch ev.Kind {
	case 'M', 'T':
		return true
	}
	return false
}

func (s *Search) enabled(ev *sm.Event) bool {
	switch ev.Kind { // want `one-event-switch: switch on sm.EventKey.Kind`
	case 'A':
		return true
	}
	return s.apply(ev)
}
