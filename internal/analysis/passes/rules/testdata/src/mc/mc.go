// Package mc stands in for crystalball/internal/mc: the ordered-state row
// covers it, and the one-event-switch row allows (*Search).apply alone.
package mc

import "crystalball/internal/sm"

// Config stands in for mc.Config, which the one-check-config row reads.
type Config struct {
	Seed   int64
	Reduce bool
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

func order(m map[int]int) int {
	n := 0
	/* want `ordered-state: //crystal:allow directive` `cannot suppress "rules"` */ //crystal:allow(rules) a directive here is refused whatever pass it names
	for k := range m {
		n += k
	}
	return n
}
