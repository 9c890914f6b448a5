// Package dist stands in for crystalball/internal/dist: the one-wait row
// allows a use of (*Coordinator).nextArrival in (*Coordinator).wait alone,
// and the wall-clock row a use of time.Now in NewCoordinator.
package dist

import "time"

type Coordinator struct {
	arrivals []int
	now      func() time.Time
}

func NewCoordinator(now func() time.Time) *Coordinator {
	if now == nil {
		now = time.Now
	}
	return &Coordinator{now: now}
}

// newDefault is not the allowed site.
func newDefault() *Coordinator {
	return NewCoordinator(time.Now) // want `wall-clock: use of time.Now`
}

func (c *Coordinator) nextArrival() (int, bool) {
	if len(c.arrivals) == 0 {
		return 0, false
	}
	a := c.arrivals[0]
	c.arrivals = c.arrivals[1:]
	return a, true
}

func (c *Coordinator) wait() int {
	a, _ := c.nextArrival()
	return a
}

func (c *Coordinator) relay() int {
	a, _ := c.nextArrival() // want `one-wait: use of dist.Coordinator.nextArrival`
	return a
}

var next = (*Coordinator).nextArrival // want `one-wait`

// Not the coordinator's: another type's method of the same name.
type queue struct{}

func (queue) nextArrival() {}

func drain(q queue) { q.nextArrival() }
