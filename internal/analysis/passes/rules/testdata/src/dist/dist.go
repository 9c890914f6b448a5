// Package dist stands in for crystalball/internal/dist: the one-wait row
// allows a use of (*Coordinator).nextArrival in (*Coordinator).wait alone.
package dist

type Coordinator struct{ arrivals []int }

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
