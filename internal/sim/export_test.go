package sim

// Run executes events until the queue drains.
func (s *Simulator) Run() {
	for s.Step() {
	}
}
