package dist

import "time"

// Failure detection for the TCP control plane. The design splits into two
// transport-level mechanisms that together bound detection latency without
// touching the round protocol:
//
//   - every connection emits a Ping frame each heartbeat interval
//     (PeerTimeout / 4) from a dedicated writer goroutine, so a healthy peer produces traffic even
//     while its protocol loop is deep in an expansion bucket;
//   - every read is armed with a deadline of PeerTimeout: if no frame (Ping
//     included) arrives for that long, the connection is declared dead and
//     all pending and future Recvs fail.
//
// A crashed process, a severed link, or a machine wedged hard enough to
// stop its transport goroutines is therefore detected within PeerTimeout.
// An application-level wedge (transport alive, protocol silent) is the
// coordinator's job: see CoordinatorConfig.StallTimeout.
//
// All clock access is injected (Now/After value references), so the package
// stays inside crystalvet's walltime discipline and the detector is
// testable with a fake clock.

// DefaultPeerTimeout is the silence window after which a TCP peer is
// declared dead when TCPOptions leave PeerTimeout zero.
const DefaultPeerTimeout = 10 * time.Second

// TCPOptions parameterise failure detection on one framed TCP connection.
// The zero value gets DefaultPeerTimeout — safe for production; tests
// shrink PeerTimeout to keep failure cases fast. The heartbeat is always a
// quarter of PeerTimeout, comfortably inside it. A negative PeerTimeout
// disables deadlines and heartbeats entirely (the pre-fault-tolerance
// behavior; useful to reproduce hangs in tests).
type TCPOptions struct {
	// PeerTimeout bounds peer silence: reads are armed with this deadline
	// and writes must complete within it. 0 = DefaultPeerTimeout,
	// negative = disabled.
	PeerTimeout time.Duration
	// Now is the injected wall clock (nil = time.Now).
	Now func() time.Time
	// After is the injected timer (nil = time.After).
	After func(time.Duration) <-chan time.Time
}

// resolved fills the defaults in.
func (o TCPOptions) resolved() TCPOptions {
	if o.PeerTimeout == 0 {
		o.PeerTimeout = DefaultPeerTimeout
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.After == nil {
		o.After = time.After
	}
	return o
}

// disabled reports whether failure detection is switched off.
func (o TCPOptions) disabled() bool { return o.PeerTimeout < 0 }

// heartbeatLoop emits Pings until the connection stops. Runs as a
// goroutine owned by tcpConn; Send serialises with protocol writes through
// the connection's write lock, so Pings interleave cleanly with frames.
func (c *tcpConn) heartbeatLoop() {
	for {
		select {
		case <-c.stop:
			return
		case <-c.opt.After(c.opt.PeerTimeout / 4):
			if err := c.Send(Ping{}); err != nil {
				return
			}
		}
	}
}
