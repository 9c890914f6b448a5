package dist

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"

	"crystalball/internal/sm"
)

// Length-prefixed binary TCP transport: one frame per message,
// [uint32 big-endian length][kind byte + body], body encoded by
// transport.go's codec. Each connection runs a dedicated reader goroutine
// that pumps decoded frames into an unbounded queue, so the peer's writes
// always make progress regardless of what the application is doing —
// the same no-backpressure property the loopback transport has, which the
// deadlock-freedom of batch exchange relies on.
//
// Failure detection (heartbeat.go): unless disabled, every read is armed
// with a PeerTimeout deadline and a heartbeat writer keeps the outbound
// side warm, so a dead or severed peer surfaces as a connection error
// within the timeout instead of a silent hang. Handshake traffic (Hello,
// Setup) flows through the same wrapper and inherits the same deadlines —
// there is no unguarded read anywhere on the wire path.

// maxFrame bounds a frame's body; a length above it means a corrupt or
// hostile stream.
const maxFrame = 64 << 20

// tcpConn adapts a net.Conn to the Conn interface.
type tcpConn struct {
	nc       net.Conn
	opt      TCPOptions
	in       *msgQueue
	stop     chan struct{}
	stopOnce sync.Once
	wmu      sync.Mutex
	enc      *sm.Encoder
	wbuf     []byte
}

// WrapTCP frames msgs over nc, starts the reader pump and — unless opt
// disables failure detection — the heartbeat writer. The returned Conn
// owns nc; Close closes it.
func WrapTCP(nc net.Conn, opt TCPOptions) Conn {
	c := &tcpConn{
		nc:   nc,
		opt:  opt.resolved(),
		in:   newMsgQueue(),
		stop: make(chan struct{}),
		enc:  sm.NewEncoder(),
	}
	go c.readLoop()
	if !c.opt.disabled() {
		go c.heartbeatLoop()
	}
	return c
}

// DialTCP connects to a coordinator or worker at addr.
func DialTCP(addr string, opt TCPOptions) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return WrapTCP(nc, opt), nil
}

func (c *tcpConn) readLoop() {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var hdr [4]byte
	for {
		// Arm the peer-silence deadline before every frame. The heartbeat
		// writer on the other side guarantees at least one frame per
		// heartbeat interval from a healthy peer, so an expired deadline
		// means the peer (or the path to it) is gone.
		if !c.opt.disabled() {
			_ = c.nc.SetReadDeadline(c.opt.Now().Add(c.opt.PeerTimeout))
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			c.in.close(c.timeoutErr(err))
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > maxFrame {
			c.in.close(errorf("tcp: bad frame length %d", n))
			return
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			c.in.close(c.timeoutErr(err))
			return
		}
		m, err := decodeMsg(sm.NewDecoder(body))
		if err != nil {
			c.in.close(err)
			return
		}
		// Heartbeats are transport-level liveness; arming the deadline
		// above already consumed their information.
		if _, isPing := m.(Ping); isPing {
			continue
		}
		if err := c.in.put(m); err != nil {
			return
		}
	}
}

// timeoutErr labels an expired read deadline as a detected peer failure so
// round errors name the cause instead of a bare i/o timeout.
func (c *tcpConn) timeoutErr(err error) error {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return errorf("tcp: peer silent for %v (declared dead): %w", c.opt.PeerTimeout, err)
	}
	return err
}

func (c *tcpConn) Send(m Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.enc.Reset()
	if err := encodeMsg(c.enc, m); err != nil {
		return err
	}
	body := c.enc.Bytes()
	if len(body) > maxFrame {
		return errorf("tcp: message %T exceeds frame limit (%d bytes)", m, len(body))
	}
	c.wbuf = c.wbuf[:0]
	c.wbuf = binary.BigEndian.AppendUint32(c.wbuf, uint32(len(body)))
	c.wbuf = append(c.wbuf, body...)
	if !c.opt.disabled() {
		_ = c.nc.SetWriteDeadline(c.opt.Now().Add(c.opt.PeerTimeout))
	}
	_, err := c.nc.Write(c.wbuf)
	return err
}

func (c *tcpConn) Recv() (Msg, error)          { return c.in.get() }
func (c *tcpConn) TryRecv() (Msg, bool, error) { return c.in.tryGet() }

func (c *tcpConn) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	err := c.nc.Close()
	c.in.close(nil)
	return err
}
