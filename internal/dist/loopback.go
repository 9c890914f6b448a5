package dist

import (
	"errors"
	"sync"
)

// The transport: a pair of unbounded FIFO queues. Unbounded matters — Send
// never blocks, so two shards exchanging large batches through the hub
// cannot deadlock, and the shard loop's TryRecv greediness works without a
// window protocol. Messages are passed by value (no encoding), which is what
// lets a forwarded state carry the state itself and a reference into the
// sender's search tree.

// ErrClosed is returned by Conn operations after the peer (or this side)
// closed the connection and the queue has drained.
var ErrClosed = errors.New("dist: connection closed")

type msgQueue struct {
	mu    sync.Mutex
	cond  sync.Cond
	items []Msg
	head  int
	err   error // non-nil once closed; returned after the queue drains
}

func newMsgQueue() *msgQueue {
	q := &msgQueue{}
	q.cond.L = &q.mu
	return q
}

func (q *msgQueue) put(m Msg) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return q.err
	}
	q.items = append(q.items, m)
	q.cond.Signal()
	return nil
}

// pop removes the head item; callers hold q.mu and have checked non-empty.
func (q *msgQueue) pop() Msg {
	m := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return m
}

func (q *msgQueue) get() (Msg, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && q.err == nil {
		q.cond.Wait()
	}
	if q.head < len(q.items) {
		return q.pop(), nil
	}
	return nil, q.err
}

func (q *msgQueue) tryGet() (Msg, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head < len(q.items) {
		return q.pop(), true, nil
	}
	if q.err != nil {
		return nil, false, q.err
	}
	return nil, false, nil
}

// close fails the queue with err (nil = ErrClosed); readers drain queued
// messages first.
func (q *msgQueue) close(err error) {
	if err == nil {
		err = ErrClosed
	}
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

type loopConn struct {
	in, out *msgQueue
}

// Pipe returns the two ends of an in-process connection. Closing either end
// closes both directions; the peer drains already-queued messages and then
// sees ErrClosed.
func Pipe() (Conn, Conn) {
	a, b := newMsgQueue(), newMsgQueue()
	return &loopConn{in: a, out: b}, &loopConn{in: b, out: a}
}

func (c *loopConn) Send(m Msg) error            { return c.out.put(m) }
func (c *loopConn) Recv() (Msg, error)          { return c.in.get() }
func (c *loopConn) TryRecv() (Msg, bool, error) { return c.in.tryGet() }

func (c *loopConn) Close() error {
	c.in.close(nil)
	c.out.close(nil)
	return nil
}
