// Package snapshot implements CrystalBall's checkpoint manager: per-node
// checkpointing on a logical clock, the consistent neighborhood-snapshot
// collection protocol, checkpoint storage quotas, LZW compression with
// duplicate suppression, and bandwidth accounting (paper sections 2.3, 3.1
// and 4).
//
// The consistency mechanism follows the algorithm the paper adopts from
// Manivannan and Singhal: every node keeps a checkpoint number cn (a form
// of Lamport clock); every message carries the sender's cn; a receiver
// whose cn is smaller takes a forced checkpoint stamped with the incoming
// cn *before* processing the message, which preserves the happens-before
// relation among the checkpoints with any given stamp. A snapshot
// requester bumps its cn, checkpoints itself, and asks each neighborhood
// member for its checkpoint at that stamp.
package snapshot

import (
	"bufio"
	"bytes"
	"compress/lzw"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"time"

	"crystalball/internal/runtime"
	"crystalball/internal/sim"
	"crystalball/internal/sm"
)

// sortedIDs returns the keys of a NodeID-keyed map in sorted order, so that
// request fan-out and missing-peer bookkeeping never depend on Go's
// randomized map iteration order.
func sortedIDs[V any](m map[sm.NodeID]V) []sm.NodeID {
	ids := make([]sm.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Checkpoint is one stored node checkpoint.
type Checkpoint struct {
	CN    uint64
	State []byte // sm.EncodeFullState output (uncompressed)
	Taken sim.Time
}

// Snapshot is the result of a neighborhood collection: a consistent cut of
// the neighborhood at logical time CN.
type Snapshot struct {
	CN     uint64
	Origin sm.NodeID
	// States maps node id to its full-state encoding (self included).
	States map[sm.NodeID][]byte
	// Missing lists neighbors that failed to contribute (dead peers,
	// bandwidth-limited peers, pruned checkpoints after retry).
	Missing []sm.NodeID
	At      sim.Time
}

// Protocol payloads carried in runtime.ControlEnvelope.

type ckptRequest struct {
	CR  uint64
	Seq uint64 // collection round id, echoed in the response
	// Full asks for a complete state transfer: the requester holds no
	// cached copy, so neither a Dup marker nor a diff would resolve.
	Full bool
}

type ckptResponse struct {
	Seq  uint64
	OK   bool
	CN   uint64 // responder's cn (for negative responses / retry hint)
	Dup  bool   // data identical to the last checkpoint sent to requester
	Data []byte // LZW-compressed full state (when OK && !Dup && !IsDiff)
	Raw  int    // uncompressed size, for stats

	// Diff transfer (paper section 3.1): only the chunks changed since
	// the last checkpoint this requester received.
	IsDiff   bool
	Diffs    []chunkDiff
	PrevHash uint64 // hash of the base state the diff applies to
	FullHash uint64 // hash of the reconstructed state, for validation
}

// Stats counts checkpoint-manager activity.
type Stats struct {
	CheckpointsTaken   int64
	ForcedCheckpoints  int64
	SnapshotsCollected int64
	SnapshotsFailed    int64
	ResponsesSent      int64
	NegativeResponses  int64
	DupSuppressed      int64
	DiffsSent          int64
	BytesSentRaw       int64
	BytesSentWire      int64
	Retries            int64
}

// Config parameterises a Manager.
type Config struct {
	// Interval between periodic local checkpoints (paper: 10 s).
	Interval time.Duration
	// Quota is the maximum number of stored checkpoints; older ones are
	// pruned first.
	Quota int
	// CollectTimeout bounds one collection round.
	CollectTimeout time.Duration
	// Compress enables LZW compression of checkpoint payloads.
	Compress bool
	// Diffs enables chunk-level diff transfers against the last
	// checkpoint each peer received (paper section 3.1).
	Diffs bool
	// BandwidthLimitBps, when positive, makes the manager answer
	// negatively while its checkpoint traffic exceeds the limit.
	BandwidthLimitBps float64
	// MaxRetries bounds collection retries after negative responses.
	MaxRetries int
}

// DefaultConfig mirrors the paper's deployment values.
func DefaultConfig() Config {
	return Config{
		Interval:       10 * time.Second,
		Quota:          32,
		CollectTimeout: 2 * time.Second,
		Compress:       true,
		MaxRetries:     1,
	}
}

// collection tracks one in-progress snapshot gather.
type collection struct {
	seq      uint64
	cr       uint64
	want     map[sm.NodeID]bool
	states   map[sm.NodeID][]byte
	missing  []sm.NodeID
	maxSeen  uint64 // max cn from negative responses, for the retry round
	negative bool
	retries  int
	done     func(*Snapshot)
	timeout  *sim.Timer
}

// Manager is the per-node checkpoint manager. It implements
// runtime.CheckpointHook.
type Manager struct {
	node *runtime.Node
	sim  *sim.Simulator
	cfg  Config

	cn     uint64
	store  []Checkpoint
	ticker *sim.Timer

	col *collection
	seq uint64
	// lastSent tracks, per requester, the hash of the last checkpoint
	// payload sent, enabling duplicate suppression; lastSentState keeps
	// the bytes themselves as the diff base; lastRecv caches, per
	// responder, the last payload received so Dup and diff responses
	// resolve.
	lastSent      map[sm.NodeID]uint64
	lastSentState map[sm.NodeID][]byte
	lastRecv      map[sm.NodeID][]byte

	lzw coder // reused across every payload this manager compresses or expands

	// bandwidth window
	windowStart sim.Time
	windowBytes int64

	Stats Stats
}

// NewManager attaches a checkpoint manager to a node and starts periodic
// checkpointing.
func NewManager(s *sim.Simulator, node *runtime.Node, cfg Config) *Manager {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	if cfg.Quota <= 0 {
		cfg.Quota = 32
	}
	if cfg.CollectTimeout <= 0 {
		cfg.CollectTimeout = 2 * time.Second
	}
	m := &Manager{
		node:          node,
		sim:           s,
		cfg:           cfg,
		lastSent:      make(map[sm.NodeID]uint64),
		lastSentState: make(map[sm.NodeID][]byte),
		lastRecv:      make(map[sm.NodeID][]byte),
	}
	node.SetCheckpointHook(m)
	m.ticker = s.After(cfg.Interval, m.periodic)
	return m
}

// CN returns the node's current checkpoint number.
func (m *Manager) CN() uint64 { return m.cn }

// StoredCheckpoints reports how many checkpoints are held.
func (m *Manager) StoredCheckpoints() int { return len(m.store) }

// LatestCheckpointSize returns the uncompressed size of the newest stored
// checkpoint (0 when none), used by the overhead experiments.
func (m *Manager) LatestCheckpointSize() int {
	if len(m.store) == 0 {
		return 0
	}
	return len(m.store[len(m.store)-1].State)
}

func (m *Manager) periodic() {
	// Local increment: bump cn and checkpoint (paper: "A node n_i can
	// take snapshots on its own ... whenever the cn_i is locally
	// incremented, which happens periodically").
	m.cn++
	m.takeCheckpoint(m.cn)
	m.ticker = m.sim.After(m.cfg.Interval, m.periodic)
}

func (m *Manager) takeCheckpoint(stamp uint64) {
	svc, timers := m.node.View()
	ck := Checkpoint{CN: stamp, State: sm.EncodeFullState(svc, timers), Taken: m.sim.Now()}
	m.store = append(m.store, ck)
	m.Stats.CheckpointsTaken++
	// Enforce the storage quota, oldest first.
	if over := len(m.store) - m.cfg.Quota; over > 0 {
		m.store = append([]Checkpoint(nil), m.store[over:]...)
	}
}

// OutgoingCN implements runtime.CheckpointHook.
func (m *Manager) OutgoingCN() uint64 { return m.cn }

// IncomingCN implements runtime.CheckpointHook: the forced-checkpoint rule.
func (m *Manager) IncomingCN(cn uint64) {
	if cn > m.cn {
		m.Stats.ForcedCheckpoints++
		m.cn = cn
		m.takeCheckpoint(cn)
	}
}

// PeerError implements runtime.CheckpointHook: a communication error with a
// peer during collection proclaims it dead for this snapshot.
func (m *Manager) PeerError(peer sm.NodeID) {
	if m.col == nil || !m.col.want[peer] {
		return
	}
	delete(m.col.want, peer)
	m.col.missing = append(m.col.missing, peer)
	m.maybeFinish()
}

// Collect gathers a consistent snapshot of the given neighborhood and
// invokes done (possibly after retries). Only one collection runs at a
// time; a new request while one is pending is ignored and done is called
// with nil.
func (m *Manager) Collect(neighbors []sm.NodeID, done func(*Snapshot)) {
	if m.col != nil {
		done(nil)
		return
	}
	m.cn++
	m.takeCheckpoint(m.cn)
	m.startRound(neighbors, m.cn, 0, done)
}

func (m *Manager) startRound(neighbors []sm.NodeID, cr uint64, retries int, done func(*Snapshot)) {
	m.seq++
	col := &collection{
		seq:     m.seq,
		cr:      cr,
		want:    make(map[sm.NodeID]bool),
		states:  make(map[sm.NodeID][]byte),
		retries: retries,
		done:    done,
	}
	for _, nb := range neighbors {
		if nb != m.node.ID {
			col.want[nb] = true
		}
	}
	m.col = col
	// Self-checkpoint at the cut: the earliest stored checkpoint with
	// CN >= cr (we just took one at cr in Collect).
	if ck, ok := m.findCheckpoint(cr); ok {
		col.states[m.node.ID] = ck.State
	}
	if len(col.want) == 0 {
		m.maybeFinish()
		return
	}
	// Request order must not depend on map iteration order: control sends
	// enter the simulated network in program order.
	for _, nb := range sortedIDs(col.want) {
		m.node.SendControl(nb, ckptRequest{CR: cr, Seq: col.seq, Full: m.lastRecv[nb] == nil}, 16)
	}
	col.timeout = m.sim.After(m.cfg.CollectTimeout, func() {
		if m.col != col {
			return
		}
		col.missing = append(col.missing, sortedIDs(col.want)...)
		col.want = map[sm.NodeID]bool{}
		m.maybeFinish()
	})
}

// findCheckpoint returns the earliest stored checkpoint with CN >= cr
// (paper section 2.3, case 2).
func (m *Manager) findCheckpoint(cr uint64) (Checkpoint, bool) {
	for _, ck := range m.store {
		if ck.CN >= cr {
			return ck, true
		}
	}
	return Checkpoint{}, false
}

// HandleControl implements runtime.CheckpointHook.
func (m *Manager) HandleControl(from sm.NodeID, payload any) {
	switch p := payload.(type) {
	case ckptRequest:
		m.handleRequest(from, p)
	case ckptResponse:
		m.handleResponse(from, p)
	}
}

func (m *Manager) handleRequest(from sm.NodeID, req ckptRequest) {
	// Bandwidth limiting: above the cap, answer negatively; the
	// requester temporarily removes us from the snapshot.
	if m.cfg.BandwidthLimitBps > 0 && m.overBudget() {
		m.Stats.NegativeResponses++
		m.node.SendControl(from, ckptResponse{Seq: req.Seq, OK: false, CN: m.cn}, 24)
		return
	}
	var ck Checkpoint
	if req.CR > m.cn {
		// Case 1: request is ahead of anything seen; checkpoint now
		// at the requested stamp.
		m.cn = req.CR
		m.takeCheckpoint(req.CR)
		ck = m.store[len(m.store)-1]
	} else {
		// Case 2: a checkpoint from the past; earliest with CN >= CR.
		var ok bool
		ck, ok = m.findCheckpoint(req.CR)
		if !ok {
			// Pruned out of range: negative response carrying our
			// cn so the requester can retry at a feasible stamp.
			m.Stats.NegativeResponses++
			m.node.SendControl(from, ckptResponse{Seq: req.Seq, OK: false, CN: m.cn}, 24)
			return
		}
	}
	m.Stats.ResponsesSent++
	resp := ckptResponse{Seq: req.Seq, OK: true, CN: ck.CN, Raw: len(ck.State)}
	// Duplicate suppression: skip the payload if identical to the last
	// checkpoint sent to this requester.
	h := hashBytes(ck.State)
	if !req.Full && m.lastSent[from] == h {
		resp.Dup = true
		m.Stats.DupSuppressed++
		m.node.SendControl(from, resp, 24)
		return
	}
	data := ck.State
	if m.cfg.Compress {
		data = m.lzw.compress(data)
	}
	// Diff transfer: when the peer holds our previous checkpoint and the
	// chunk diff is smaller than the (compressed) full state, send only
	// the changed chunks.
	if m.cfg.Diffs && !req.Full {
		if prev, ok := m.lastSentState[from]; ok {
			if diffs, applicable := computeDiff(prev, ck.State); applicable {
				if wire := diffWireSize(diffs); wire < len(data) {
					resp.IsDiff = true
					resp.Diffs = diffs
					resp.PrevHash = hashBytes(prev)
					resp.FullHash = h
					m.lastSent[from] = h
					m.lastSentState[from] = ck.State
					m.Stats.DiffsSent++
					m.Stats.BytesSentRaw += int64(len(ck.State))
					m.Stats.BytesSentWire += int64(wire)
					m.accountBytes(int64(wire))
					m.node.SendControl(from, resp, wire+24)
					return
				}
			}
		}
	}
	m.lastSent[from] = h
	m.lastSentState[from] = ck.State
	resp.Data = data
	m.Stats.BytesSentRaw += int64(len(ck.State))
	m.Stats.BytesSentWire += int64(len(data))
	m.accountBytes(int64(len(data)))
	m.node.SendControl(from, resp, len(data)+24)
}

func (m *Manager) handleResponse(from sm.NodeID, resp ckptResponse) {
	col := m.col
	if col == nil || resp.Seq != col.seq || !col.want[from] {
		return
	}
	delete(col.want, from)
	if !resp.OK {
		col.negative = true
		if resp.CN > col.maxSeen {
			col.maxSeen = resp.CN
		}
		col.missing = append(col.missing, from)
		m.maybeFinish()
		return
	}
	var state []byte
	if resp.Dup {
		state = m.lastRecv[from]
		if state == nil {
			// We have no cached copy; treat as missing.
			col.missing = append(col.missing, from)
			m.maybeFinish()
			return
		}
	} else if resp.IsDiff {
		prev := m.lastRecv[from]
		if prev == nil || hashBytes(prev) != resp.PrevHash {
			// Our base diverged from the sender's; the state cannot
			// be reconstructed. Treat as missing (a later full
			// transfer resynchronises).
			delete(m.lastRecv, from)
			col.missing = append(col.missing, from)
			m.maybeFinish()
			return
		}
		state = applyDiff(prev, resp.Diffs)
		if hashBytes(state) != resp.FullHash {
			delete(m.lastRecv, from)
			col.missing = append(col.missing, from)
			m.maybeFinish()
			return
		}
		m.lastRecv[from] = state
	} else {
		state = resp.Data
		if m.cfg.Compress {
			var err error
			state, err = m.lzw.decompress(state)
			if err != nil {
				col.missing = append(col.missing, from)
				m.maybeFinish()
				return
			}
		}
		m.lastRecv[from] = state
	}
	col.states[from] = state
	m.maybeFinish()
}

func (m *Manager) maybeFinish() {
	col := m.col
	if col == nil || len(col.want) > 0 {
		return
	}
	if col.timeout != nil {
		col.timeout.Cancel()
	}
	m.col = nil
	// Negative responses trigger one retry at the greatest cn seen
	// (paper: "the requestor chooses the greatest among the R.cn
	// received, and initiates another snapshot round").
	if col.negative && col.retries < m.cfg.MaxRetries && col.maxSeen > 0 {
		m.Stats.Retries++
		cr := col.maxSeen
		if cr <= m.cn {
			cr = m.cn + 1
		}
		m.cn = cr
		m.takeCheckpoint(cr)
		var neighbors []sm.NodeID
		for _, nb := range sortedIDs(col.states) {
			if nb != m.node.ID {
				neighbors = append(neighbors, nb)
			}
		}
		neighbors = append(neighbors, col.missing...)
		m.startRound(neighbors, cr, col.retries+1, col.done)
		return
	}
	snap := &Snapshot{
		CN:      col.cr,
		Origin:  m.node.ID,
		States:  col.states,
		Missing: col.missing,
		At:      m.sim.Now(),
	}
	if len(col.missing) > 0 {
		m.Stats.SnapshotsFailed++
	} else {
		m.Stats.SnapshotsCollected++
	}
	col.done(snap)
}

func (m *Manager) overBudget() bool {
	now := m.sim.Now()
	if now.Sub(m.windowStart) > time.Second {
		m.windowStart = now
		m.windowBytes = 0
	}
	return float64(m.windowBytes*8) > m.cfg.BandwidthLimitBps
}

func (m *Manager) accountBytes(n int64) {
	now := m.sim.Now()
	if now.Sub(m.windowStart) > time.Second {
		m.windowStart = now
		m.windowBytes = 0
	}
	m.windowBytes += n
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// coder is a Manager's LZW state (the algorithm the paper's implementation
// uses): one writer and one reader, Reset for every payload instead of built
// anew — a fresh writer carries a 64 KB table and a fresh reader about 20 KB,
// which at one checkpoint per response was a sixth of everything a live
// deployment allocated. Reset restores exactly the state of a new coder, so
// the bytes are those a fresh one produces. The zero value is ready to use.
type coder struct {
	w  *lzw.Writer
	bw *bufio.Writer // the writer's output stage: without one of its own, Reset builds a new one per payload
	r  *lzw.Reader
}

// compress returns data's LZW encoding, in a buffer of the caller's own.
func (c *coder) compress(data []byte) []byte {
	var buf bytes.Buffer
	if c.w == nil {
		c.bw = bufio.NewWriter(&buf)
		c.w = lzw.NewWriter(c.bw, lzw.LSB, 8).(*lzw.Writer)
	} else {
		c.bw.Reset(&buf)
		c.w.Reset(c.bw, lzw.LSB, 8)
	}
	if _, err := c.w.Write(data); err != nil {
		// Compression of in-memory buffers cannot fail; fall back to
		// raw if it somehow does.
		return append([]byte(nil), data...)
	}
	c.w.Close()
	return buf.Bytes()
}

func (c *coder) decompress(data []byte) ([]byte, error) {
	if c.r == nil {
		c.r = lzw.NewReader(bytes.NewReader(data), lzw.LSB, 8).(*lzw.Reader)
	} else {
		c.r.Reset(bytes.NewReader(data), lzw.LSB, 8)
	}
	out, err := io.ReadAll(c.r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: decompress: %w", err)
	}
	return out, nil
}
