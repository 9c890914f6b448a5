// Package snapshot implements CrystalBall's checkpoint manager: per-node
// checkpointing on a logical clock, the consistent neighborhood-snapshot
// collection protocol, a checkpoint storage quota, and LZW-compressed
// transfers with duplicate suppression (paper sections 2.3, 3.1 and 4).
//
// The consistency mechanism follows the algorithm the paper adopts from
// Manivannan and Singhal: every node keeps a checkpoint number cn (a form
// of Lamport clock); every message carries the sender's cn; a receiver
// whose cn is smaller takes a forced checkpoint stamped with the incoming
// cn *before* processing the message, which preserves the happens-before
// relation among the checkpoints with any given stamp. A snapshot
// requester bumps its cn, checkpoints itself, and asks each neighborhood
// member for its checkpoint at that stamp.
//
// A request names the copy of the responder's checkpoint the requester
// already holds (by hash); the responder answers with a bare duplicate
// marker when that copy is the checkpoint it would send, and with the
// compressed checkpoint otherwise. The responder keeps nothing per
// requester, so a response lost in flight never leaves the two sides
// disagreeing about what the requester holds.
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

const (
	// defaultInterval is the periodic checkpoint interval when none is
	// given (paper: 10 s).
	defaultInterval = 10 * time.Second
	// quota is the number of stored checkpoints; older ones are pruned
	// first.
	quota = 32
	// collectTimeout bounds one collection round.
	collectTimeout = 2 * time.Second
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
}

// Snapshot is the result of a neighborhood collection: a consistent cut of
// the neighborhood at logical time CN.
type Snapshot struct {
	CN     uint64
	Origin sm.NodeID
	// States maps node id to its full-state encoding (self included).
	States map[sm.NodeID][]byte
	// Missing lists neighbors that failed to contribute (dead or
	// unreachable peers, undecodable payloads).
	Missing []sm.NodeID
	At      sim.Time
}

// Protocol payloads carried in runtime.ControlEnvelope.

type ckptRequest struct {
	CR  uint64
	Seq uint64 // collection round id, echoed in the response
	// Have is the hash of the requester's cached copy of the responder's
	// checkpoint (0 = none).
	Have uint64
}

type ckptResponse struct {
	Seq  uint64
	Hash uint64 // hash of the responder's checkpoint at the requested cut
	Dup  bool   // the requester's copy (ckptRequest.Have) is that checkpoint
	Data []byte // LZW-compressed full state (when !Dup)
}

// received is a requester's cached copy of one peer's checkpoint.
type received struct {
	state []byte
	hash  uint64
}

// Stats counts checkpoint-manager activity.
type Stats struct {
	CheckpointsTaken   int64
	ForcedCheckpoints  int64
	SnapshotsCollected int64
	SnapshotsFailed    int64
	ResponsesSent      int64
	DupSuppressed      int64
	BytesSentRaw       int64
	BytesSentWire      int64
}

// collection tracks one in-progress snapshot gather.
type collection struct {
	seq     uint64
	cr      uint64
	want    map[sm.NodeID]bool
	states  map[sm.NodeID][]byte
	missing []sm.NodeID
	done    func(*Snapshot)
	timeout *sim.Timer
}

// Manager is the per-node checkpoint manager. It implements
// runtime.CheckpointHook.
type Manager struct {
	node     *runtime.Node
	sim      *sim.Simulator
	interval time.Duration

	cn    uint64
	store []Checkpoint

	col *collection
	seq uint64
	// lastRecv caches, per responder, the last checkpoint received, so a
	// Dup response resolves.
	lastRecv map[sm.NodeID]received

	lzw coder // reused across every payload this manager compresses or expands

	Stats Stats
}

// NewManager attaches a checkpoint manager to a node and starts periodic
// checkpointing every interval (10 s when interval <= 0).
func NewManager(s *sim.Simulator, node *runtime.Node, interval time.Duration) *Manager {
	if interval <= 0 {
		interval = defaultInterval
	}
	m := &Manager{
		node:     node,
		sim:      s,
		interval: interval,
		lastRecv: make(map[sm.NodeID]received),
	}
	node.SetCheckpointHook(m)
	s.After(interval, m.periodic)
	return m
}

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
	m.sim.After(m.interval, m.periodic)
}

// takeCheckpoint stores the node's state stamped with stamp. Every caller
// passes the cn it has just set, so the newest stored checkpoint always
// carries m.cn.
func (m *Manager) takeCheckpoint(stamp uint64) {
	svc, timers := m.node.View()
	ck := Checkpoint{CN: stamp, State: sm.EncodeFullState(svc, timers)}
	m.store = append(m.store, ck)
	m.Stats.CheckpointsTaken++
	// Enforce the storage quota, oldest first, in place: the store keeps
	// its backing array, and the dropped tail slots let go of their states.
	if over := len(m.store) - quota; over > 0 {
		n := copy(m.store, m.store[over:])
		clear(m.store[n:])
		m.store = m.store[:n]
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
// invokes done. Only one collection runs at a time; a new request while one
// is pending is ignored and done is called with nil.
func (m *Manager) Collect(neighbors []sm.NodeID, done func(*Snapshot)) {
	if m.col != nil {
		done(nil)
		return
	}
	m.cn++
	m.takeCheckpoint(m.cn)
	m.seq++
	col := &collection{
		seq:    m.seq,
		cr:     m.cn,
		want:   make(map[sm.NodeID]bool),
		states: make(map[sm.NodeID][]byte),
		done:   done,
	}
	for _, nb := range neighbors {
		if nb != m.node.ID {
			col.want[nb] = true
		}
	}
	m.col = col
	// Self-checkpoint at the cut: the one just taken.
	col.states[m.node.ID] = m.store[len(m.store)-1].State
	if len(col.want) == 0 {
		m.maybeFinish()
		return
	}
	// Request order must not depend on map iteration order: control sends
	// enter the simulated network in program order.
	for _, nb := range sortedIDs(col.want) {
		m.node.SendControl(nb, ckptRequest{CR: col.cr, Seq: col.seq, Have: m.lastRecv[nb].hash}, 16)
	}
	col.timeout = m.sim.After(collectTimeout, func() {
		if m.col != col {
			return
		}
		col.missing = append(col.missing, sortedIDs(col.want)...)
		col.want = map[sm.NodeID]bool{}
		m.maybeFinish()
	})
}

// checkpointAt returns the earliest stored checkpoint with CN >= cr (paper
// section 2.3, case 2). The newest checkpoint carries m.cn, so for every
// cr <= m.cn one exists.
func (m *Manager) checkpointAt(cr uint64) Checkpoint {
	for _, ck := range m.store {
		if ck.CN >= cr {
			return ck
		}
	}
	panic(fmt.Sprintf("snapshot: no checkpoint at or after %d (cn %d)", cr, m.cn))
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
	if req.CR > m.cn {
		// Case 1: request is ahead of anything seen; checkpoint now
		// at the requested stamp.
		m.cn = req.CR
		m.takeCheckpoint(req.CR)
	}
	// Case 2 (and case 1's fresh checkpoint): the earliest with CN >= CR.
	ck := m.checkpointAt(req.CR)
	m.Stats.ResponsesSent++
	resp := ckptResponse{Seq: req.Seq, Hash: hashBytes(ck.State)}
	// Duplicate suppression: the requester already holds these bytes.
	if req.Have == resp.Hash {
		resp.Dup = true
		m.Stats.DupSuppressed++
		m.node.SendControl(from, resp, 24)
		return
	}
	resp.Data = m.lzw.compress(ck.State)
	m.Stats.BytesSentRaw += int64(len(ck.State))
	m.Stats.BytesSentWire += int64(len(resp.Data))
	m.node.SendControl(from, resp, len(resp.Data)+24)
}

func (m *Manager) handleResponse(from sm.NodeID, resp ckptResponse) {
	col := m.col
	if col == nil || resp.Seq != col.seq || !col.want[from] {
		return
	}
	delete(col.want, from)
	var state []byte
	if resp.Dup {
		if c := m.lastRecv[from]; c.state != nil && c.hash == resp.Hash {
			state = c.state
		}
	} else if data, err := m.lzw.decompress(resp.Data); err == nil {
		state = data
		m.lastRecv[from] = received{state: state, hash: resp.Hash}
	}
	if state == nil {
		// No cached copy matches the Dup, or the payload does not
		// expand: the peer is missing from this cut.
		col.missing = append(col.missing, from)
	} else {
		col.states[from] = state
	}
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
