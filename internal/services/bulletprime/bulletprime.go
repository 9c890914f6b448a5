// Package bulletprime implements the Bullet′ file distribution system from
// the CrystalBall paper (section 5.2.3): a source disseminates the blocks
// of a file to a subset of nodes; all other nodes discover and retrieve
// blocks by explicitly requesting them over a peering mesh.
//
// The pieces the paper calls out are all here:
//
//   - every node keeps a file map describing the blocks it holds;
//   - every sender keeps a per-receiver *shadow* file map of the blocks it
//     has not yet told that receiver about, and computes "diffs" on demand;
//   - receivers keep a per-sender file map (the sender's advertised blocks)
//     and use a rarest-random policy to decide which block to request next;
//   - senders and receivers communicate over a bounded non-blocking
//     transport (the MaceTcpTransport stand-in): each peer link tolerates a
//     limited number of outstanding unacknowledged messages, and an
//     enqueue attempt beyond the window is *refused* — the code path in
//     which the paper's shadow-file-map bug lives.
//
// Three seeded bugs ship enabled by default (Table 1 reports 3 Bullet′
// bugs). Bug 1 is the paper's documented inconsistency; bugs 2 and 3 are
// reconstructed members of the same class (see DESIGN.md section 5):
//
//  1. when a diff cannot be enqueued, the shadow map is cleared anyway, so
//     affected blocks are never re-advertised ("the programmer left the
//     code for clearing the shadow file map after a failed send");
//  2. when a receiver re-establishes a peering, the sender initialises the
//     fresh shadow map empty instead of seeding it with every held block;
//  3. a receiver keeps its stale per-sender file map across a transport
//     error, leaving phantom blocks that skew the rarest-random policy.
package bulletprime

import (
	"sort"

	"crystalball/internal/sm"
)

// requestTTL is how many request-timer ticks a block request stays
// outstanding before it expires and may be retried.
const requestTTL = 4

// Timer names.
const (
	// TimerDiff periodically flushes pending diffs to receivers.
	TimerDiff sm.TimerID = "diff"
	// TimerRequest periodically issues block requests (rarest-random).
	TimerRequest sm.TimerID = "request"
	// TimerPeer retries mesh construction until enough peers are up.
	TimerPeer sm.TimerID = "peer"
)

// Fix flags disabling the seeded bugs.
type Fix uint32

// Fixes for the three seeded Bullet′ bugs.
const (
	// FixShadowOnRefusal keeps the shadow map intact when the transport
	// refuses a diff (the paper's suggested correction).
	FixShadowOnRefusal Fix = 1 << iota
	// FixShadowOnPeering seeds a fresh shadow map with all held blocks.
	FixShadowOnPeering
	// FixStaleFileMap clears the per-sender file map on transport error.
	FixStaleFileMap

	// AllFixes enables every repair.
	AllFixes Fix = 1<<3 - 1
)

// Config parameterises the service.
type Config struct {
	// Members lists all participants.
	Members []sm.NodeID
	// Source is the node that starts with the complete file.
	Source sm.NodeID
	// Blocks is the number of file blocks.
	Blocks int
	// BlockSize is the wire size of one block in bytes.
	BlockSize int
	// MaxPeers bounds the mesh degree (default 4).
	MaxPeers int
	// Window is the per-peer bound on outstanding unacked messages; an
	// enqueue beyond it is refused (default 4).
	Window int
	// MaxOutstandingRequests bounds concurrent block requests per node.
	MaxOutstandingRequests int
	// Fixes disables seeded bugs.
	Fixes Fix
	// DiffInterval and RequestInterval drive the two periodic loops.
	DiffInterval    sm.Duration
	RequestInterval sm.Duration
}

func (c *Config) defaults() {
	if c.Blocks == 0 {
		c.Blocks = 64
	}
	if c.BlockSize == 0 {
		c.BlockSize = 128 << 10
	}
	if c.MaxPeers == 0 {
		c.MaxPeers = 4
	}
	if c.Window == 0 {
		c.Window = 4
	}
	if c.MaxOutstandingRequests == 0 {
		c.MaxOutstandingRequests = 6
	}
	if c.DiffInterval == 0 {
		c.DiffInterval = sm.Second
	}
	if c.RequestInterval == 0 {
		c.RequestInterval = sm.Second / 2
	}
}

// New returns an sm.Factory producing Bullet′ instances.
func New(cfg Config) sm.Factory {
	cfg.defaults()
	return func(self sm.NodeID) sm.Service {
		b := &Bullet{
			Self:        self,
			Have:        make(map[int]bool),
			Shadow:      make(map[sm.NodeID]map[int]bool),
			Advertised:  make(map[sm.NodeID]map[int]bool),
			FileMaps:    make(map[sm.NodeID]map[int]bool),
			Outstanding: make(map[sm.NodeID]int),
			Requested:   make(map[int]int),
			cfg:         cfg,
		}
		if self == cfg.Source {
			for i := 0; i < cfg.Blocks; i++ {
				b.Have[i] = true
			}
		}
		return b
	}
}

// Bullet is the per-node Bullet′ state machine.
type Bullet struct {
	Self sm.NodeID
	// Have is this node's file map.
	Have map[int]bool
	// Shadow maps receiver -> blocks not yet told to that receiver.
	Shadow map[sm.NodeID]map[int]bool
	// Advertised maps receiver -> blocks included in delivered diffs.
	Advertised map[sm.NodeID]map[int]bool
	// FileMaps maps sender -> blocks that sender advertised to us.
	FileMaps map[sm.NodeID]map[int]bool
	// Outstanding counts unacked messages per peer (the bounded
	// transport queue).
	Outstanding map[sm.NodeID]int
	// Requested maps a block with an outstanding request to the
	// remaining request-timer ticks before the request expires and the
	// block becomes eligible again (senders with full windows drop
	// requests silently, so receivers must retry).
	Requested map[int]int
	// DoneAt is >= 0 once the download completed (set by the harness via
	// Completed; kept in state so checkpoints capture progress).
	Complete bool

	cfg Config
}

func (b *Bullet) fixed(f Fix) bool { return b.cfg.Fixes&f != 0 }

// Messages.

// Peering asks a node to become a mesh peer.
type Peering struct{}

// MsgType implements sm.Message.
func (Peering) MsgType() string { return "Peering" }

// Size implements sm.Message.
func (Peering) Size() int { return 4 }

// EncodeMsg implements sm.Message.
func (Peering) EncodeMsg(e *sm.Encoder) {}

// PeeringAck accepts a peering.
type PeeringAck struct{}

// MsgType implements sm.Message.
func (PeeringAck) MsgType() string { return "PeeringAck" }

// Size implements sm.Message.
func (PeeringAck) Size() int { return 4 }

// EncodeMsg implements sm.Message.
func (PeeringAck) EncodeMsg(e *sm.Encoder) {}

// Diff advertises newly available blocks to a receiver.
type Diff struct{ Blocks []int }

// MsgType implements sm.Message.
func (Diff) MsgType() string { return "Diff" }

// Size implements sm.Message.
func (m Diff) Size() int { return 8 + 4*len(m.Blocks) }

// EncodeMsg implements sm.Message.
func (m Diff) EncodeMsg(e *sm.Encoder) {
	e.Uint32(uint32(len(m.Blocks)))
	for _, b := range m.Blocks {
		e.Int(b)
	}
}

// Request asks a sender for one block.
type Request struct{ Block int }

// MsgType implements sm.Message.
func (Request) MsgType() string { return "Request" }

// Size implements sm.Message.
func (Request) Size() int { return 8 }

// EncodeMsg implements sm.Message.
func (m Request) EncodeMsg(e *sm.Encoder) { e.Int(m.Block) }

// Data carries one block.
type Data struct {
	Block int
	// Bytes is the modeled payload size.
	Bytes int
}

// MsgType implements sm.Message.
func (Data) MsgType() string { return "Data" }

// Size implements sm.Message.
func (m Data) Size() int { return 16 + m.Bytes }

// EncodeMsg implements sm.Message.
func (m Data) EncodeMsg(e *sm.Encoder) { e.Int(m.Block) }

// Ack frees one slot of the bounded per-peer transport queue.
type Ack struct{}

// MsgType implements sm.Message.
func (Ack) MsgType() string { return "Ack" }

// Size implements sm.Message.
func (Ack) Size() int { return 4 }

// EncodeMsg implements sm.Message.
func (Ack) EncodeMsg(e *sm.Encoder) {}

// Init implements sm.Service: start mesh construction and the two loops.
func (b *Bullet) Init(ctx sm.Context) {
	ctx.SetTimer(TimerPeer, sm.Second/4)
	ctx.SetTimer(TimerDiff, b.cfg.DiffInterval)
	ctx.SetTimer(TimerRequest, b.cfg.RequestInterval)
}

// peers returns the current mesh peers (nodes with a shadow entry).
func (b *Bullet) peers() []sm.NodeID {
	ids := make([]sm.NodeID, 0, len(b.Shadow))
	for id := range b.Shadow {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// addPeer installs sender- and receiver-side state for a new mesh peer.
func (b *Bullet) addPeer(peer sm.NodeID) {
	if _, ok := b.Shadow[peer]; ok {
		return
	}
	shadow := make(map[int]bool)
	if b.fixed(FixShadowOnPeering) {
		// Bug 2: a fresh shadow map must advertise everything we
		// already hold; the buggy path starts empty, so pre-existing
		// blocks are never announced to this receiver.
		for blk := range b.Have {
			shadow[blk] = true
		}
	}
	b.Shadow[peer] = shadow
	b.Advertised[peer] = make(map[int]bool)
	if _, ok := b.FileMaps[peer]; !ok {
		b.FileMaps[peer] = make(map[int]bool)
	}
}

// HandleTimer implements sm.Service.
func (b *Bullet) HandleTimer(ctx sm.Context, t sm.TimerID) {
	switch t {
	case TimerPeer:
		b.maintainMesh(ctx)
		ctx.SetTimer(TimerPeer, 2*sm.Second)
	case TimerDiff:
		for _, peer := range b.peers() {
			b.sendDiff(ctx, peer)
		}
		ctx.SetTimer(TimerDiff, b.cfg.DiffInterval)
	case TimerRequest:
		b.issueRequests(ctx)
		ctx.SetTimer(TimerRequest, b.cfg.RequestInterval)
	}
}

func (b *Bullet) maintainMesh(ctx sm.Context) {
	if len(b.Shadow) >= b.cfg.MaxPeers {
		return
	}
	// Invite random members we are not yet peered with.
	candidates := make([]sm.NodeID, 0, len(b.cfg.Members))
	for _, m := range b.cfg.Members {
		if m == b.Self {
			continue
		}
		if _, ok := b.Shadow[m]; ok {
			continue
		}
		candidates = append(candidates, m)
	}
	if len(candidates) == 0 {
		return
	}
	pick := candidates[ctx.Rand().Intn(len(candidates))]
	ctx.Send(pick, Peering{})
}

// sendDiff computes and (maybe) transmits the pending diff for peer. This
// is the paper's buggy code path.
func (b *Bullet) sendDiff(ctx sm.Context, peer sm.NodeID) {
	shadow := b.Shadow[peer]
	if len(shadow) == 0 {
		return
	}
	blocks := make([]int, 0, len(shadow))
	for blk := range shadow {
		blocks = append(blocks, blk)
	}
	sort.Ints(blocks)
	if b.Outstanding[peer] >= b.cfg.Window {
		// The bounded transport refuses the enqueue.
		if !b.fixed(FixShadowOnRefusal) {
			// Bug 1 (paper): the shadow map is cleared even though
			// the diff never left, so these blocks are never
			// advertised to this receiver again. (The historical
			// "fix" retried the send later but kept this clearing
			// code, so the retry had nothing to send.)
			b.Shadow[peer] = make(map[int]bool)
		}
		return
	}
	// Successful enqueue: blocks move from shadow to advertised.
	b.Shadow[peer] = make(map[int]bool)
	adv := b.Advertised[peer]
	for _, blk := range blocks {
		adv[blk] = true
	}
	b.Outstanding[peer]++
	ctx.Send(peer, Diff{Blocks: blocks})
}

// issueRequests applies the rarest-random policy: among missing blocks
// advertised by at least one sender, request those with the fewest holders
// first, breaking ties randomly.
func (b *Bullet) issueRequests(ctx sm.Context) {
	// Age outstanding requests; expired ones become eligible again.
	for blk, ttl := range b.Requested {
		if ttl <= 1 {
			delete(b.Requested, blk)
		} else {
			b.Requested[blk] = ttl - 1
		}
	}
	if b.outstandingRequests() >= b.cfg.MaxOutstandingRequests {
		return
	}
	type cand struct {
		block   int
		holders []sm.NodeID
	}
	var cands []cand
	for blk := 0; blk < b.cfg.Blocks; blk++ {
		if b.Have[blk] {
			continue
		}
		if _, pending := b.Requested[blk]; pending {
			continue
		}
		var holders []sm.NodeID
		for _, peer := range b.peers() {
			if b.FileMaps[peer][blk] {
				holders = append(holders, peer)
			}
		}
		if len(holders) > 0 {
			cands = append(cands, cand{block: blk, holders: holders})
		}
	}
	if len(cands) == 0 {
		return
	}
	// Rarest first; shuffle within equal rarity via random tie-break.
	rng := ctx.Rand()
	sort.Slice(cands, func(i, j int) bool {
		if len(cands[i].holders) != len(cands[j].holders) {
			return len(cands[i].holders) < len(cands[j].holders)
		}
		return cands[i].block < cands[j].block
	})
	budget := b.cfg.MaxOutstandingRequests - b.outstandingRequests()
	for _, c := range cands {
		if budget == 0 {
			return
		}
		holder := c.holders[rng.Intn(len(c.holders))]
		b.Requested[c.block] = requestTTL
		ctx.Send(holder, Request{Block: c.block})
		budget--
	}
}

func (b *Bullet) outstandingRequests() int { return len(b.Requested) }

// HandleMessage implements sm.Service.
func (b *Bullet) HandleMessage(ctx sm.Context, from sm.NodeID, msg sm.Message) {
	switch m := msg.(type) {
	case Peering:
		b.addPeer(from)
		ctx.Send(from, PeeringAck{})
	case PeeringAck:
		b.addPeer(from)
	case Diff:
		b.addPeer(from)
		fm := b.FileMaps[from]
		for _, blk := range m.Blocks {
			fm[blk] = true
		}
		ctx.Send(from, Ack{})
	case Request:
		if b.Have[m.Block] && b.Outstanding[from] < b.cfg.Window {
			b.Outstanding[from]++
			ctx.Send(from, Data{Block: m.Block, Bytes: b.cfg.BlockSize})
		}
	case Data:
		delete(b.Requested, m.Block)
		if !b.Have[m.Block] {
			b.receiveBlock(m.Block)
		}
		ctx.Send(from, Ack{})
	case Ack:
		if b.Outstanding[from] > 0 {
			b.Outstanding[from]--
		}
	}
}

// receiveBlock installs a new block and queues it on every receiver's
// shadow map.
func (b *Bullet) receiveBlock(blk int) {
	b.Have[blk] = true
	for _, peer := range b.peers() {
		b.Shadow[peer][blk] = true
	}
	if len(b.Have) == b.cfg.Blocks {
		b.Complete = true
	}
}

// HandleApp implements sm.Service (Bullet′ is timer-driven).
func (b *Bullet) HandleApp(ctx sm.Context, call sm.AppCall) {}

// HandleTransportError implements sm.Service: drop the peering.
func (b *Bullet) HandleTransportError(ctx sm.Context, peer sm.NodeID) {
	delete(b.Shadow, peer)
	delete(b.Advertised, peer)
	delete(b.Outstanding, peer)
	if b.fixed(FixStaleFileMap) {
		// Bug 3: the stale per-sender file map survives the error,
		// leaving phantom blocks that skew rarest-random requests
		// toward a dead or amnesiac sender.
		delete(b.FileMaps, peer)
	}
}

// Neighbors implements sm.Service: the mesh peers.
func (b *Bullet) Neighbors() []sm.NodeID { return b.peers() }

// Progress reports how many blocks the node holds.
func (b *Bullet) Progress() int { return len(b.Have) }

// Clone implements sm.Service.
func (b *Bullet) Clone() sm.Service {
	cp := &Bullet{
		Self:        b.Self,
		Have:        cloneIntSet(b.Have),
		Shadow:      clonePeerBlocks(b.Shadow),
		Advertised:  clonePeerBlocks(b.Advertised),
		FileMaps:    clonePeerBlocks(b.FileMaps),
		Outstanding: make(map[sm.NodeID]int, len(b.Outstanding)),
		Requested:   make(map[int]int, len(b.Requested)),
		Complete:    b.Complete,
		cfg:         b.cfg,
	}
	for k, v := range b.Outstanding {
		cp.Outstanding[k] = v
	}
	for k, v := range b.Requested {
		cp.Requested[k] = v
	}
	return cp
}

func cloneIntSet(s map[int]bool) map[int]bool {
	out := make(map[int]bool, len(s))
	for k, v := range s {
		if v {
			out[k] = true
		}
	}
	return out
}

func clonePeerBlocks(m map[sm.NodeID]map[int]bool) map[sm.NodeID]map[int]bool {
	out := make(map[sm.NodeID]map[int]bool, len(m))
	for k, v := range m {
		out[k] = cloneIntSet(v)
	}
	return out
}

// EncodeState implements sm.Service.
func (b *Bullet) EncodeState(e *sm.Encoder) {
	e.NodeID(b.Self)
	encodeIntSet(e, b.Have)
	encodePeerBlocks(e, b.Shadow)
	encodePeerBlocks(e, b.Advertised)
	encodePeerBlocks(e, b.FileMaps)
	ids := make([]sm.NodeID, 0, len(b.Outstanding))
	for id := range b.Outstanding {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.Uint32(uint32(len(ids)))
	for _, id := range ids {
		e.NodeID(id)
		e.Int(b.Outstanding[id])
	}
	blocks := make([]int, 0, len(b.Requested))
	for blk := range b.Requested {
		blocks = append(blocks, blk)
	}
	sort.Ints(blocks)
	e.Uint32(uint32(len(blocks)))
	for _, blk := range blocks {
		e.Int(blk)
		e.Int(b.Requested[blk])
	}
	e.Bool(b.Complete)
}

func encodeIntSet(e *sm.Encoder, s map[int]bool) {
	blocks := make([]int, 0, len(s))
	for blk, ok := range s {
		if ok {
			blocks = append(blocks, blk)
		}
	}
	sort.Ints(blocks)
	e.Uint32(uint32(len(blocks)))
	for _, blk := range blocks {
		e.Int(blk)
	}
}

func encodePeerBlocks(e *sm.Encoder, m map[sm.NodeID]map[int]bool) {
	ids := make([]sm.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.Uint32(uint32(len(ids)))
	for _, id := range ids {
		e.NodeID(id)
		encodeIntSet(e, m[id])
	}
}

// DecodeState implements sm.Service.
func (b *Bullet) DecodeState(d *sm.Decoder) error {
	b.Self = d.NodeID()
	b.Have = decodeIntSet(d)
	b.Shadow = decodePeerBlocks(d)
	b.Advertised = decodePeerBlocks(d)
	b.FileMaps = decodePeerBlocks(d)
	n := d.Count(12)
	b.Outstanding = make(map[sm.NodeID]int, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		id := d.NodeID()
		b.Outstanding[id] = d.Int()
	}
	nr := d.Count(16)
	b.Requested = make(map[int]int, nr)
	for i := 0; i < nr && d.Err() == nil; i++ {
		blk := d.Int()
		b.Requested[blk] = d.Int()
	}
	b.Complete = d.Bool()
	return d.Err()
}

func decodeIntSet(d *sm.Decoder) map[int]bool {
	n := d.Count(8)
	out := make(map[int]bool, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out[d.Int()] = true
	}
	return out
}

func decodePeerBlocks(d *sm.Decoder) map[sm.NodeID]map[int]bool {
	n := d.Count(8)
	out := make(map[sm.NodeID]map[int]bool, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		id := d.NodeID()
		out[id] = decodeIntSet(d)
	}
	return out
}

// ServiceName implements sm.Service.
func (b *Bullet) ServiceName() string { return "bulletprime" }
