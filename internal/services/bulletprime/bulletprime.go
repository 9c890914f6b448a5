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
// reconstructed members of the same class:
//
//  1. when a diff cannot be enqueued, the shadow map is cleared anyway, so
//     affected blocks are never re-advertised ("the programmer left the
//     code for clearing the shadow file map after a failed send");
//  2. when a receiver re-establishes a peering, the sender initialises the
//     fresh shadow map empty instead of seeding it with every held block;
//  3. a receiver keeps its stale per-sender file map across a transport
//     error, leaving phantom blocks that skew the rarest-random policy.
//
// # State layout
//
// The checker clones a node's state once per executed transition and keeps
// one per claimed state, so the state is flat: a block set is a bitset over
// [0, cfg.Blocks) — (cfg.Blocks+63)/64 words — and all of them live in one
// arena, Have first and then three sets (shadow, advertised, file map) per
// entry of one peer table sorted by id. A request in flight is a
// {block, ttl} pair in a slice sorted by block. A clone is the struct and
// three slice copies; cfg is one value shared by every instance a factory
// makes.
//
// Presence is state. The wire form (EncodeState) lists the peers that have a
// shadow set, an advertised set, a file map and an outstanding count
// separately, and an empty set or a zero count still encodes: an Outstanding
// entry that fell back to 0, or the file map that outlives its peering under
// bug 3, distinguishes two states. A table entry therefore carries one
// presence bit per list, lives as long as any bit is set, and keeps the
// words of an absent set (and an absent count) at zero.
//
// Determinism is "ascending order everywhere": the table is walked in id
// order and a set in bit order, which is the order the encoder, every
// Send and every Rand draw see. No iteration order is left to chance, and
// the encoder has nothing to sort.
package bulletprime

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

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

// The periods of the two periodic loops.
const (
	diffInterval    = sm.Second
	requestInterval = sm.Second / 2
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
}

// New returns an sm.Factory producing Bullet′ instances.
func New(cfg Config) sm.Factory {
	cfg.defaults()
	return func(self sm.NodeID) sm.Service {
		b := &Bullet{Self: self, cfg: &cfg}
		b.arena = make([]uint64, b.words())
		if self == cfg.Source {
			have := b.have()
			for blk := 0; blk < cfg.Blocks; blk++ {
				have.add(blk)
			}
		}
		return b
	}
}

// blockSet is a set of block ids: block b is bit b%64 of word b/64. Walking
// the words upward and each word from its lowest bit visits the blocks in
// ascending order.
type blockSet []uint64

func (s blockSet) has(blk int) bool { return s[blk>>6]&(1<<(blk&63)) != 0 }
func (s blockSet) add(blk int)      { s[blk>>6] |= 1 << (blk & 63) }

func (s blockSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

func (s blockSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// appendTo appends the blocks of s to dst in ascending order.
func (s blockSet) appendTo(dst []int) []int {
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, i<<6+bits.TrailingZeros64(w))
		}
	}
	return dst
}

func (s blockSet) encode(e *sm.Encoder) {
	e.Uint32(uint32(s.count()))
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			e.Int(i<<6 + bits.TrailingZeros64(w))
		}
	}
}

// The three block sets a table entry owns in the arena, in arena order. Bit
// 1<<k of peer.present says set k exists (the peer has an entry in what used
// to be the Shadow, Advertised or FileMaps map); hasOutstanding says the same
// of its count.
const (
	shadowSet = iota // blocks not yet told to this receiver; present == mesh peer
	advertisedSet
	fileMapSet // blocks this sender advertised to us
	setsPerPeer

	hasOutstanding = 1 << setsPerPeer
)

// peer is one row of the peer table.
type peer struct {
	id      sm.NodeID
	present uint8
	// outstanding counts unacked messages to id (the bounded transport
	// queue).
	outstanding int
}

func (p *peer) peered() bool { return p.present&(1<<shadowSet) != 0 }

// request is an outstanding block request and the request-timer ticks left
// before it expires and the block becomes eligible again (senders with full
// windows drop requests silently, so receivers must retry).
type request struct{ block, ttl int }

// Bullet is the per-node Bullet′ state machine; the package comment
// describes the layout.
type Bullet struct {
	Self sm.NodeID
	// Complete is set once the download completed (kept in state so
	// checkpoints capture progress).
	Complete bool

	cfg *Config // shared by every instance of one factory; never written

	table     []peer    // ascending by id
	arena     []uint64  // Have, then setsPerPeer sets per table entry
	requested []request // ascending by block
	// mesh is the ids of the peered entries, ascending: what Neighbors
	// returns. It is rebuilt, never edited, when a peering comes or goes, so
	// clones share it.
	mesh []sm.NodeID
}

func (b *Bullet) fixed(f Fix) bool { return b.cfg.Fixes&f != 0 }

// words is the length of one block set.
func (b *Bullet) words() int { return (b.cfg.Blocks + 63) >> 6 }

func (b *Bullet) inRange(blk int) bool { return blk >= 0 && blk < b.cfg.Blocks }

// have is this node's own file map.
func (b *Bullet) have() blockSet { return b.arena[:b.words()] }

// set returns set k of table entry i.
func (b *Bullet) set(i, k int) blockSet {
	w := b.words()
	at := w * (1 + setsPerPeer*i + k)
	return b.arena[at : at+w]
}

// find returns id's position in the table and whether it is there; for an
// absent id, the position it would be inserted at.
func (b *Bullet) find(id sm.NodeID) (int, bool) {
	return slices.BinarySearchFunc(b.table, id, func(p peer, id sm.NodeID) int { return cmp.Compare(p.id, id) })
}

// entry returns the position of id's table entry, inserting an empty one
// (nothing present, all words zero) if there is none.
func (b *Bullet) entry(id sm.NodeID) int {
	i, ok := b.find(id)
	if !ok {
		b.table = slices.Insert(b.table, i, peer{id: id})
		n := setsPerPeer * b.words()
		at := len(b.have()) + n*i
		b.arena = slices.Grow(b.arena, n)[:len(b.arena)+n]
		copy(b.arena[at+n:], b.arena[at:])
		clear(b.arena[at : at+n])
	}
	return i
}

// forget clears what of table entry i the mask names — zeroing the sets and
// the count that stop being present — and drops the entry once nothing of it
// is.
func (b *Bullet) forget(i int, mask uint8) {
	p := &b.table[i]
	for k := 0; k < setsPerPeer; k++ {
		if mask&(1<<k) != 0 {
			clear(b.set(i, k))
		}
	}
	if mask&hasOutstanding != 0 {
		p.outstanding = 0
	}
	if p.present &^= mask; p.present == 0 {
		n := setsPerPeer * b.words()
		at := len(b.have()) + n*i
		b.arena = slices.Delete(b.arena, at, at+n)
		b.table = slices.Delete(b.table, i, i+1)
	}
}

// remesh rebuilds mesh from the table.
func (b *Bullet) remesh() {
	mesh := make([]sm.NodeID, 0, len(b.table))
	for i := range b.table {
		if b.table[i].peered() {
			mesh = append(mesh, b.table[i].id)
		}
	}
	b.mesh = mesh
}

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
	ctx.SetTimer(TimerDiff, diffInterval)
	ctx.SetTimer(TimerRequest, requestInterval)
}

// addPeer installs sender- and receiver-side state for a new mesh peer and
// returns its table position.
func (b *Bullet) addPeer(id sm.NodeID) int {
	i := b.entry(id)
	p := &b.table[i]
	if p.peered() {
		return i
	}
	// A file map that outlived an earlier peering (bug 3) is kept as it is.
	p.present |= 1<<shadowSet | 1<<advertisedSet | 1<<fileMapSet
	if b.fixed(FixShadowOnPeering) {
		// Bug 2: a fresh shadow map must advertise everything we
		// already hold; the buggy path starts empty, so pre-existing
		// blocks are never announced to this receiver.
		copy(b.set(i, shadowSet), b.have())
	}
	b.remesh()
	return i
}

// HandleTimer implements sm.Service.
func (b *Bullet) HandleTimer(ctx sm.Context, t sm.TimerID) {
	switch t {
	case TimerPeer:
		b.maintainMesh(ctx)
		ctx.SetTimer(TimerPeer, 2*sm.Second)
	case TimerDiff:
		for i := range b.table {
			if b.table[i].peered() {
				b.sendDiff(ctx, i)
			}
		}
		ctx.SetTimer(TimerDiff, diffInterval)
	case TimerRequest:
		b.issueRequests(ctx)
		ctx.SetTimer(TimerRequest, requestInterval)
	}
}

// candidate reports whether m may be invited into the mesh.
func (b *Bullet) candidate(m sm.NodeID) bool {
	return m != b.Self && !slices.Contains(b.mesh, m)
}

func (b *Bullet) maintainMesh(ctx sm.Context) {
	if len(b.mesh) >= b.cfg.MaxPeers {
		return
	}
	// Invite a random member we are not yet peered with.
	n := 0
	for _, m := range b.cfg.Members {
		if b.candidate(m) {
			n++
		}
	}
	if n == 0 {
		return
	}
	pick := ctx.Rand().Intn(n)
	for _, m := range b.cfg.Members {
		if !b.candidate(m) {
			continue
		}
		if pick == 0 {
			ctx.Send(m, Peering{})
			return
		}
		pick--
	}
}

// sendDiff computes and (maybe) transmits the pending diff for the peer at
// table position i. This is the paper's buggy code path.
func (b *Bullet) sendDiff(ctx sm.Context, i int) {
	p, shadow := &b.table[i], b.set(i, shadowSet)
	if shadow.empty() {
		return
	}
	if p.outstanding >= b.cfg.Window {
		// The bounded transport refuses the enqueue.
		if !b.fixed(FixShadowOnRefusal) {
			// Bug 1 (paper): the shadow map is cleared even though
			// the diff never left, so these blocks are never
			// advertised to this receiver again. (The historical
			// "fix" retried the send later but kept this clearing
			// code, so the retry had nothing to send.)
			clear(shadow)
		}
		return
	}
	// Successful enqueue: blocks move from shadow to advertised.
	blocks := shadow.appendTo(make([]int, 0, shadow.count()))
	adv := b.set(i, advertisedSet)
	for w := range shadow {
		adv[w] |= shadow[w]
	}
	clear(shadow)
	p.present |= 1<<advertisedSet | hasOutstanding
	p.outstanding++
	ctx.Send(p.id, Diff{Blocks: blocks})
}

// holders counts the mesh peers whose file map lists blk.
func (b *Bullet) holders(blk int) int {
	n := 0
	for i := range b.table {
		if b.table[i].peered() && b.set(i, fileMapSet).has(blk) {
			n++
		}
	}
	return n
}

// issueRequests applies the rarest-random policy: among missing blocks
// advertised by at least one sender, request those with the fewest holders
// first (lower block first among equally rare ones), from a random holder.
func (b *Bullet) issueRequests(ctx sm.Context) {
	// Age outstanding requests; expired ones become eligible again.
	kept := b.requested[:0]
	for _, r := range b.requested {
		if r.ttl > 1 {
			kept = append(kept, request{r.block, r.ttl - 1})
		}
	}
	b.requested = kept
	budget := b.cfg.MaxOutstandingRequests - len(b.requested)
	have := b.have()
	// One pass per rarity: a block requested in the pass of its own holder
	// count is in no other, so the requests made along the way hide nothing.
	for rarity := 1; rarity <= len(b.mesh); rarity++ {
		for blk := 0; blk < b.cfg.Blocks; blk++ {
			if budget <= 0 {
				return
			}
			if have.has(blk) || b.holders(blk) != rarity {
				continue
			}
			at, pending := b.findRequest(blk)
			if pending {
				continue
			}
			pick := ctx.Rand().Intn(rarity)
			for i := range b.table {
				if !b.table[i].peered() || !b.set(i, fileMapSet).has(blk) {
					continue
				}
				if pick == 0 {
					b.requested = slices.Insert(b.requested, at, request{blk, requestTTL})
					ctx.Send(b.table[i].id, Request{Block: blk})
					budget--
					break
				}
				pick--
			}
		}
	}
}

// findRequest returns blk's position in requested and whether it is there;
// for an absent block, the position it would be inserted at.
func (b *Bullet) findRequest(blk int) (int, bool) {
	return slices.BinarySearchFunc(b.requested, blk, func(r request, blk int) int { return cmp.Compare(r.block, blk) })
}

// HandleMessage implements sm.Service. A block id outside the file that
// arrives in a message is ignored: no set can hold it.
func (b *Bullet) HandleMessage(ctx sm.Context, from sm.NodeID, msg sm.Message) {
	switch m := msg.(type) {
	case Peering:
		b.addPeer(from)
		ctx.Send(from, PeeringAck{})
	case PeeringAck:
		b.addPeer(from)
	case Diff:
		i := b.addPeer(from)
		b.table[i].present |= 1 << fileMapSet
		fm := b.set(i, fileMapSet)
		for _, blk := range m.Blocks {
			if b.inRange(blk) {
				fm.add(blk)
			}
		}
		ctx.Send(from, Ack{})
	case Request:
		if !b.inRange(m.Block) || !b.have().has(m.Block) {
			return
		}
		if i, ok := b.find(from); !ok || b.table[i].outstanding < b.cfg.Window {
			p := &b.table[b.entry(from)]
			p.present |= hasOutstanding
			p.outstanding++
			ctx.Send(from, Data{Block: m.Block, Bytes: b.cfg.BlockSize})
		}
	case Data:
		if i, pending := b.findRequest(m.Block); pending {
			b.requested = slices.Delete(b.requested, i, i+1)
		}
		if b.inRange(m.Block) && !b.have().has(m.Block) {
			b.receiveBlock(m.Block)
		}
		ctx.Send(from, Ack{})
	case Ack:
		if i, ok := b.find(from); ok && b.table[i].outstanding > 0 {
			b.table[i].outstanding--
		}
	}
}

// receiveBlock installs a new block and queues it on every receiver's
// shadow map.
func (b *Bullet) receiveBlock(blk int) {
	b.have().add(blk)
	for i := range b.table {
		if b.table[i].peered() {
			b.set(i, shadowSet).add(blk)
		}
	}
	if b.Progress() == b.cfg.Blocks {
		b.Complete = true
	}
}

// HandleApp implements sm.Service (Bullet′ is timer-driven).
func (b *Bullet) HandleApp(ctx sm.Context, call sm.AppCall) {}

// HandleTransportError implements sm.Service: drop the peering.
func (b *Bullet) HandleTransportError(ctx sm.Context, id sm.NodeID) {
	i, ok := b.find(id)
	if !ok {
		return
	}
	var gone uint8 = 1<<shadowSet | 1<<advertisedSet | hasOutstanding
	if b.fixed(FixStaleFileMap) {
		// Bug 3: the stale per-sender file map survives the error,
		// leaving phantom blocks that skew rarest-random requests
		// toward a dead or amnesiac sender.
		gone |= 1 << fileMapSet
	}
	wasPeered := b.table[i].peered()
	b.forget(i, gone)
	if wasPeered {
		b.remesh()
	}
}

// Neighbors implements sm.Service: the mesh peers, ascending. The slice is
// shared with every clone of b; callers only read it.
func (b *Bullet) Neighbors() []sm.NodeID { return b.mesh }

// Progress reports how many blocks the node holds.
func (b *Bullet) Progress() int { return b.have().count() }

// Clone implements sm.Service.
func (b *Bullet) Clone() sm.Service { return b.CloneInto(nil) }

// CloneInto implements sm.Service: the struct and the three slices a handler
// writes, into dst's (mesh is replaced, never written, and cfg is
// read-only, so both are shared).
//
//crystal:hotpath
func (b *Bullet) CloneInto(dst sm.Service) sm.Service {
	out, ok := dst.(*Bullet)
	if !ok {
		out = new(Bullet)
	}
	table, arena, requested := out.table, out.arena, out.requested
	*out = *b
	out.table = append(table[:0], b.table...)
	out.arena = append(arena[:0], b.arena...)
	out.requested = append(requested[:0], b.requested...)
	return out
}

// EncodeState implements sm.Service. The wire form is the one the six maps
// of earlier revisions encoded to: Have, then the peers and sets of Shadow,
// Advertised and FileMaps, then Outstanding and Requested, everything in
// ascending order.
//
//crystal:hotpath
func (b *Bullet) EncodeState(e *sm.Encoder) {
	e.NodeID(b.Self)
	b.have().encode(e)
	for k := 0; k < setsPerPeer; k++ {
		e.Uint32(uint32(b.countPresent(1 << k)))
		for i := range b.table {
			if b.table[i].present&(1<<k) != 0 {
				e.NodeID(b.table[i].id)
				b.set(i, k).encode(e)
			}
		}
	}
	e.Uint32(uint32(b.countPresent(hasOutstanding)))
	for i := range b.table {
		if p := &b.table[i]; p.present&hasOutstanding != 0 {
			e.NodeID(p.id)
			e.Int(p.outstanding)
		}
	}
	e.Uint32(uint32(len(b.requested)))
	for _, r := range b.requested {
		e.Int(r.block)
		e.Int(r.ttl)
	}
	e.Bool(b.Complete)
}

// countPresent counts the table entries that have bit set.
func (b *Bullet) countPresent(bit uint8) int {
	n := 0
	for i := range b.table {
		if b.table[i].present&bit != 0 {
			n++
		}
	}
	return n
}

// DecodeState implements sm.Service. The bytes may come from a peer: a block
// id outside [0, cfg.Blocks) or an id listed twice is an error, not a state.
// Entries in any order are accepted and held sorted.
func (b *Bullet) DecodeState(d *sm.Decoder) error {
	b.Self = d.NodeID()
	b.table, b.requested = nil, nil
	b.arena = make([]uint64, b.words())
	if err := b.decodeSet(d, b.have()); err != nil {
		return err
	}
	for k := 0; k < setsPerPeer; k++ {
		for n := d.Count(8); n > 0; n-- {
			i, err := b.decodeEntry(d, 1<<k)
			if err != nil {
				return err
			}
			if err := b.decodeSet(d, b.set(i, k)); err != nil {
				return err
			}
		}
	}
	for n := d.Count(12); n > 0; n-- {
		i, err := b.decodeEntry(d, hasOutstanding)
		if err != nil {
			return err
		}
		b.table[i].outstanding = d.Int()
	}
	for n := d.Count(16); n > 0; n-- {
		blk, ttl := d.Int(), d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		i, dup := b.findRequest(blk)
		if dup || !b.inRange(blk) {
			return fmt.Errorf("bulletprime: decode: request for block %d repeated or outside [0, %d)", blk, b.cfg.Blocks)
		}
		b.requested = slices.Insert(b.requested, i, request{blk, ttl})
	}
	b.Complete = d.Bool()
	b.remesh()
	return d.Err()
}

// decodeEntry reads a peer id and marks bit present in its table entry.
func (b *Bullet) decodeEntry(d *sm.Decoder, bit uint8) (int, error) {
	id := d.NodeID()
	if d.Err() != nil {
		return 0, d.Err()
	}
	i := b.entry(id)
	if b.table[i].present&bit != 0 {
		return 0, fmt.Errorf("bulletprime: decode: peer %v listed twice", id)
	}
	b.table[i].present |= bit
	return i, nil
}

// decodeSet reads a block set into s.
func (b *Bullet) decodeSet(d *sm.Decoder, s blockSet) error {
	for n := d.Count(8); n > 0; n-- {
		blk := d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		if !b.inRange(blk) {
			return fmt.Errorf("bulletprime: decode: block %d outside [0, %d)", blk, b.cfg.Blocks)
		}
		s.add(blk)
	}
	return d.Err()
}
