package sm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// FNV-64a streamed as plain integer state, so hot paths can hash without
// instantiating a hash.Hash64 (fnv.New64a escapes to the heap on every
// call). The constants and update rule match hash/fnv exactly.
const (
	// FNV64aInit is the FNV-64a offset basis: the initial hash state.
	FNV64aInit uint64 = 14695981039346656037
	fnvPrime64 uint64 = 1099511628211
)

// FNV64aByte folds one byte into an FNV-64a hash state.
func FNV64aByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

// FNV64aBytes folds a byte slice into an FNV-64a hash state.
func FNV64aBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// FNV64aString folds a string into an FNV-64a hash state.
func FNV64aString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// Mix64 finalizes a 64-bit hash with murmur3's fmix64 avalanche. FNV-64a
// alone is too weak for hash values that are *summed* into a commutative
// fingerprint: two encodings differing in one late byte produce FNV values
// whose difference is close to δ·prime^k, so structured component sets can
// cancel additively (e.g. the RST items n1→2,…,n1→5 satisfy
// c2+c5 == c3+c4 exactly, aliasing distinct global states). The fmix64
// xor-shift/multiply rounds give every input bit full avalanche, making
// such cancellations as unlikely as random 64-bit collisions.
func Mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Encoder writes values in a stable, deterministic binary form. It backs
// three mechanisms that all need byte-identical encodings for equal states:
// state hashing in the model checker, checkpoint contents in the snapshot
// manager, and duplicate-checkpoint suppression.
//
// An Encoder is reusable through Reset and keeps its buffer (and the NodeSet
// sorting scratch) across uses, so a pooled or worker-owned Encoder encodes
// without allocating in steady state.
type Encoder struct {
	buf []byte
	ids []NodeID // NodeSet sorting scratch, reused across calls
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded bytes. The slice aliases the encoder's buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards all encoded data, retaining the buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Hash returns the finalized (Mix64) FNV-64a hash of the encoded bytes.
// The model checker stores only these hashes (the paper notes the checker
// caches hashes, not states, to bound memory). Computed with the streamed
// FNV helpers, so no hash object is allocated.
func (e *Encoder) Hash() uint64 {
	return Mix64(FNV64aBytes(FNV64aInit, e.buf))
}

// DomainHash returns the finalized (Mix64) FNV-64a hash of the domain byte
// followed by the encoded bytes. The model checker's commutative state
// fingerprint *sums* one such hash per state component (node, message,
// stale pair, resets counter): the domain tag keeps equal byte strings in
// different roles from cancelling across component types, and the Mix64
// avalanche keeps structurally similar components of the same type from
// cancelling within it.
func (e *Encoder) DomainHash(domain byte) uint64 {
	return Mix64(FNV64aBytes(FNV64aByte(FNV64aInit, domain), e.buf))
}

// Uint64 appends v big-endian.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int64 appends v.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Uint32 appends v big-endian.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Int appends v as 64 bits.
func (e *Encoder) Int(v int) { e.Uint64(uint64(int64(v))) }

// Bool appends a single 0/1 byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// NodeID appends a node identifier.
func (e *Encoder) NodeID(n NodeID) { e.Uint32(uint32(n)) }

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes2 appends a length-prefixed byte slice.
func (e *Encoder) Bytes2(b []byte) {
	e.Uint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// NodeSet appends a set of node ids in sorted order, so that two equal sets
// encode identically regardless of map iteration order. The sorting scratch
// is owned by the encoder and reused, so repeated NodeSet calls on a
// reusable encoder do not allocate.
func (e *Encoder) NodeSet(set map[NodeID]bool) {
	ids := e.ids[:0]
	for n, ok := range set {
		if ok {
			ids = append(ids, n)
		}
	}
	slices.Sort(ids)
	e.ids = ids
	e.Uint32(uint32(len(ids)))
	for _, n := range ids {
		e.NodeID(n)
	}
}

// NodeSlice appends a slice of node ids in order (order is significant,
// e.g. Chord successor lists).
func (e *Encoder) NodeSlice(ids []NodeID) {
	e.Uint32(uint32(len(ids)))
	for _, n := range ids {
		e.NodeID(n)
	}
}

// Decoder reads values written by Encoder.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps b for reading.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports how many bytes are left.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

var errShort = errors.New("sm: decode past end of buffer")

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = errShort
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint64 reads a big-endian uint64.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int64 reads an int64.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Uint32 reads a big-endian uint32.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Int reads an int written by Encoder.Int.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Bool reads a 0/1 byte.
func (d *Decoder) Bool() bool {
	b := d.take(1)
	return b != nil && b[0] == 1
}

// NodeID reads a node identifier.
func (d *Decoder) NodeID() NodeID { return NodeID(d.Uint32()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := int(d.Uint32())
	if d.err != nil || n < 0 || n > d.Remaining() {
		if d.err == nil {
			d.err = fmt.Errorf("sm: bad string length %d", n)
		}
		return ""
	}
	return string(d.take(n))
}

// Count reads an element count written by Encoder.Uint32 and bounds it by
// what is left of the buffer, every element taking at least min bytes: the
// bytes may come from a peer, and a decoder that sizes a map or a slice from
// an unchecked count can be made to allocate gigabytes by four of them. A
// count the buffer cannot hold is a decode error and reads as 0, so the
// caller's loop does not run.
func (d *Decoder) Count(min int) int {
	n := int(d.Uint32())
	if d.err == nil && (n < 0 || n > d.Remaining()/min) {
		d.err = fmt.Errorf("sm: bad count %d for %d bytes left", n, d.Remaining())
	}
	if d.err != nil {
		return 0
	}
	return n
}

// NodeSet reads a set written by Encoder.NodeSet.
func (d *Decoder) NodeSet() map[NodeID]bool {
	n := d.Count(4)
	if d.err != nil {
		return nil
	}
	set := make(map[NodeID]bool, n)
	for i := 0; i < n; i++ {
		set[d.NodeID()] = true
	}
	return set
}

// NodeSlice reads a slice written by Encoder.NodeSlice.
func (d *Decoder) NodeSlice() []NodeID {
	n := d.Count(4)
	if d.err != nil {
		return nil
	}
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = d.NodeID()
	}
	return ids
}

// EncodeService returns the stable encoding of a service's state.
func EncodeService(s Service) []byte {
	e := NewEncoder()
	s.EncodeState(e)
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	return out
}

// CopyNodeSet makes dst a copy of set and returns it: dst is cleared and
// refilled, or made when nil; a convenience for Service.CloneInto
// implementations.
func CopyNodeSet(dst, set map[NodeID]bool) map[NodeID]bool {
	if dst == nil {
		dst = make(map[NodeID]bool, len(set))
	} else {
		clear(dst)
	}
	for k, v := range set {
		if v {
			dst[k] = true
		}
	}
	return dst
}

// CopyMap makes dst a copy of src and returns it: dst is cleared and
// refilled, or made when nil; a convenience for Service.CloneInto
// implementations.
func CopyMap[K comparable, V any](dst, src map[K]V) map[K]V {
	if dst == nil {
		dst = make(map[K]V, len(src))
	} else {
		clear(dst)
	}
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// CloneNodeSlice copies a node slice.
func CloneNodeSlice(ids []NodeID) []NodeID {
	if ids == nil {
		return nil
	}
	out := make([]NodeID, len(ids))
	copy(out, ids)
	return out
}

// SortedNodes returns the keys of set in ascending order.
func SortedNodes(set map[NodeID]bool) []NodeID {
	ids := make([]NodeID, 0, len(set))
	for n, ok := range set {
		if ok {
			ids = append(ids, n)
		}
	}
	slices.Sort(ids)
	return ids
}
