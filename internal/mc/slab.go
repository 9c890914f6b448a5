package mc

import (
	"math/bits"
	"unsafe"
)

// slab is append-only storage for values that are stored by value and never
// moved: value i lives at a fixed address from push until the slab is
// dropped, so an index is a stable reference and growing costs no copy. The
// chunks grow geometrically from a small first one — two of 1<<shift values,
// two of twice that, and so on — so a slab of a few dozen values costs a few
// dozen values, a slab of millions wastes at most a third of itself, and the
// directory stays a few dozen slice headers however large the slab gets.
//
// A slab that is reset keeps its chunks, and the values pushed next fill
// them again; it accounts only the chunks its values occupy.
//
// A slab has one writer. pin sizes the directory once and for all, after
// which push writes nothing a reader of earlier values looks at: another
// goroutine may then read any value whose push happened before it was told
// the index (Tree's cross-engine walks), with no lock.
type slab[T any] struct {
	chunks [][]T
	n      int
	shift  uint
}

// slabSlots is the directory length no slab of int32-indexed values outgrows.
const slabSlots = 64

// pin fixes the directory at its final length.
func (s *slab[T]) pin() { s.chunks = make([][]T, slabSlots) }

// locate returns the chunk holding value i and i's offset in it. In units of
// 1<<shift values, size level l (chunks of 1<<l units) starts at unit
// 2<<l - 2 and spans two chunks.
func (s *slab[T]) locate(i int) (chunk, off int) {
	v := uint(i)>>s.shift + 2
	l := uint(bits.Len(v)) - 2
	w := v - 2<<l
	return int(2*l + w>>l), int((w&(1<<l-1))<<s.shift | uint(i)&(1<<s.shift-1))
}

// at returns the address of value i.
func (s *slab[T]) at(i int) *T {
	c, off := s.locate(i)
	return &s.chunks[c][off]
}

// push appends v and returns its index.
func (s *slab[T]) push(v T) int {
	i := s.n
	c, off := s.locate(i)
	s.chunk(c)[off] = v
	s.n++
	return i
}

// chunk returns chunk c, making it if it is not there yet.
func (s *slab[T]) chunk(c int) []T {
	for c >= len(s.chunks) {
		s.chunks = append(s.chunks, nil)
	}
	if s.chunks[c] == nil {
		s.chunks[c] = make([]T, 1<<(s.shift+uint(c)/2))
	}
	return s.chunks[c]
}

// reserve appends n > 0 zero values that lie in one chunk and returns the
// first one's index, so run can hand them out as one slice. A chunk whose
// tail is too short for them is left with that tail unused.
func (s *slab[T]) reserve(n int) int {
	for {
		c, off := s.locate(s.n)
		if size := 1 << (s.shift + uint(c)/2); off+n > size {
			s.n += size - off
			continue
		}
		s.chunk(c)
		i := s.n
		s.n += n
		return i
	}
}

// run returns the n values from index i, which one reserve put in one chunk.
func (s *slab[T]) run(i, n int) []T {
	c, off := s.locate(i)
	return s.chunks[c][off : off+n : off+n]
}

// used returns the chunks that hold values: a fresh slab's every chunk, a
// reset one's first few.
func (s *slab[T]) used() [][]T {
	if s.n == 0 {
		return nil
	}
	last, _ := s.locate(s.n - 1)
	return s.chunks[:last+1]
}

// reset empties the slab, zeroing what it held, and keeps its chunks.
func (s *slab[T]) reset() {
	for _, c := range s.used() {
		clear(c)
	}
	s.n = 0
}

// bytes returns the heap bytes of the chunks that hold values: what a fresh
// slab of the same values allocates.
func (s *slab[T]) bytes() int64 {
	var zero T
	total := 0
	for _, c := range s.used() {
		total += len(c)
	}
	return int64(total) * int64(unsafe.Sizeof(zero))
}
