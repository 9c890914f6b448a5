package sm

import (
	"fmt"
	"slices"
)

// TimerSet is a node's pending-timer set: the names of the scheduled timers
// in ascending order, each at most once. It is the one representation of a
// timer set in the tree — the checker's node state, the property view, the
// runtime's speculative context and the checkpoint codec all hold this type.
//
// A set is a value until someone publishes it: the holder of a set nobody
// else can see yet (a handler context's working copy, a set just built for a
// start state) may edit it in place with Add and Remove. Once it is part of a
// finalized checker state or a property view it is immutable and shared by
// every successor that left it unchanged, so from then on nobody writes it:
// a changed set is a copy, edited before it is published.
//
// The zero value is the empty set.
type TimerSet []TimerID

// NewTimerSet returns the set of the given names (sorted, duplicates
// dropped). The result does not alias the argument list.
func NewTimerSet(timers ...TimerID) TimerSet {
	s := slices.Clone(TimerSet(timers))
	slices.Sort(s)
	return slices.Compact(s)
}

// Has reports whether t is pending.
func (s TimerSet) Has(t TimerID) bool {
	_, present := slices.BinarySearch(s, t)
	return present
}

// Equal reports whether s and o hold the same timers.
func (s TimerSet) Equal(o TimerSet) bool { return slices.Equal(s, o) }

// Add inserts t in place, keeping the order; only the set's sole holder may
// call it.
func (s *TimerSet) Add(t TimerID) {
	if i, present := slices.BinarySearch(*s, t); !present {
		*s = slices.Insert(*s, i, t)
	}
}

// Remove deletes t in place; only the set's sole holder may call it.
func (s *TimerSet) Remove(t TimerID) {
	if i, present := slices.BinarySearch(*s, t); present {
		*s = slices.Delete(*s, i, i+1)
	}
}

// Encode appends the set's canonical form — count, then each name in
// ascending order — which is the timer segment of EncodeFullState and of the
// checker's node encoding.
func (s TimerSet) Encode(e *Encoder) {
	e.Uint32(uint32(len(s)))
	for _, t := range s {
		e.String(string(t))
	}
}

// DecodeTimerSet reads a set written by Encode. The bytes may come from a
// peer, so the count is bounded by what the buffer could hold before anything
// is allocated, decoding stops at the first error, and the names are
// normalised — sorted, a repeated name rejected — so that a decoded set always
// holds the type's invariant.
func DecodeTimerSet(d *Decoder) (TimerSet, error) {
	n := d.Count(4) // every name costs at least its 4-byte length prefix
	if err := d.Err(); err != nil {
		return nil, err
	}
	s := make(TimerSet, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, TimerID(d.String()))
		if err := d.Err(); err != nil {
			return nil, err
		}
	}
	slices.Sort(s)
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return nil, fmt.Errorf("sm: timer %q repeated", s[i])
		}
	}
	return s, nil
}
