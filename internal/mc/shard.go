package mc

// This file is the partition arithmetic of a sharded search: an Engine owns
// a HashRange of the fingerprint space and hands successors that hash
// outside it to their owner (internal/dist).

// HashRange is a half-open range [Lo, Hi) of 64-bit state fingerprints: the
// unit of visited-set ownership in a sharded search. Hi == 0 means "top of
// the space" (2^64), so the zero value owns every fingerprint. Because
// GState.Hash is Mix64-avalanched, contiguous equal-width ranges split real
// state populations near-uniformly — no rehashing is needed to balance
// shards.
type HashRange struct {
	Lo, Hi uint64
}

// Contains reports whether the fingerprint h falls in the range.
func (r HashRange) Contains(h uint64) bool {
	return h >= r.Lo && (r.Hi == 0 || h < r.Hi)
}

// shardStep returns the width of each of n equal hash ranges. The value
// wraps to 0 at n == 1 (the full space), which Contains and ShardOwner
// treat as "everything".
func shardStep(n int) uint64 {
	if n <= 1 {
		return 0
	}
	return ^uint64(0)/uint64(n) + 1
}

// ShardRange returns shard i's hash range under an n-way equal-width
// partition of the fingerprint space. The ranges tile the space exactly:
// every fingerprint is in precisely one range, and ShardOwner agrees with
// Contains.
func ShardRange(i, n int) HashRange {
	step := shardStep(n)
	if step == 0 {
		return HashRange{}
	}
	r := HashRange{Lo: step * uint64(i)}
	if i < n-1 {
		r.Hi = step * uint64(i+1)
	}
	return r
}

// ShardOwner returns the index of the shard owning fingerprint h under the
// n-way partition of ShardRange.
func ShardOwner(h uint64, n int) int {
	step := shardStep(n)
	if step == 0 {
		return 0
	}
	i := int(h / step)
	if i >= n {
		i = n - 1
	}
	return i
}
