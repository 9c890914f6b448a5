// Package a is the fixture of TestCallerResolver and TestFieldResolver: each
// declaration is a case the callerless-declaration guard must or must not
// report, and each field one the field guard must or must not report.
package a

import "container/heap"

// Callerless is referenced by nothing: reported.
func Callerless() {}

// Recursive is referenced only by itself: reported.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// TestOnly is referenced only from a_test.go: reported.
func TestOnly() int { return 1 }

// Shared is referenced only from another package's non-test file.
func Shared() int { return 2 }

// box's get is used only through the instantiation box[int].
type box[T any] struct{ v T }

func (b *box[T]) get() T { return b.v }

// queue's methods are called only through heap.Interface.
type queue []int

func (q queue) Len() int           { return len(q) }
func (q queue) Less(i, j int) bool { return q[i] < q[j] }
func (q queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)        { *q = append(*q, x.(int)) }

func (q *queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// record's fields are the field guard's cases.
type record struct {
	read     int // read by Run: not reported
	assigned int // only the target of = and +=: reported
	bumped   int // only incremented: reported
	keyed    int // only a composite-literal key: reported
	testRead int // read only from a_test.go: reported
	inner        // read only through its promoted field: not reported
}

// inner's deep is read through record's embedded inner.
type inner struct{ deep int }

// pair keys a map, which compares both fields: neither is reported.
type pair struct{ x, y int }

// Run pushes a boxed value through a heap, then sums a record's fields.
func Run() int {
	b := &box[int]{v: 3}
	q := &queue{}
	heap.Init(q)
	heap.Push(q, b.get())
	r := record{read: 1, keyed: 2}
	r.assigned = 3
	r.assigned += 4
	r.bumped++
	seen := map[pair]bool{{1, 2}: true}
	if seen[pair{1, 2}] {
		r.deep = 5
	}
	return heap.Pop(q).(int) + r.read + r.deep
}
