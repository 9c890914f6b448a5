// Package a is the fixture of TestCallerResolver: each declaration is a case
// the callerless-declaration guard must or must not report.
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

// Run pushes a boxed value through a heap.
func Run() int {
	b := &box[int]{v: 3}
	q := &queue{}
	heap.Init(q)
	heap.Push(q, b.get())
	return heap.Pop(q).(int)
}
