// Package fifo provides a first-in first-out queue backed by a growable
// ring buffer. Unlike a slice popped with q = q[1:], the queue keeps and
// reuses its backing storage: once it has grown to a queue's standing
// depth, pushing and popping allocate nothing.
package fifo

// Queue is a FIFO of T. The zero value is an empty queue ready to use.
type Queue[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the front element in buf
	n    int // number of queued elements
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the back, doubling the storage when it is full.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the front element. The queue must not be empty.
// The vacated slot is zeroed so the queue retains no references.
func (q *Queue[T]) Pop() T {
	p := &q.buf[q.head]
	v := *p
	var zero T
	*p = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// At returns a pointer to the i-th element from the front (0 <= i < Len).
// The pointer is valid until the next Push.
func (q *Queue[T]) At(i int) *T {
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

func (q *Queue[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = *q.At(i)
	}
	q.buf, q.head = buf, 0
}
