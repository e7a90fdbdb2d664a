package fifo

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSlice drives a Queue and a plain slice FIFO with the same
// random push/pop sequence, across wrap-arounds and growth, and checks that
// they agree element for element.
func TestQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var ref []int
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || rng.Intn(3) != 0 {
			q.Push(step)
			ref = append(ref, step)
		} else {
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, ref[0])
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
		}
		if len(ref) > 0 {
			i := rng.Intn(len(ref))
			if got := *q.At(i); got != ref[i] {
				t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, ref[i])
			}
		}
	}
}

// TestQueuePopClearsSlot: a popped slot must not keep its value reachable.
func TestQueuePopClearsSlot(t *testing.T) {
	var q Queue[*int]
	x := 1
	q.Push(&x)
	q.Pop()
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a popped pointer", i)
		}
	}
}

// TestQueueSteadyStateAllocatesNothing: at a standing depth, push/pop reuse
// the ring's storage.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if a := testing.AllocsPerRun(10, func() {
		for k := 0; k < 1000; k++ {
			q.Push(q.Pop())
		}
	}); a != 0 {
		t.Errorf("1000 steady-state Push+Pop ops allocate %.0f times, want 0", a)
	}
}
