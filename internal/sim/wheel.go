package sim

// The wheel is the simulator's global timer: a fixed-horizon timer wheel
// whose slots hold typed events. The hot schedulers (offload pipeline,
// L2 routing, line-request hops, warp wakeups) file small value structs
// instead of closures; cold paths can still pass an arbitrary callback
// (wevFunc). Every slot is a FIFO list of nodes in one shared event arena
// with a free list, so the wheel's storage is sized by the events pending
// at once, not by the 8192 slots, and steady-state scheduling allocates
// nothing. Delays at or beyond the horizon land in an overflow bucket and
// are re-filed into the wheel once they come within range — a long
// modeled latency (scaled PCIe, future LLM-workload delays) is an input
// condition, not a model bug.
type wheel struct {
	sys *System
	// head/tail index each slot's first and last node in nodes; 0 means
	// an empty slot (nodes[0] is never used). free heads the list of
	// recycled nodes, chained through next.
	head, tail [wheelHorizon]int32
	nodes      []wheelNode
	free       int32
	now        int64
	count      int
	overflow   []farEvent // due >= now+wheelHorizon; re-filed once in range
}

const wheelHorizon = 1 << 13 // 8192 cycles covers every fixed delay used

// Event kinds. wevFunc runs an arbitrary callback; the others are the
// allocation-free encodings of the hot schedule sites.
const (
	wevFunc          uint8 = iota // fn(now)
	wevReconsider                 // sm.reconsider(sw, now): far-future warp wakeup
	wevLSURetry                   // MSHR-full retry: re-ready sw if still stalled
	wevSendOffload                // offload pipeline done: send job's request packet
	wevFinishOffload              // ideal-mode ack: resume job's requesting warp
	wevRouteLoad                  // L2 miss of `line` leaves the L2 toward memory
	wevRouteStore                 // write-through store txn leaves the L2
	wevMemReq                     // r.step(now): a line request's next hop
	wevTxnDone                    // t.complete(now): L2-hit load data reaches the SM
)

// wheelEvent is one scheduled occurrence. Exactly the fields its kind
// needs are set; the struct is stored by value in the event arena.
type wheelEvent struct {
	kind uint8
	fn   func(now int64)
	sm   *SM
	sw   *smWarp
	job  *offloadJob
	t    *txn
	r    *memReq
	line uint64
}

// wheelNode is an arena entry: an event and the next node in its slot's
// list (or in the free list).
type wheelNode struct {
	ev   wheelEvent
	next int32
}

type farEvent struct {
	at int64
	ev wheelEvent
}

func newWheel(sys *System) *wheel {
	return &wheel{sys: sys, nodes: make([]wheelNode, 1, 256)}
}

// after schedules fn to run at now+delay (delay >= 1).
func (w *wheel) after(delay int64, fn func(now int64)) {
	w.afterEvent(delay, wheelEvent{kind: wevFunc, fn: fn})
}

// afterEvent schedules ev to run at now+delay (delay >= 1). Delays at or
// beyond the wheel horizon go to the overflow bucket.
func (w *wheel) afterEvent(delay int64, ev wheelEvent) {
	if delay < 1 {
		delay = 1
	}
	w.count++
	if delay >= wheelHorizon {
		w.overflow = append(w.overflow, farEvent{at: w.now + delay, ev: ev})
		return
	}
	w.push((w.now+delay)%wheelHorizon, ev)
}

// push appends ev to slot i's list, reusing a free arena node if any.
func (w *wheel) push(i int64, ev wheelEvent) {
	n := w.free
	if n != 0 {
		w.free = w.nodes[n].next
		w.nodes[n] = wheelNode{ev: ev}
	} else {
		n = int32(len(w.nodes))
		w.nodes = append(w.nodes, wheelNode{ev: ev})
	}
	if t := w.tail[i]; t != 0 {
		w.nodes[t].next = n
	} else {
		w.head[i] = n
	}
	w.tail[i] = n
}

// tick runs events due at cycle `now`, in the order they were scheduled.
// Must be called with monotonically increasing now; cycles with no due
// events may be skipped entirely (the event-driven loop jumps them), which
// is safe because a slot's due cycle is unique within the horizon.
func (w *wheel) tick(now int64) {
	w.now = now
	if len(w.overflow) > 0 {
		w.refileOverflow(now)
	}
	i := now % wheelHorizon
	n := w.head[i]
	if n == 0 {
		return
	}
	// Detach the slot first: events scheduled while it runs land in other
	// slots (1 <= delay < horizon), so the detached list is stable.
	w.head[i], w.tail[i] = 0, 0
	for n != 0 {
		// Copy the event out and free its node before running it: the
		// event may schedule more, which can reuse the node or grow (and
		// move) the arena.
		node := &w.nodes[n]
		ev, next := node.ev, node.next
		*node = wheelNode{next: w.free}
		w.free = n
		w.count--
		w.sys.runEvent(&ev, now)
		n = next
	}
}

// refileOverflow moves far-future events that came within the horizon into
// their wheel slots, preserving insertion order (determinism).
func (w *wheel) refileOverflow(now int64) {
	kept := w.overflow[:0]
	for _, fe := range w.overflow {
		if fe.at-now < wheelHorizon {
			w.push(fe.at%wheelHorizon, fe.ev)
		} else {
			kept = append(kept, fe)
		}
	}
	w.overflow = kept
}

// pending reports scheduled-but-unfired events (overflow included).
func (w *wheel) pending() int { return w.count }

// nextDue returns the earliest cycle > w.now with a pending event, or -1.
// The scan walks forward from w.now, so its cost is proportional to the
// distance to the next event — the same distance the event-driven loop is
// about to skip.
func (w *wheel) nextDue() int64 {
	if w.count == 0 {
		return -1
	}
	for d := int64(1); d <= wheelHorizon; d++ {
		if w.head[(w.now+d)%wheelHorizon] != 0 {
			return w.now + d
		}
	}
	// Only far-future (overflow) events remain.
	best := int64(-1)
	for _, fe := range w.overflow {
		if best < 0 || fe.at < best {
			best = fe.at
		}
	}
	return best
}
