package sim

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/link"
)

// memReq is one cache-line request on its way between a requester (the
// GPU's L2, or a logic-layer SM's port) and memory. The whole route — link
// hops, crossbar, vault, response — is carried by this one pooled object:
// its continuation next is bound once, when the pool first makes the
// request, and is handed to every hop as link.Packet.Deliver,
// dram.Request.Done and the wheel's wevMemReq event. phase says which hop
// it is on. A steady-state line trip therefore allocates nothing.
type memReq struct {
	sys   *System
	kind  reqKind
	phase reqPhase
	// from is the requesting stack (reqRemote only); to is the stack that
	// serves the line — and, for reqGPU, the index of the TX/RX link pair.
	from, to int
	line     uint64
	resp     int  // response packet bytes
	t        *txn // completed on arrival; nil for an L2 miss, which fills the L2
	vault    *dram.Vault
	req      dram.Request
	next     func(now int64) // r.step, bound once
}

// reqKind is a request's route.
type reqKind uint8

const (
	reqGPU    reqKind = iota // L2 miss or store: TX link → crossbar/vault → RX link
	reqPCIe                  // learning phase: PCI-E to CPU memory and back
	reqLocal                 // stack SM, local line: crossbar/vault, 2-cycle return
	reqRemote                // stack SM, remote line: cross-stack link both ways
)

// reqPhase is the hop a request takes when its continuation next runs.
type reqPhase uint8

const (
	phServe   reqPhase = iota // arrived at the serving stack: cross the crossbar
	phVault                   // crossbar delivery: enqueue into the vault, retry while full
	phRespond                 // data ready (DRAM burst done, or PCI-E request arrived): respond
	phDone                    // response reached the requester
)

// newReq takes a request off the free list and starts it on its route to
// stack `to`; resp is the size of the response packet, if the route has one.
func (sys *System) newReq(kind reqKind, line uint64, t *txn, to, resp int) *memReq {
	r := sys.reqs.get()
	if r.next == nil {
		r.sys = sys
		r.next = r.step
	}
	r.kind, r.line, r.t, r.to, r.resp = kind, line, t, to, resp
	r.phase = phServe
	if kind == reqPCIe {
		r.phase = phRespond
	}
	return r
}

// send puts the request on link l as a packet of the given size; its
// continuation runs on delivery.
func (r *memReq) send(l *link.Link, bytes int, now int64) {
	l.Send(link.Packet{Bytes: bytes, Deliver: r.next}, now)
}

// step advances the request by one hop.
func (r *memReq) step(now int64) {
	sys := r.sys
	switch r.phase {
	case phServe:
		sys.stacks[r.to].serveLine(r)

	case phVault:
		if !r.vault.Enqueue(&r.req) {
			sys.wheel.afterEvent(4, wheelEvent{kind: wevMemReq, r: r})
			return
		}
		r.phase = phRespond

	case phRespond:
		r.phase = phDone
		switch r.kind {
		case reqGPU:
			r.send(sys.rxLinks[r.to], r.resp, now)
		case reqPCIe:
			r.send(sys.pcieRX, r.resp, now)
		case reqLocal:
			sys.wheel.afterEvent(2, wheelEvent{kind: wevMemReq, r: r})
		case reqRemote:
			r.send(sys.crossLinks[r.to][r.from], r.resp, now)
		}

	case phDone:
		line, t := r.line, r.t
		r.t, r.vault = nil, nil
		sys.reqs.put(r)
		if t == nil {
			sys.l2fill(line, now)
		} else {
			t.complete(now)
		}
	}
}

// freeList recycles objects of one type. made counts every object it ever
// created, so at quiescence made == len(free) proves none leaked.
type freeList[T any] struct {
	free []*T
	made int
}

func (f *freeList[T]) get() *T {
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		return x
	}
	f.made++
	return new(T)
}

func (f *freeList[T]) put(x *T) { f.free = append(f.free, x) }

// outstanding reports objects handed out and not yet returned.
func (f *freeList[T]) outstanding() int { return f.made - len(f.free) }

// poolLeak checks, at quiescence, that every pooled line request,
// transaction and L2 MSHR entry went back to its free list. An object still
// out means some route dropped it without finishing: a simulator bug.
func (sys *System) poolLeak() error {
	r, t, e := sys.reqs.outstanding(), sys.txns.outstanding(), sys.l2.entries.outstanding()
	if r != 0 || t != 0 || e != 0 {
		return fmt.Errorf("quiescent with %d line requests, %d transactions and %d L2 MSHR entries not returned to their pools", r, t, e)
	}
	return nil
}
