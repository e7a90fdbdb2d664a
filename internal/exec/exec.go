// Package exec implements the functional execution model for isa kernels:
// a 32-lane SIMT warp interpreter with a post-dominator reconvergence
// stack, plus a whole-grid functional runner used both as the reference
// model (the timing simulator must produce the identical final memory
// image) and as the execution engine inside the timing simulator itself.
//
// The interpreter is "functional-first": every Step applies the
// instruction's architectural effects immediately (register writes, memory
// stores, loads), and returns a descriptor of what happened so a timing
// layer can charge latency and bandwidth afterwards. Values are therefore
// always exact, and timing policies can never corrupt program results.
//
// Kernels are decoded once per launch into a Program (see Decode), so a
// Step makes one opcode dispatch per warp-instruction and runs an
// elementwise kernel over whole register rows.
package exec

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/mem"
)

// WarpInfo locates a warp within its grid.
type WarpInfo struct {
	CtaID     int // CTA index within the grid
	WarpInCTA int // warp index within the CTA
	NTid      int // threads per CTA
	NCtaid    int // CTAs in the grid
}

// Access describes one lane's global-memory access within a step.
type Access struct {
	Lane  int
	Addr  uint64
	Store bool
}

// StepKind classifies what a Step did, for the timing layer.
type StepKind uint8

// Step kinds.
const (
	StepALU StepKind = iota
	StepMem          // global load/store/atomic: see Accesses
	StepShared
	StepBarrier
	StepBranch
	StepExit
	StepNone // warp already finished
)

// StepResult reports the architectural events of one warp-instruction.
type StepResult struct {
	Kind        StepKind
	PC          int // pc of the executed instruction
	Op          isa.Op
	Dst         isa.Reg
	HasDst      bool
	ActiveLanes int
	// Accesses holds per-active-lane global accesses for StepMem. The
	// slice is reused across steps; callers must not retain it.
	Accesses []Access
	// Done reports that the warp (or region) has fully completed.
	Done bool
}

type simtEntry struct {
	pc   int
	rpc  int // reconvergence pc; -1 = never (base entry)
	mask uint32
}

// Warp is a 32-lane SIMT execution context.
type Warp struct {
	Prog   *Program
	WInfo  WarpInfo
	Mem    *mem.Flat
	Shared []uint32 // CTA shared memory, shared across the CTA's warps

	// Regs[r][lane] is the architectural register file. It is the front
	// of rows, whose tail holds the warp's special-value rows.
	Regs [][isa.WarpSize]uint64

	rows     []row
	alive    uint32 // lanes that have not exited
	stack    []simtEntry
	accesses []Access
}

// newWarp allocates the row file and fills the special-value rows.
func newWarp(p *Program, wi WarpInfo, m *mem.Flat) *Warp {
	n := p.Kernel.NumRegs
	w := &Warp{Prog: p, WInfo: wi, Mem: m, rows: make([]row, n+len(p.specials))}
	w.Regs = w.rows[:n:n]
	for i, s := range p.specials {
		r := &w.rows[n+i]
		for lane := range r {
			r[lane] = w.special(s, lane)
		}
	}
	return w
}

// NewWarp creates a warp ready to execute from pc 0 with all lanes whose
// global thread index is inside the CTA's thread count active.
func NewWarp(p *Program, wi WarpInfo, m *mem.Flat, shared []uint32, params []uint64) *Warp {
	w := newWarp(p, wi, m)
	w.Shared = shared
	var mask uint32
	base := wi.WarpInCTA * isa.WarpSize
	for lane := 0; lane < isa.WarpSize; lane++ {
		if base+lane < wi.NTid {
			mask |= 1 << lane
		}
	}
	for i, v := range params {
		if i >= len(w.Regs) {
			break
		}
		for lane := range w.Regs[i] {
			w.Regs[i][lane] = v
		}
	}
	w.alive = mask
	w.stack = []simtEntry{{pc: 0, rpc: -1, mask: mask}}
	return w
}

// NewRegionWarp creates a warp positioned to execute the region
// [startPC, endPC) with the given active mask and (partial) register
// contents — the memory-stack SM side of an offload. regs supplies values
// for the registers named in liveIn; everything else starts zero, which
// exercises the liveness analysis for real.
func NewRegionWarp(p *Program, wi WarpInfo, m *mem.Flat, mask uint32,
	startPC, endPC int, liveIn uint64, regs [][isa.WarpSize]uint64) *Warp {
	w := newWarp(p, wi, m)
	for r := range w.Regs {
		if liveIn&(1<<r) != 0 {
			w.Regs[r] = regs[r]
		}
	}
	w.alive = mask
	w.stack = []simtEntry{{pc: startPC, rpc: endPC, mask: mask}}
	return w
}

// Done reports whether the warp has finished (all lanes exited or the
// region completed).
func (w *Warp) Done() bool {
	w.popConverged()
	return len(w.stack) == 0
}

// PC returns the current pc, or -1 if done.
func (w *Warp) PC() int {
	if len(w.stack) == 0 {
		return -1
	}
	return w.stack[len(w.stack)-1].pc
}

// ActiveMask returns the current active lane mask (0 if done).
func (w *Warp) ActiveMask() uint32 {
	if len(w.stack) == 0 {
		return 0
	}
	return w.stack[len(w.stack)-1].mask & w.alive
}

// popConverged pops stack entries that have reached their reconvergence
// point or lost all live lanes.
func (w *Warp) popConverged() {
	for len(w.stack) > 0 {
		top := &w.stack[len(w.stack)-1]
		if top.mask&w.alive == 0 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if top.rpc >= 0 && top.pc == top.rpc {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return
	}
}

// PeekOp returns the opcode about to execute (OpNop if done).
func (w *Warp) PeekOp() isa.Op {
	w.popConverged()
	if len(w.stack) == 0 {
		return isa.OpNop
	}
	return w.Prog.Kernel.Instrs[w.stack[len(w.stack)-1].pc].Op
}

// NextInstr returns the instruction about to execute. Valid only if !Done.
// It returns a pointer into the kernel's instruction slice (callers must
// not mutate it) so the per-issue hot path copies nothing.
func (w *Warp) NextInstr() *isa.Instr {
	return &w.Prog.Kernel.Instrs[w.PC()]
}

// SkipTo repositions the current execution point — used by the main GPU SM
// to jump past an offloaded region once the offload acknowledgment (with
// live-out registers) arrives.
func (w *Warp) SkipTo(pc int) {
	if len(w.stack) == 0 {
		panic("exec: SkipTo on finished warp")
	}
	w.stack[len(w.stack)-1].pc = pc
}

// LeaderLane returns the lowest active lane index, or -1 if none.
func (w *Warp) LeaderLane() int {
	m := w.ActiveMask()
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros32(m)
}

// SpecialValue returns the value of a special register for a lane of this
// warp (exported for the offload controller's scalar dry-run that finds the
// destination stack of a candidate's first memory access, §4.2 footnote 4).
func (w *Warp) SpecialValue(s isa.Special, lane int) uint64 { return w.special(s, lane) }

func (w *Warp) special(s isa.Special, lane int) uint64 {
	wi := w.WInfo
	tid := wi.WarpInCTA*isa.WarpSize + lane
	switch s {
	case isa.SpLane:
		return uint64(lane)
	case isa.SpTid:
		return uint64(tid)
	case isa.SpCtaid:
		return uint64(wi.CtaID)
	case isa.SpNtid:
		return uint64(wi.NTid)
	case isa.SpNctaid:
		return uint64(wi.NCtaid)
	case isa.SpGtid:
		return uint64(wi.CtaID*wi.NTid + tid)
	case isa.SpWarpid:
		return uint64(wi.WarpInCTA)
	}
	return 0
}

// row returns the row an operand slot names.
func (w *Warp) row(s slot) *row {
	if s < 0 {
		return &w.Prog.imms[^s]
	}
	return &w.rows[s]
}

// Step executes one warp-instruction and returns what happened.
func (w *Warp) Step() StepResult {
	w.popConverged()
	if len(w.stack) == 0 {
		return StepResult{Kind: StepNone, Done: true}
	}
	top := &w.stack[len(w.stack)-1]
	pc := top.pc
	p := w.Prog
	if pc >= len(p.code) {
		panic(fmt.Sprintf("exec: kernel %q: pc %d fell off the end", p.Kernel.Name, pc))
	}
	in := &p.Kernel.Instrs[pc]
	d := &p.code[pc]
	mask := top.mask & w.alive
	res := StepResult{PC: pc, Op: in.Op, Dst: in.Dst, HasDst: in.HasDst, ActiveLanes: bits.OnesCount32(mask)}

	switch in.Op {
	case isa.OpNop:
		res.Kind = StepALU
		top.pc++

	case isa.OpBar:
		res.Kind = StepBarrier
		top.pc++

	case isa.OpExit:
		res.Kind = StepExit
		w.alive &^= mask
		top.pc++
		w.popConverged()
		res.Done = len(w.stack) == 0

	case isa.OpBra:
		res.Kind = StepBranch
		taken := mask
		if d.cond {
			taken &= nonzero(w.row(d.a)) ^ d.neg
		}
		fall := mask &^ taken
		switch {
		case fall == 0:
			top.pc = d.target
		case taken == 0:
			top.pc++
		default:
			// Divergence: the current entry becomes the continuation at
			// the reconvergence point; the two paths are pushed and run
			// (taken first) until each reaches the reconvergence pc.
			rpc := d.reconv
			// Clamp reconvergence to this entry's own region end so
			// region execution (offload) cannot escape its bounds.
			if top.rpc >= 0 && rpc > top.rpc {
				rpc = top.rpc
			}
			top.pc = rpc
			w.stack = append(w.stack,
				simtEntry{pc: pc + 1, rpc: rpc, mask: fall},
				simtEntry{pc: d.target, rpc: rpc, mask: taken})
		}

	case isa.OpLdGlobal:
		res.Kind = StepMem
		acc := w.accessBuf()
		a, dst := w.row(d.a), &w.rows[d.dst]
		for m := mask; m != 0; m &= m - 1 {
			lane := laneOf(m)
			addr := a[lane] + d.off
			dst[lane] = uint64(w.Mem.Load4(addr))
			acc = append(acc, Access{Lane: lane, Addr: addr})
		}
		w.accesses, res.Accesses = acc, acc
		top.pc++

	case isa.OpStGlobal:
		res.Kind = StepMem
		acc := w.accessBuf()
		a, b := w.row(d.a), w.row(d.b)
		for m := mask; m != 0; m &= m - 1 {
			lane := laneOf(m)
			addr := a[lane] + d.off
			w.Mem.Store4(addr, uint32(b[lane]))
			acc = append(acc, Access{Lane: lane, Addr: addr, Store: true})
		}
		w.accesses, res.Accesses = acc, acc
		top.pc++

	case isa.OpAtomAdd:
		res.Kind = StepMem
		acc := w.accessBuf()
		a, b, dst := w.row(d.a), w.row(d.b), &w.rows[d.dst]
		for m := mask; m != 0; m &= m - 1 {
			lane := laneOf(m)
			addr := a[lane] + d.off
			dst[lane] = uint64(w.Mem.AtomicAdd4(addr, uint32(b[lane])))
			acc = append(acc, Access{Lane: lane, Addr: addr, Store: true})
		}
		w.accesses, res.Accesses = acc, acc
		top.pc++

	case isa.OpLdShared:
		res.Kind = StepShared
		a, dst := w.row(d.a), &w.rows[d.dst]
		for m := mask; m != 0; m &= m - 1 {
			lane := laneOf(m)
			dst[lane] = uint64(w.Shared[w.sharedWord(pc, a[lane]+d.off)])
		}
		top.pc++

	case isa.OpStShared:
		res.Kind = StepShared
		a, b := w.row(d.a), w.row(d.b)
		for m := mask; m != 0; m &= m - 1 {
			lane := laneOf(m)
			w.Shared[w.sharedWord(pc, a[lane]+d.off)] = uint32(b[lane])
		}
		top.pc++

	default: // ALU, Setp, FSetp
		res.Kind = StepALU
		dst, a, b, c := &w.rows[d.dst], w.row(d.a), w.row(d.b), w.row(d.c)
		if mask == fullMask {
			d.k.all(dst, a, b, c)
		} else {
			d.k.some(dst, a, b, c, mask)
		}
		top.pc++
	}

	w.popConverged()
	if len(w.stack) == 0 {
		res.Done = true
	}
	return res
}

// laneOf returns the lowest set lane of a nonzero mask.
func laneOf(m uint32) int { return bits.TrailingZeros32(m) & (isa.WarpSize - 1) }

// nonzero returns the mask of lanes whose value is nonzero.
func nonzero(r *row) uint32 {
	var m uint32
	for lane, v := range r {
		if v != 0 {
			m |= 1 << lane
		}
	}
	return m
}

// accessBuf returns the emptied access buffer, sized for a whole warp so
// later steps append without allocating.
func (w *Warp) accessBuf() []Access {
	if w.accesses == nil {
		w.accesses = make([]Access, 0, isa.WarpSize)
	}
	return w.accesses[:0]
}

// sharedWord converts a shared-memory byte address to a word index,
// panicking on an access outside the CTA's allocation.
func (w *Warp) sharedWord(pc int, addr uint64) uint64 {
	i := addr / isa.WordBytes
	if i >= uint64(len(w.Shared)) {
		panic(fmt.Sprintf("exec: kernel %q pc %d: shared access %d out of %d words",
			w.Prog.Kernel.Name, pc, i, len(w.Shared)))
	}
	return i
}
