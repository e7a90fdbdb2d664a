package exec

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Registers of the single-instruction cases: r1..r3 feed the sources,
// r8 holds the exit predicate, r9 is the destination when it aliases none.
const (
	eqRegs     = 10
	eqExitPred = 8
	eqFreshDst = 9
	eqShared   = 4096 // bytes
	eqGlobal   = 0x4000_0000
)

var eqValues = []uint64{
	0, 1, 2, 3, 31, 32, 63, 64, 1000, 0x7fffffff, 0x80000000, 0xffffffff,
	1 << 63, 1<<63 - 1, ^uint64(0), ^uint64(0) - 1, ^uint64(0) - 31,
	isa.F32Bits(1.5), isa.F32Bits(-3.25), isa.F32Bits(0.1), isa.F32Bits(1e30),
	isa.F32Bits(float32(math.Inf(1))), isa.F32Bits(float32(math.Inf(-1))),
	0x7fc00000, 0x80000000 | isa.F32Bits(2.5), 0x4f000000, 0xcf000001,
}

// eqCase is one single-instruction case of TestStepMatchesScalarReference.
type eqCase struct {
	in     isa.Instr
	wi     WarpInfo
	mask   uint32 // lanes the region warp starts with
	exited uint32 // lanes that exit before the instruction runs
	regs   [][isa.WarpSize]uint64
}

func (c *eqCase) val(o isa.Operand, lane int) uint64 {
	switch o.Kind {
	case isa.OpdReg:
		return c.regs[o.Reg][lane]
	case isa.OpdImm:
		return uint64(o.Imm)
	case isa.OpdSpecial:
		wi := c.wi
		tid := uint64(wi.WarpInCTA*isa.WarpSize + lane)
		switch o.Sp {
		case isa.SpLane:
			return uint64(lane)
		case isa.SpTid:
			return tid
		case isa.SpCtaid:
			return uint64(wi.CtaID)
		case isa.SpNtid:
			return uint64(wi.NTid)
		case isa.SpNctaid:
			return uint64(wi.NCtaid)
		case isa.SpGtid:
			return uint64(wi.CtaID*wi.NTid) + tid
		case isa.SpWarpid:
			return uint64(wi.WarpInCTA)
		}
	}
	return 0
}

func refCompare(op isa.Op, c isa.Cmp, a, b uint64) uint64 {
	var v [6]bool
	if op == isa.OpSetp {
		x, y := int64(a), int64(b)
		v = [...]bool{x == y, x != y, x < y, x <= y, x > y, x >= y}
	} else {
		x, y := math.Float32frombits(uint32(a)), math.Float32frombits(uint32(b))
		v = [...]bool{x == y, x != y, x < y, x <= y, x > y, x >= y}
	}
	if v[c] {
		return 1
	}
	return 0
}

// reference applies the instruction lane by lane, in lane order, to copies
// of the registers, shared memory and global memory (keyed by word: the
// memory ignores an address's low two bits).
func (c *eqCase) reference(shared []uint32, global map[uint64]uint32) ([][isa.WarpSize]uint64, []Access) {
	regs := append([][isa.WarpSize]uint64(nil), c.regs...)
	var acc []Access
	in := c.in
	for lane := 0; lane < isa.WarpSize; lane++ {
		if (c.mask&^c.exited)&(1<<lane) == 0 {
			continue
		}
		a, b, cv := c.val(in.A, lane), c.val(in.B, lane), c.val(in.C, lane)
		addr := a + uint64(in.Imm)
		switch in.Op {
		case isa.OpSetp, isa.OpFSetp:
			regs[in.Dst][lane] = refCompare(in.Op, in.Cmp, a, b)
		case isa.OpLdGlobal:
			regs[in.Dst][lane] = uint64(global[addr&^3])
			acc = append(acc, Access{Lane: lane, Addr: addr})
		case isa.OpStGlobal:
			global[addr&^3] = uint32(b)
			acc = append(acc, Access{Lane: lane, Addr: addr, Store: true})
		case isa.OpAtomAdd:
			regs[in.Dst][lane] = uint64(global[addr&^3])
			global[addr&^3] += uint32(b)
			acc = append(acc, Access{Lane: lane, Addr: addr, Store: true})
		case isa.OpLdShared:
			regs[in.Dst][lane] = uint64(shared[addr/isa.WordBytes])
		case isa.OpStShared:
			shared[addr/isa.WordBytes] = uint32(b)
		default:
			regs[in.Dst][lane] = ALUOp(in.Op, a, b, cv)
		}
	}
	return regs, acc
}

// run executes the case on a region warp: when lanes exit first, a
// divergent branch sends them to an exit ahead of the instruction.
func (c *eqCase) run(t *testing.T, m *mem.Flat, shared []uint32) (*Warp, StepResult) {
	t.Helper()
	k := &isa.Kernel{Name: "eq", NumRegs: eqRegs, SharedBytes: eqShared}
	at := 0
	if c.exited != 0 {
		k.Instrs = append(k.Instrs, isa.Instr{Op: isa.OpBra, A: isa.R(eqExitPred), Target: 3})
		at = 1
	}
	k.Instrs = append(k.Instrs, c.in, isa.Instr{Op: isa.OpExit}, isa.Instr{Op: isa.OpExit})
	p := decodeKernel(t, k)
	w := NewRegionWarp(p, c.wi, m, c.mask, 0, len(k.Instrs), ^uint64(0), c.regs)
	w.Shared = shared
	var got StepResult
	for steps := 0; !w.Done(); steps++ {
		if steps > 8 {
			t.Fatal("warp did not finish")
		}
		if res := w.Step(); res.PC == at {
			got = res
			got.Accesses = append([]Access(nil), res.Accesses...)
		}
	}
	return w, got
}

// TestStepMatchesScalarReference runs every opcode with every operand kind
// (register, immediate, special) in each source, under full, partial,
// single-lane and partly-exited masks, with Dst fresh or aliasing each
// source register, and compares registers, memory and reported accesses
// with a lane-by-lane scalar reference.
func TestStepMatchesScalarReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	type opCase struct {
		op  isa.Op
		cmp isa.Cmp
	}
	var ops []opCase
	for op := isa.OpMov; op <= isa.OpCvtFI; op++ {
		ops = append(ops, opCase{op: op})
	}
	ops = append(ops, opCase{op: isa.OpSelp})
	for c := isa.CmpEQ; c <= isa.CmpGE; c++ {
		ops = append(ops, opCase{isa.OpSetp, c}, opCase{isa.OpFSetp, c})
	}
	for _, op := range []isa.Op{isa.OpLdGlobal, isa.OpStGlobal, isa.OpAtomAdd, isa.OpLdShared, isa.OpStShared} {
		ops = append(ops, opCase{op: op})
	}
	kinds := []isa.OperandKind{isa.OpdReg, isa.OpdImm, isa.OpdSpecial}
	masks := []string{"full", "partial", "single", "exited"}
	cases := 0
	for _, oc := range ops {
		global := oc.op.IsMemory()
		memOp := global || oc.op.IsShared()
		hasDst := oc.op != isa.OpStGlobal && oc.op != isa.OpStShared
		// value draws a source value; address sources stay in range.
		value := func(addr bool) uint64 {
			switch {
			case !addr:
				if r.Intn(3) == 0 {
					return r.Uint64()
				}
				return eqValues[r.Intn(len(eqValues))]
			case global:
				return eqGlobal + 4*uint64(r.Intn(16))
			default:
				return 4 * uint64(r.Intn(512))
			}
		}
		operand := func(kind isa.OperandKind, addr bool) isa.Operand {
			switch kind {
			case isa.OpdReg:
				return isa.R(isa.Reg(1 + r.Intn(3)))
			case isa.OpdImm:
				return isa.Imm(int64(value(addr)))
			}
			return isa.Sp(isa.Special(1 + r.Intn(int(isa.SpWarpid))))
		}
		for _, ka := range kinds {
			for _, kb := range kinds {
				for _, kc := range kinds {
					for _, mk := range masks {
						for alias := -1; alias < 3; alias++ {
							c := &eqCase{
								wi: WarpInfo{CtaID: r.Intn(4), NTid: 32 * (1 + r.Intn(8)), NCtaid: 4},
							}
							c.wi.WarpInCTA = r.Intn(c.wi.NTid / isa.WarpSize)
							in := isa.Instr{Op: oc.op, Cmp: oc.cmp, HasDst: hasDst, Dst: eqFreshDst}
							in.A, in.B, in.C = operand(ka, memOp), operand(kb, false), operand(kc, false)
							if memOp {
								in.Imm = 4 * int64(r.Intn(16))
							}
							if alias >= 0 {
								src := [...]isa.Operand{in.A, in.B, in.C}[alias]
								if !hasDst || src.Kind != isa.OpdReg {
									continue
								}
								in.Dst = src.Reg
							}
							c.in = in
							c.regs = make([][isa.WarpSize]uint64, eqRegs)
							for reg := 1; reg <= 3; reg++ {
								for lane := range c.regs[reg] {
									c.regs[reg][lane] = value(memOp && isa.Reg(reg) == in.A.Reg)
								}
							}
							for lane := range c.regs[eqFreshDst] {
								c.regs[eqFreshDst][lane] = r.Uint64()
							}
							switch mk {
							case "full":
								c.mask = fullMask
							case "partial":
								c.mask = r.Uint32() | 1<<r.Intn(32)
							case "single":
								c.mask = 1 << r.Intn(32)
							case "exited":
								c.mask = fullMask
								c.exited = r.Uint32() &^ (1 << r.Intn(32))
								for lane := range c.regs[eqExitPred] {
									c.regs[eqExitPred][lane] = uint64(c.exited >> lane & 1)
								}
							}
							name := fmt.Sprintf("%s/%v%v%v/%s/alias%d", in, ka, kb, kc, mk, alias)
							checkCase(t, name, c)
							cases++
						}
					}
				}
			}
		}
	}
	if cases < 2000 {
		t.Fatalf("only %d cases ran", cases)
	}
}

func checkCase(t *testing.T, name string, c *eqCase) {
	t.Helper()
	// Seed every word the case can touch, the same on both sides.
	m := mem.NewFlat()
	global := map[uint64]uint32{}
	shared := make([]uint32, eqShared/isa.WordBytes)
	refShared := make([]uint32, len(shared))
	for i := range shared {
		shared[i] = uint32(i * 2654435761)
		refShared[i] = shared[i]
	}
	if c.in.Op.IsMemory() {
		for lane := 0; lane < isa.WarpSize; lane++ {
			word := (c.val(c.in.A, lane) + uint64(c.in.Imm)) &^ 3
			global[word] = uint32(word * 40503)
			m.Store4(word, global[word])
		}
	}
	wantRegs, wantAcc := c.reference(refShared, global)
	w, res := c.run(t, m, shared)

	active := c.mask &^ c.exited
	if res.ActiveLanes != bits.OnesCount32(active) {
		t.Fatalf("%s: ActiveLanes %d, want %d", name, res.ActiveLanes, bits.OnesCount32(active))
	}
	if len(res.Accesses) != len(wantAcc) {
		t.Fatalf("%s: %d accesses, want %d", name, len(res.Accesses), len(wantAcc))
	}
	for i := range wantAcc {
		if res.Accesses[i] != wantAcc[i] {
			t.Fatalf("%s: access %d = %+v, want %+v", name, i, res.Accesses[i], wantAcc[i])
		}
	}
	for i := range shared {
		if shared[i] != refShared[i] {
			t.Fatalf("%s: shared word %d = %#x, want %#x", name, i, shared[i], refShared[i])
		}
	}
	for addr, want := range global {
		if got := m.Load4(addr); got != want {
			t.Fatalf("%s: global %#x = %#x, want %#x", name, addr, got, want)
		}
	}
	for reg := range wantRegs {
		if w.Regs[reg] != wantRegs[reg] {
			t.Fatalf("%s: r%d = %#x,\nwant %#x", name, reg, w.Regs[reg], wantRegs[reg])
		}
	}
}

// TestBranchDivergenceMatchesReference runs a diamond under random masks,
// predicates, predicate operand kinds and negation, and checks the pc and
// active mask of every step and the final registers against the SIMT
// reference: taken lanes first, then the fall-through lanes, reconverging
// at the join.
func TestBranchDivergenceMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		b := isa.NewBuilder("diamond", 0)
		pred := [...]isa.Operand{isa.R(1), isa.Imm(int64(r.Intn(2))), isa.Sp(isa.SpLane)}[r.Intn(3)]
		neg := r.Intn(2) == 0
		if neg {
			b.BraIfNot(pred, "taken")
		} else {
			b.BraIf(pred, "taken")
		}
		b.Add(2, isa.R(2), isa.Imm(10)) // pc 1: fall-through path
		b.Bra("join")
		b.Label("taken")
		b.Add(2, isa.R(2), isa.Imm(100)) // pc 3: taken path
		b.Label("join")
		b.Add(2, isa.R(2), isa.Imm(1000)) // pc 4
		b.Exit()
		k := b.MustBuild()
		p := decodeKernel(t, k)

		mask := [...]uint32{fullMask, r.Uint32(), 1 << r.Intn(32)}[r.Intn(3)]
		if mask == 0 {
			mask = 1
		}
		regs := make([][isa.WarpSize]uint64, k.NumRegs)
		var taken uint32
		c := eqCase{wi: WarpInfo{NTid: 32, NCtaid: 1}, regs: regs}
		for lane := range regs[1] {
			regs[1][lane] = uint64(r.Intn(2)) * r.Uint64()
			regs[2][lane] = r.Uint64()
			if (c.val(pred, lane) != 0) != neg && mask&(1<<lane) != 0 {
				taken |= 1 << lane
			}
		}
		fall := mask &^ taken
		type step struct {
			pc   int
			mask uint32
		}
		want := []step{{0, mask}}
		if taken != 0 {
			want = append(want, step{3, taken})
		}
		if fall != 0 {
			want = append(want, step{1, fall}, step{2, fall})
		}
		want = append(want, step{4, mask}, step{5, mask})

		w := NewRegionWarp(p, c.wi, mem.NewFlat(), mask, 0, len(k.Instrs), ^uint64(0), regs)
		var got []step
		for !w.Done() && len(got) < 10 {
			m := w.ActiveMask()
			res := w.Step()
			got = append(got, step{res.PC, m})
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d (%s, mask %#x, taken %#x): steps %v, want %v",
				trial, k.Instrs[0], mask, taken, got, want)
		}
		for lane := range regs[2] {
			v := regs[2][lane]
			switch {
			case taken&(1<<lane) != 0:
				v += 1100
			case fall&(1<<lane) != 0:
				v += 1010
			}
			if w.Regs[2][lane] != v {
				t.Fatalf("trial %d lane %d: r2 = %d, want %d", trial, lane, w.Regs[2][lane], v)
			}
		}
	}
}

// TestRegionWarpClampsReconvergence: a branch inside an offloaded region
// whose reconvergence point lies past the region end must reconverge at
// the end instead, so neither path runs code outside the region.
func TestRegionWarpClampsReconvergence(t *testing.T) {
	b := isa.NewBuilder("clamp", 0)
	b.BraIf(isa.R(1), "body") // pc 0: the fall-through lanes exit
	b.Exit()
	b.Label("body")
	b.Add(2, isa.R(2), isa.Imm(100))  // pc 2: last pc of the region [0, 3)
	b.Add(2, isa.R(2), isa.Imm(1000)) // pc 3: outside the region
	b.Exit()
	k := b.MustBuild()
	p := decodeKernel(t, k)
	const end = 3
	if p.Info.Reconv[0] <= end {
		t.Fatalf("branch reconverges at %d; the case needs it past the region end %d", p.Info.Reconv[0], end)
	}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		regs := make([][isa.WarpSize]uint64, k.NumRegs)
		mask := r.Uint32() | 3
		for lane := range regs[1] {
			regs[1][lane] = uint64(lane & 1) // lane 0 falls through, lane 1 is taken
			regs[2][lane] = uint64(lane)
		}
		w := NewRegionWarp(p, WarpInfo{NTid: 32, NCtaid: 1}, mem.NewFlat(), mask, 0, end, ^uint64(0), regs)
		for steps := 0; !w.Done(); steps++ {
			if res := w.Step(); res.PC >= end || steps > 8 {
				t.Fatalf("trial %d: region warp ran pc %d (step %d), outside [0, %d)", trial, res.PC, steps, end)
			}
		}
		for lane := range regs[2] {
			want := uint64(lane)
			if mask&(1<<lane) != 0 && lane&1 == 1 {
				want += 100
			}
			if w.Regs[2][lane] != want {
				t.Fatalf("trial %d lane %d: r2 = %d, want %d", trial, lane, w.Regs[2][lane], want)
			}
		}
	}
}
