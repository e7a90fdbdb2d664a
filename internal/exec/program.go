package exec

import (
	"fmt"

	"repro/internal/cfgx"
	"repro/internal/isa"
)

// row is one register's value in every lane of a warp.
type row = [isa.WarpSize]uint64

// fullMask has every lane of a warp active.
const fullMask = ^uint32(0)

// slot names an operand's row. A slot s >= 0 is row s of the warp's row
// file (the registers, then the special values the kernel reads); s < 0 is
// the Program's immediate row ^s.
type slot int32

// decoded is one instruction with its operands resolved to slots and its
// elementwise kernel chosen.
type decoded struct {
	k       *kernel // ALU, Setp and FSetp only
	a, b, c slot
	dst     slot
	off     uint64 // memory ops: address offset
	target  int    // Bra: taken pc
	reconv  int    // Bra: reconvergence pc
	cond    bool   // Bra: predicated on A
	neg     uint32 // Bra: all lanes set when the predicate is negated
}

// Program is a kernel decoded once for the interpreter. Every source
// operand resolves to a row: a register row, an immediate broadcast into a
// row at decode time, or a special-value row each warp fills when it is
// created. A Program is read-only once built, so every warp of every CTA
// of a launch shares one.
type Program struct {
	Kernel *isa.Kernel
	Info   *cfgx.Info

	code     []decoded
	imms     []row         // broadcast immediates, absent operands included as 0
	specials []isa.Special // special values read, in row-file order after the registers
}

// Decode builds the Program for a kernel and its control-flow analysis.
func Decode(k *isa.Kernel, info *cfgx.Info) (*Program, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if info == nil || len(info.Reconv) != len(k.Instrs) {
		return nil, fmt.Errorf("exec: kernel %q: analysis does not match its %d instructions", k.Name, len(k.Instrs))
	}
	p := &Program{Kernel: k, Info: info, code: make([]decoded, len(k.Instrs))}
	immSlot := map[uint64]slot{}
	spSlot := map[isa.Special]slot{}
	src := func(o isa.Operand) slot {
		switch o.Kind {
		case isa.OpdReg:
			return slot(o.Reg)
		case isa.OpdSpecial:
			s, ok := spSlot[o.Sp]
			if !ok {
				s = slot(k.NumRegs + len(p.specials))
				spSlot[o.Sp] = s
				p.specials = append(p.specials, o.Sp)
			}
			return s
		}
		// Immediates; absent operands read as 0.
		var v uint64
		if o.Kind == isa.OpdImm {
			v = uint64(o.Imm)
		}
		s, ok := immSlot[v]
		if !ok {
			s = ^slot(len(p.imms))
			immSlot[v] = s
			var r row
			for lane := range r {
				r[lane] = v
			}
			p.imms = append(p.imms, r)
		}
		return s
	}
	for pc := range k.Instrs {
		in := &k.Instrs[pc]
		d := &p.code[pc]
		d.a, d.b, d.c = src(in.A), src(in.B), src(in.C)
		d.dst = slot(in.Dst)
		d.off = uint64(in.Imm)
		switch in.Op {
		case isa.OpBra:
			d.target = in.Target
			d.reconv = info.Reconv[pc]
			d.cond = in.A.Kind != isa.OpdNone
			if in.PredNeg {
				d.neg = fullMask
			}
		case isa.OpSetp:
			d.k = compareKernel(&intCompares, in.Cmp)
		case isa.OpFSetp:
			d.k = compareKernel(&floatCompares, in.Cmp)
		default:
			if int(in.Op) < len(aluKernels) && aluKernels[in.Op].all != nil {
				d.k = &aluKernels[in.Op]
			}
		}
	}
	return p, nil
}

// compareKernel returns the kernel for a comparison; an unknown operator
// is never true, as a scalar switch without a matching case would give.
func compareKernel(ks *[6]kernel, c isa.Cmp) *kernel {
	if int(c) < len(ks) {
		return &ks[c]
	}
	return &never
}
