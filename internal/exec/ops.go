package exec

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// kernel is one opcode's semantics: the scalar form, and the elementwise
// forms Step applies to a full mask and to a partial one. The vector forms
// call the scalar form lane by lane, so the two cannot drift apart.
// Elementwise forms are safe when dst aliases a source: lane i reads its
// operands before it writes.
type kernel struct {
	scalar func(a, b, c uint64) uint64
	all    func(dst, a, b, c *row)
	some   func(dst, a, b, c *row, mask uint32)
}

// allLanes applies f to every lane.
func allLanes(dst, a, b, c *row, f func(a, b, c uint64) uint64) {
	for i := range dst {
		dst[i] = f(a[i], b[i], c[i])
	}
}

// maskLanes applies f to the lanes set in mask, leaving the others alone.
func maskLanes(dst, a, b, c *row, mask uint32, f func(a, b, c uint64) uint64) {
	for m := mask; m != 0; m &= m - 1 {
		i := laneOf(m)
		dst[i] = f(a[i], b[i], c[i])
	}
}

// ALUOp computes the pure-ALU result for op given operand values — the
// same semantics Step applies, exported for scalar dry-run evaluation.
func ALUOp(op isa.Op, a, b, c uint64) uint64 {
	if int(op) < len(aluKernels) && aluKernels[op].scalar != nil {
		return aluKernels[op].scalar(a, b, c)
	}
	panic(fmt.Sprintf("exec: unhandled ALU op %v", op))
}

func f32(v uint64) float32   { return math.Float32frombits(uint32(v)) }
func fbits(f float32) uint64 { return uint64(math.Float32bits(f)) }

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// Scalar semantics, one function per opcode. The float32 expressions are
// written exactly as the model has always evaluated them.

func mov(a, _, _ uint64) uint64 { return a }
func add(a, b, _ uint64) uint64 { return a + b }
func sub(a, b, _ uint64) uint64 { return a - b }
func mul(a, b, _ uint64) uint64 { return a * b }
func div(a, b, _ uint64) uint64 {
	if int64(b) == 0 {
		return 0
	}
	return uint64(int64(a) / int64(b))
}
func rem(a, b, _ uint64) uint64 {
	if int64(b) == 0 {
		return 0
	}
	return uint64(int64(a) % int64(b))
}
func smin(a, b, _ uint64) uint64 {
	if int64(a) < int64(b) {
		return a
	}
	return b
}
func smax(a, b, _ uint64) uint64 {
	if int64(a) > int64(b) {
		return a
	}
	return b
}
func and(a, b, _ uint64) uint64  { return a & b }
func or(a, b, _ uint64) uint64   { return a | b }
func xor(a, b, _ uint64) uint64  { return a ^ b }
func shl(a, b, _ uint64) uint64  { return a << (b & 63) }
func shr(a, b, _ uint64) uint64  { return a >> (b & 63) }
func fadd(a, b, _ uint64) uint64 { return fbits(f32(a) + f32(b)) }
func fsub(a, b, _ uint64) uint64 { return fbits(f32(a) - f32(b)) }
func fmul(a, b, _ uint64) uint64 { return fbits(f32(a) * f32(b)) }
func fdiv(a, b, _ uint64) uint64 { return fbits(f32(a) / f32(b)) }
func fma(a, b, c uint64) uint64  { return fbits(f32(a)*f32(b) + f32(c)) }
func fneg(a, _, _ uint64) uint64 { return fbits(-f32(a)) }
func cvtif(a, _, _ uint64) uint64 {
	return fbits(float32(int32(a)))
}
func cvtfi(a, _, _ uint64) uint64 {
	return uint64(uint32(int32(f32(a))))
}
func selp(a, b, c uint64) uint64 {
	if c != 0 {
		return a
	}
	return b
}

func eqI(a, b, _ uint64) uint64  { return b2u(int64(a) == int64(b)) }
func neI(a, b, _ uint64) uint64  { return b2u(int64(a) != int64(b)) }
func ltI(a, b, _ uint64) uint64  { return b2u(int64(a) < int64(b)) }
func leI(a, b, _ uint64) uint64  { return b2u(int64(a) <= int64(b)) }
func gtI(a, b, _ uint64) uint64  { return b2u(int64(a) > int64(b)) }
func geI(a, b, _ uint64) uint64  { return b2u(int64(a) >= int64(b)) }
func eqF(a, b, _ uint64) uint64  { return b2u(f32(a) == f32(b)) }
func neF(a, b, _ uint64) uint64  { return b2u(f32(a) != f32(b)) }
func ltF(a, b, _ uint64) uint64  { return b2u(f32(a) < f32(b)) }
func leF(a, b, _ uint64) uint64  { return b2u(f32(a) <= f32(b)) }
func gtF(a, b, _ uint64) uint64  { return b2u(f32(a) > f32(b)) }
func geF(a, b, _ uint64) uint64  { return b2u(f32(a) >= f32(b)) }
func zero(_, _, _ uint64) uint64 { return 0 }

// Vector forms. Each passes its scalar function by name so the compiler
// inlines it into the lane loop: one call per warp-instruction, none per
// lane.

func movAll(d, a, b, c *row)              { allLanes(d, a, b, c, mov) }
func movSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, mov) }
func addAll(d, a, b, c *row)              { allLanes(d, a, b, c, add) }
func addSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, add) }
func subAll(d, a, b, c *row)              { allLanes(d, a, b, c, sub) }
func subSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, sub) }
func mulAll(d, a, b, c *row)              { allLanes(d, a, b, c, mul) }
func mulSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, mul) }
func divAll(d, a, b, c *row)              { allLanes(d, a, b, c, div) }
func divSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, div) }
func remAll(d, a, b, c *row)              { allLanes(d, a, b, c, rem) }
func remSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, rem) }
func minAll(d, a, b, c *row)              { allLanes(d, a, b, c, smin) }
func minSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, smin) }
func maxAll(d, a, b, c *row)              { allLanes(d, a, b, c, smax) }
func maxSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, smax) }
func andAll(d, a, b, c *row)              { allLanes(d, a, b, c, and) }
func andSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, and) }
func orAll(d, a, b, c *row)               { allLanes(d, a, b, c, or) }
func orSome(d, a, b, c *row, m uint32)    { maskLanes(d, a, b, c, m, or) }
func xorAll(d, a, b, c *row)              { allLanes(d, a, b, c, xor) }
func xorSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, xor) }
func shlAll(d, a, b, c *row)              { allLanes(d, a, b, c, shl) }
func shlSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, shl) }
func shrAll(d, a, b, c *row)              { allLanes(d, a, b, c, shr) }
func shrSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, shr) }
func faddAll(d, a, b, c *row)             { allLanes(d, a, b, c, fadd) }
func faddSome(d, a, b, c *row, m uint32)  { maskLanes(d, a, b, c, m, fadd) }
func fsubAll(d, a, b, c *row)             { allLanes(d, a, b, c, fsub) }
func fsubSome(d, a, b, c *row, m uint32)  { maskLanes(d, a, b, c, m, fsub) }
func fmulAll(d, a, b, c *row)             { allLanes(d, a, b, c, fmul) }
func fmulSome(d, a, b, c *row, m uint32)  { maskLanes(d, a, b, c, m, fmul) }
func fdivAll(d, a, b, c *row)             { allLanes(d, a, b, c, fdiv) }
func fdivSome(d, a, b, c *row, m uint32)  { maskLanes(d, a, b, c, m, fdiv) }
func fmaAll(d, a, b, c *row)              { allLanes(d, a, b, c, fma) }
func fmaSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, fma) }
func fnegAll(d, a, b, c *row)             { allLanes(d, a, b, c, fneg) }
func fnegSome(d, a, b, c *row, m uint32)  { maskLanes(d, a, b, c, m, fneg) }
func cvtifAll(d, a, b, c *row)            { allLanes(d, a, b, c, cvtif) }
func cvtifSome(d, a, b, c *row, m uint32) { maskLanes(d, a, b, c, m, cvtif) }
func cvtfiAll(d, a, b, c *row)            { allLanes(d, a, b, c, cvtfi) }
func cvtfiSome(d, a, b, c *row, m uint32) { maskLanes(d, a, b, c, m, cvtfi) }
func selpAll(d, a, b, c *row)             { allLanes(d, a, b, c, selp) }
func selpSome(d, a, b, c *row, m uint32)  { maskLanes(d, a, b, c, m, selp) }
func eqIAll(d, a, b, c *row)              { allLanes(d, a, b, c, eqI) }
func eqISome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, eqI) }
func neIAll(d, a, b, c *row)              { allLanes(d, a, b, c, neI) }
func neISome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, neI) }
func ltIAll(d, a, b, c *row)              { allLanes(d, a, b, c, ltI) }
func ltISome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, ltI) }
func leIAll(d, a, b, c *row)              { allLanes(d, a, b, c, leI) }
func leISome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, leI) }
func gtIAll(d, a, b, c *row)              { allLanes(d, a, b, c, gtI) }
func gtISome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, gtI) }
func geIAll(d, a, b, c *row)              { allLanes(d, a, b, c, geI) }
func geISome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, geI) }
func eqFAll(d, a, b, c *row)              { allLanes(d, a, b, c, eqF) }
func eqFSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, eqF) }
func neFAll(d, a, b, c *row)              { allLanes(d, a, b, c, neF) }
func neFSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, neF) }
func ltFAll(d, a, b, c *row)              { allLanes(d, a, b, c, ltF) }
func ltFSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, ltF) }
func leFAll(d, a, b, c *row)              { allLanes(d, a, b, c, leF) }
func leFSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, leF) }
func gtFAll(d, a, b, c *row)              { allLanes(d, a, b, c, gtF) }
func gtFSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, gtF) }
func geFAll(d, a, b, c *row)              { allLanes(d, a, b, c, geF) }
func geFSome(d, a, b, c *row, m uint32)   { maskLanes(d, a, b, c, m, geF) }
func zeroAll(d, a, b, c *row)             { allLanes(d, a, b, c, zero) }
func zeroSome(d, a, b, c *row, m uint32)  { maskLanes(d, a, b, c, m, zero) }

var aluKernels = [...]kernel{
	isa.OpMov:   {mov, movAll, movSome},
	isa.OpAdd:   {add, addAll, addSome},
	isa.OpSub:   {sub, subAll, subSome},
	isa.OpMul:   {mul, mulAll, mulSome},
	isa.OpDiv:   {div, divAll, divSome},
	isa.OpRem:   {rem, remAll, remSome},
	isa.OpMin:   {smin, minAll, minSome},
	isa.OpMax:   {smax, maxAll, maxSome},
	isa.OpAnd:   {and, andAll, andSome},
	isa.OpOr:    {or, orAll, orSome},
	isa.OpXor:   {xor, xorAll, xorSome},
	isa.OpShl:   {shl, shlAll, shlSome},
	isa.OpShr:   {shr, shrAll, shrSome},
	isa.OpFAdd:  {fadd, faddAll, faddSome},
	isa.OpFSub:  {fsub, fsubAll, fsubSome},
	isa.OpFMul:  {fmul, fmulAll, fmulSome},
	isa.OpFDiv:  {fdiv, fdivAll, fdivSome},
	isa.OpFMA:   {fma, fmaAll, fmaSome},
	isa.OpFNeg:  {fneg, fnegAll, fnegSome},
	isa.OpCvtIF: {cvtif, cvtifAll, cvtifSome},
	isa.OpCvtFI: {cvtfi, cvtfiAll, cvtfiSome},
	isa.OpSelp:  {selp, selpAll, selpSome},
}

// intCompares and floatCompares are the Setp and FSetp kernels, indexed
// by isa.Cmp.
var (
	intCompares = [6]kernel{
		isa.CmpEQ: {eqI, eqIAll, eqISome},
		isa.CmpNE: {neI, neIAll, neISome},
		isa.CmpLT: {ltI, ltIAll, ltISome},
		isa.CmpLE: {leI, leIAll, leISome},
		isa.CmpGT: {gtI, gtIAll, gtISome},
		isa.CmpGE: {geI, geIAll, geISome},
	}
	floatCompares = [6]kernel{
		isa.CmpEQ: {eqF, eqFAll, eqFSome},
		isa.CmpNE: {neF, neFAll, neFSome},
		isa.CmpLT: {ltF, ltFAll, ltFSome},
		isa.CmpLE: {leF, leFAll, leFSome},
		isa.CmpGT: {gtF, gtFAll, gtFSome},
		isa.CmpGE: {geF, geFAll, geFSome},
	}
	never = kernel{zero, zeroAll, zeroSome}
)
