package exec

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestStepDoesNotAllocate: once a warp's access buffer and reconvergence
// stack have grown, Step allocates nothing for ALU, Setp, branch, shared
// and global instructions, with a full or a partial mask.
func TestStepDoesNotAllocate(t *testing.T) {
	bodies := map[string]func(b *isa.Builder){
		"alu": func(b *isa.Builder) {
			b.FMA(2, isa.R(2), isa.R(3), isa.ImmF(0.5))
			b.Add(4, isa.R(4), isa.Sp(isa.SpLane))
			b.Div(5, isa.R(4), isa.R(3))
		},
		"setp": func(b *isa.Builder) {
			b.Setp(2, isa.CmpLT, isa.R(4), isa.Sp(isa.SpTid))
			b.FSetp(3, isa.CmpGE, isa.R(2), isa.ImmF(1))
		},
		"branch": func(b *isa.Builder) {
			b.And(2, isa.Sp(isa.SpLane), isa.Imm(1))
			b.BraIf(isa.R(2), "odd")
			b.Add(3, isa.R(3), isa.Imm(1))
			b.Bra("join")
			b.Label("odd")
			b.Add(3, isa.R(3), isa.Imm(2))
			b.Label("join")
		},
		"shared": func(b *isa.Builder) {
			b.Shl(2, isa.Sp(isa.SpTid), isa.Imm(2))
			b.LdShared(3, isa.R(2), 0)
			b.StShared(isa.R(2), 0, isa.R(3))
		},
		"global": func(b *isa.Builder) {
			b.Shl(2, isa.Sp(isa.SpGtid), isa.Imm(2))
			b.Add(2, isa.R(2), isa.R(0))
			b.Ld(3, isa.R(2), 0)
			b.St(isa.R(2), 0, isa.R(3))
			b.AtomAdd(4, isa.R(2), 0, isa.Imm(1))
		},
	}
	for name, body := range bodies {
		for _, ntid := range []int{32, 20} {
			// The body loops on a counter that never reaches its bound.
			b := isa.NewBuilder(name, 1)
			b.SetShared(4 * isa.WarpSize)
			b.Label("top")
			body(b)
			b.Add(9, isa.R(9), isa.Imm(1))
			b.Setp(10, isa.CmpLT, isa.R(9), isa.Imm(1<<40))
			b.BraIf(isa.R(10), "top")
			b.Exit()
			p := decodeKernel(t, b.MustBuild())
			w := NewWarp(p, WarpInfo{NTid: ntid, NCtaid: 1}, mem.NewFlat(),
				make([]uint32, isa.WarpSize), []uint64{0x2000_0000})
			allocs := testing.AllocsPerRun(50, func() {
				for i := 0; i < 64; i++ {
					w.Step()
				}
			})
			if allocs != 0 || w.Done() {
				t.Errorf("%s, %d threads: %v allocations per 64 steps (done=%v), want 0",
					name, ntid, allocs, w.Done())
			}
		}
	}
}
