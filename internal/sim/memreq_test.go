package sim

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/offload"
	"repro/internal/workloads"
)

// TestLinePoolsDrainAtQuiescence: once a run quiesces, every pooled line
// request, transaction and L2 MSHR entry it handed out must be back on its
// free list — over the Fig. 9 matrix in both loop modes, and for every
// registered offload policy. Run itself returns the same check as an error
// (System.poolLeak); this test also asserts the pools were exercised at all.
func TestLinePoolsDrainAtQuiescence(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-system simulations")
	}
	type cell struct {
		name string
		mk   func() Config
	}
	cells := []cell{}
	for _, c := range fig9PinConfigs() {
		cells = append(cells, cell{c.name, c.mk})
	}
	for _, p := range offload.Names() {
		if p == DefaultConfig().PolicyName() {
			continue // the ctrl-tmap cell above already runs it
		}
		p := p
		cells = append(cells, cell{"policy-" + p, func() Config {
			c := DefaultConfig()
			c.Policy = p
			return c
		}})
	}
	for _, w := range workloads.All() {
		inst, err := w.Build(0.03)
		if err != nil {
			t.Fatalf("%s: %v", w.Abbr, err)
		}
		for _, c := range cells {
			for _, perCycle := range []bool{false, true} {
				mode := map[bool]string{false: "event", true: "percycle"}[perCycle]
				t.Run(fmt.Sprintf("%s/%s/%s", w.Abbr, c.name, mode), func(t *testing.T) {
					run := inst.Clone()
					cfg := c.mk()
					cfg.MaxCycles = 100_000_000
					sys := New(cfg, run.Mem, run.Alloc)
					sys.SetPerCycleLoop(perCycle)
					if err := sys.Run(run.Launches); err != nil {
						t.Fatal(err)
					}
					if sys.txns.made == 0 || sys.reqs.made == 0 {
						t.Fatalf("pools never used: %d txns, %d line requests made",
							sys.txns.made, sys.reqs.made)
					}
					for name, n := range map[string]int{
						"line request":  sys.reqs.outstanding(),
						"transaction":   sys.txns.outstanding(),
						"L2 MSHR entry": sys.l2.entries.outstanding(),
					} {
						if n != 0 {
							t.Errorf("%d %s(s) not returned to the pool at quiescence", n, name)
						}
					}
				})
			}
		}
	}
}

// TestLineRoundTripAllocatesNothing: once its pools and queues are warm, a
// line's whole trip — LSU coalescing and MSHR, L2 bank, TX link, crossbar
// and vault, RX link, l2fill and completion back at the SM — allocates
// nothing. The cases cover every line route: GPU loads and stores, the
// learning phase's PCI-E detour, and a logic-layer SM's local and remote
// (cross-stack) accesses.
func TestLineRoundTripAllocatesNothing(t *testing.T) {
	cfg := BaselineConfig()
	cfg.LearnDeadline = 0 // the PCI-E cases hold the learning phase open
	sys := New(cfg, mem.NewFlat(), mem.NewAllocTable())
	stackSM := sys.stacks[0].sms[0]
	// lineOn returns a line whose home is (or, with home false, is not)
	// stack 0.
	lineOn := func(home bool) uint64 {
		for l := uint64(0); ; l += uint64(cfg.LineBytes) {
			if (sys.stackOf(l) == 0) == home {
				return l
			}
		}
	}
	cases := []struct {
		name     string
		sm       *SM
		op       isa.Op
		line     uint64
		learning bool
	}{
		{"gpu-load", sys.sms[0], isa.OpLdGlobal, 1 << 20, false},
		{"gpu-store", sys.sms[1], isa.OpStGlobal, 2 << 20, false},
		{"gpu-atomic", sys.sms[2], isa.OpAtomAdd, 3 << 20, false},
		{"pcie-load", sys.sms[3], isa.OpLdGlobal, 4 << 20, true},
		{"pcie-store", sys.sms[4], isa.OpStGlobal, 5 << 20, true},
		{"stack-local-load", stackSM, isa.OpLdGlobal, lineOn(true), false},
		{"stack-remote-load", stackSM, isa.OpLdGlobal, lineOn(false), false},
		{"stack-remote-store", stackSM, isa.OpStGlobal, lineOn(false), false},
	}
	lc := &launchCtx{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sw := &smWarp{sm: c.sm}
			res := exec.StepResult{Op: c.op, Dst: 3,
				Accesses: []exec.Access{{Addr: c.line}, {Addr: c.line + 4}}}
			trip := func() {
				sys.learning = c.learning
				c.sm.l1.Invalidate(c.line)
				sys.l2.invalidate(c.line)
				before := sys.stats.L2Misses
				c.sm.issueMem(sw, res, sys.now)
				for sys.inflight > 0 || sys.wheel.pending() > 0 {
					sys.stepCycle(lc, true)
				}
				if c.sm == stackSM || c.op != isa.OpLdGlobal {
					return
				}
				if sys.stats.L2Misses != before+1 {
					t.Fatal("GPU load did not miss in the L2")
				}
			}
			for i := 0; i < 64; i++ {
				trip()
			}
			// AllocsPerRun truncates its mean: measure batches of trips so
			// even one allocation per hundred trips shows.
			if a := testing.AllocsPerRun(5, func() {
				for k := 0; k < 100; k++ {
					trip()
				}
			}); a != 0 {
				t.Errorf("100 warm round trips allocate %.0f times, want 0", a)
			}
			if sw.pendingStores != 0 || sw.regCount[3] != 0 {
				t.Errorf("round trip left pendingStores=%d regCount=%d", sw.pendingStores, sw.regCount[3])
			}
		})
	}
	if err := sys.poolLeak(); err != nil {
		t.Fatal(err)
	}
}
