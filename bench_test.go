package tom

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The experiment benchmarks regenerate the paper's figures/tables through
// the same harness cmd/tomx uses. One shared runner memoizes runs across
// benchmarks, so the full-system simulations execute once per `go test
// -bench` invocation regardless of b.N.
//
// TOM_BENCH_SCALE overrides the problem-size scale (default 1.0, the
// EXPERIMENTS.md setting; use e.g. 0.25 for a quick pass).

var (
	benchOnce   sync.Once
	benchRunner *core.Runner
)

func benchScale() float64 {
	if s := os.Getenv("TOM_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 1.0
}

func sharedRunner(b *testing.B) *core.Runner {
	benchOnce.Do(func() {
		benchRunner = core.NewRunner(benchScale())
	})
	return benchRunner
}

// benchmarkExperiment regenerates one figure/table and reports its rows.
func benchmarkExperiment(b *testing.B, id string) {
	r := sharedRunner(b)
	var tab *core.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = r.Experiment(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Printf("\n%s\n", tab)
	// Report each row's AVG as a benchmark metric so regressions in the
	// reproduced numbers are visible in benchstat output.
	for _, row := range tab.Rows {
		if n := len(row.Values); n > 0 {
			b.ReportMetric(row.Values[n-1], sanitizeMetric(row.Label))
		}
	}
}

func sanitizeMetric(label string) string {
	out := make([]rune, 0, len(label))
	for _, c := range label {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out) + "/avg"
}

// --- one benchmark per paper figure/table ---

func BenchmarkFig02IdealSpeedup(b *testing.B)        { benchmarkExperiment(b, "fig2") }
func BenchmarkFig03IdealMapping(b *testing.B)        { benchmarkExperiment(b, "fig3") }
func BenchmarkFig05FixedOffset(b *testing.B)         { benchmarkExperiment(b, "fig5") }
func BenchmarkFig06LearnedMapping(b *testing.B)      { benchmarkExperiment(b, "fig6") }
func BenchmarkFig08Speedup(b *testing.B)             { benchmarkExperiment(b, "fig8") }
func BenchmarkFig09Traffic(b *testing.B)             { benchmarkExperiment(b, "fig9") }
func BenchmarkFig10Energy(b *testing.B)              { benchmarkExperiment(b, "fig10") }
func BenchmarkFig11WarpCapacity(b *testing.B)        { benchmarkExperiment(b, "fig11") }
func BenchmarkFig12WarpCapacityTraffic(b *testing.B) { benchmarkExperiment(b, "fig12") }
func BenchmarkFig13InternalBW(b *testing.B)          { benchmarkExperiment(b, "fig13") }
func BenchmarkSec65CrossStackBW(b *testing.B)        { benchmarkExperiment(b, "xstack") }
func BenchmarkSec442Coherence(b *testing.B)          { benchmarkExperiment(b, "coherence") }
func BenchmarkSec66Area(b *testing.B)                { benchmarkExperiment(b, "area") }

// --- substrate micro-benchmarks ---

// BenchmarkSimulatorThroughput measures timing-simulator speed in simulated
// cycles per second on a small baseline run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, err := workloads.ByAbbr("SP")
	if err != nil {
		b.Fatal(err)
	}
	inst, err := w.Build(0.1)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := inst.Clone()
		sys := sim.New(sim.BaselineConfig(), c.Mem, c.Alloc)
		if err := sys.Run(c.Launches); err != nil {
			b.Fatal(err)
		}
		cycles += sys.Stats().Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkFunctionalInterpreter measures the SIMT interpreter on the
// compute-bound kernels, in executed thread-instructions per second.
func BenchmarkFunctionalInterpreter(b *testing.B) {
	for _, abbr := range []string{"KM", "HW", "RD"} {
		b.Run(abbr, func(b *testing.B) {
			w, err := workloads.ByAbbr(abbr)
			if err != nil {
				b.Fatal(err)
			}
			inst, err := w.Build(0.1)
			if err != nil {
				b.Fatal(err)
			}
			var instrs int64
			count := func(_ *exec.Warp, r exec.StepResult) { instrs += int64(r.ActiveLanes) }
			c := inst.Clone()
			for _, l := range c.Launches {
				if err := exec.RunInstrumented(c.Mem, l, count); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := inst.Clone()
				b.StartTimer()
				if err := exec.RunFunctionalAll(c.Mem, c.Launches); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(instrs)*float64(b.N)/1e6/b.Elapsed().Seconds(), "Minstr/s")
		})
	}
}

// BenchmarkCompilerPass measures offload-candidate selection over all
// workload kernels.
func BenchmarkCompilerPass(b *testing.B) {
	var kernels []*isa.Kernel
	for _, w := range workloads.All() {
		inst, err := w.Build(0.02)
		if err != nil {
			b.Fatal(err)
		}
		seen := map[string]bool{}
		for _, l := range inst.Launches {
			if !seen[l.Kernel.Name] {
				seen[l.Kernel.Name] = true
				kernels = append(kernels, l.Kernel)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range kernels {
			if _, err := compiler.Analyze(k, compiler.DefaultCostParams()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFlatMemory measures the backing store.
func BenchmarkFlatMemory(b *testing.B) {
	m := mem.NewFlat()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%(1<<22)) * 4
		m.Store4(addr, uint32(i))
		if m.Load4(addr) != uint32(i) {
			b.Fatal("readback mismatch")
		}
	}
}
