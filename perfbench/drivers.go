package main

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/dram"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/mapping"
	"repro/internal/sim"
	"repro/internal/workloads"
)

const (
	maxSkip      = 4096    // a seeded number of memory steps skipped before capture
	maxLines     = 1 << 16 // captured line accesses per workload
	maxInstances = 2048    // captured candidate instances per workload
)

// access is one captured line access.
type access struct {
	line  uint64
	store bool
}

// streams are the inputs the component drivers replay, captured with
// exec.RunInstrumented from the workload kernels.
type streams struct {
	lines     []access   // line accesses, consecutive repeats dropped
	instances [][]uint64 // each candidate instance's accessed addresses
	kernels   []*isa.Kernel
}

// capture runs each workload's launches functionally until its share of the
// streams is full. Candidate instances are grouped per warp from entry at a
// candidate's start PC until the warp leaves the region.
func (b *bench) capture(insts map[string]*workloads.Instance, abbrs []string) (*streams, error) {
	st := &streams{}
	seenKernel := map[*isa.Kernel]bool{}
	lineShift := uint(math.Log2(float64(sim.DefaultConfig().LineBytes)))
	for _, a := range abbrs {
		in := insts[a].Clone()
		skip := b.rng.Intn(maxSkip)
		nLines, nInst := 0, 0
		for _, l := range in.Launches {
			if nLines >= maxLines && nInst >= maxInstances {
				break
			}
			md, err := compiler.Analyze(l.Kernel, compiler.DefaultCostParams())
			if err != nil {
				return nil, err
			}
			if !seenKernel[l.Kernel] {
				seenKernel[l.Kernel] = true
				st.kernels = append(st.kernels, l.Kernel)
			}
			type open struct {
				cand  *compiler.Candidate
				addrs []uint64
			}
			regions := map[*exec.Warp]*open{}
			last := ^uint64(0)
			hook := func(w *exec.Warp, r exec.StepResult) {
				if r.Kind == exec.StepMem && skip > 0 {
					skip--
					return
				}
				if skip > 0 {
					return
				}
				o := regions[w]
				if o != nil && (r.PC < o.cand.StartPC || r.PC >= o.cand.EndPC) {
					if len(o.addrs) > 0 && nInst < maxInstances {
						st.instances = append(st.instances, o.addrs)
						nInst++
					}
					delete(regions, w)
					o = nil
				}
				if o == nil {
					if c := md.AtPC(r.PC); c != nil {
						o = &open{cand: c}
						regions[w] = o
					}
				}
				if r.Kind != exec.StepMem {
					return
				}
				for _, acc := range r.Accesses {
					if o != nil {
						o.addrs = append(o.addrs, acc.Addr)
					}
					if line := acc.Addr >> lineShift; line != last && nLines < maxLines {
						st.lines = append(st.lines, access{line << lineShift, acc.Store})
						last = line
						nLines++
					}
				}
			}
			if err := exec.RunInstrumented(in.Mem, l, hook); err != nil {
				return nil, err
			}
		}
	}
	if len(st.lines) == 0 || len(st.instances) == 0 || len(st.kernels) == 0 {
		return nil, fmt.Errorf("captured %d line accesses, %d candidate instances, %d kernels: the drivers need some of each",
			len(st.lines), len(st.instances), len(st.kernels))
	}
	b.rng.Shuffle(len(st.instances), func(i, j int) { st.instances[i], st.instances[j] = st.instances[j], st.instances[i] })
	return st, nil
}

// drivers measures single components on the captured streams, through
// their public APIs, and reports ns/op and allocs/op for each.
func (b *bench) drivers(insts map[string]*workloads.Instance, abbrs []string) error {
	st, err := b.capture(insts, abbrs)
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig()
	lines, n := st.lines, len(st.lines)
	report := func(name string, fn func(tb *testing.B)) {
		id := b.tr.begin("driver."+name, 0, 0)
		r := testing.Benchmark(fn)
		b.tr.end(id)
		b.layers.set("driver."+name+"_ns", float64(r.T.Nanoseconds())/float64(r.N), "ns/op")
		b.layers.set("driver."+name+"_allocs", float64(r.MemAllocs)/float64(r.N), "allocs/op")
	}

	report("cache_access", func(tb *testing.B) {
		c := cache.New(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes)
		tb.ResetTimer()
		for i := 0; i < tb.N; i++ {
			c.Access(lines[i%n].line)
		}
	})

	// One op is one line request: Enqueue, ticking the vault a cycle at a
	// time whenever its queue is full or the request slot is still busy.
	report("vault", func(tb *testing.B) {
		v := dram.NewVault(dram.DefaultTiming())
		reqs := make([]dram.Request, 256)
		busy := make([]bool, len(reqs))
		for i := range reqs {
			reqs[i].Done = func(int64) { busy[i] = false }
		}
		var now int64
		tb.ResetTimer()
		for i := 0; i < tb.N; i++ {
			slot := i % len(reqs)
			for busy[slot] {
				now++
				v.Tick(now)
			}
			r := &reqs[slot]
			r.Addr, r.Bytes, r.Write = lines[i%n].line, cfg.LineBytes, lines[i%n].store
			for !v.Enqueue(r) {
				now++
				v.Tick(now)
			}
			busy[slot] = true
			now++
			v.Tick(now)
		}
	})

	// One op is one packet: a read request, or a write carrying its line.
	// Time advances by the packet's serialization time, so the queue stays
	// short and the op count measures Send/AdvanceTo, not queue growth.
	report("link", func(tb *testing.B) {
		l := link.New("driver", cfg.GPUStackBW, cfg.LinkLat)
		var now int64
		tb.ResetTimer()
		for i := 0; i < tb.N; i++ {
			bytes := 16
			if lines[i%n].store {
				bytes += cfg.LineBytes
			}
			l.Send(link.Packet{Bytes: bytes}, now)
			now += 1 + int64(float64(bytes)/cfg.GPUStackBW)
			l.AdvanceTo(now)
		}
	})

	report("analyzer_observe", func(tb *testing.B) {
		a := mapping.NewAnalyzer(cfg.Stacks, nil)
		tb.ResetTimer()
		for i := 0; i < tb.N; i++ {
			a.ObserveInstance(st.instances[i%len(st.instances)])
		}
	})

	report("compiler_analyze", func(tb *testing.B) {
		p := compiler.DefaultCostParams()
		for i := 0; i < tb.N; i++ {
			if _, err := compiler.Analyze(st.kernels[i%len(st.kernels)], p); err != nil {
				tb.Fatal(err)
			}
		}
	})
	return nil
}
