package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// cell is one workload × configuration of a run set.
type cell struct {
	abbr string
	spec core.RunSpec
}

func (c cell) key() string { return c.spec.Key() }

func makeCells(abbrs []string, configs []core.ConfigName, scale float64) ([]cell, error) {
	var out []cell
	for _, a := range abbrs {
		for _, cfg := range configs {
			spec, err := core.NewRunSpec(a, scale, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, cell{abbr: a, spec: spec})
		}
	}
	return out, nil
}

// shuffled returns the cells in a seeded order.
func shuffled(cells []cell, rng *rand.Rand) []cell {
	out := append([]cell(nil), cells...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// buildInstances builds every workload of the set once and returns the
// instances and the wall time the builds took.
func buildInstances(abbrs []string, scale float64, tr *tracer, parent int) (map[string]*workloads.Instance, time.Duration, error) {
	insts := map[string]*workloads.Instance{}
	start := time.Now()
	for _, a := range abbrs {
		w, err := workloads.ByAbbr(a)
		if err != nil {
			return nil, 0, err
		}
		var in *workloads.Instance
		tr.do("workloads.build", parent, 0, func() { in, err = w.Build(scale) })
		if err != nil {
			return nil, 0, fmt.Errorf("build %s: %w", a, err)
		}
		insts[a] = in
	}
	return insts, time.Since(start), nil
}

// cellRun is what one verified simulation of a cell produced.
type cellRun struct {
	stats    sim.Stats
	executed int64 // cycles the event loop stepped (the rest were skipped)
}

// pipeline runs cells the way core.Session runs an uncached spec, but
// through the layer calls themselves, so each can be timed and spanned:
// functional reference (once per workload per pass), clone, sim.New,
// System.Run, and verification against the reference.
type pipeline struct {
	insts        map[string]*workloads.Instance
	tr           *tracer
	group        int
	needOffloads bool // every ctrl-tmap cell must send offloads

	// Traced runs only: heap allocations inside sim.New+Run, and the
	// largest heap seen right after a Run.
	allocs   uint64
	heapPeak uint64
}

// pass runs the cells in order and returns their runs keyed by cell.
func (p *pipeline) pass(cells []cell, t *tally) map[string]cellRun {
	refs := map[string]*mem.Flat{}
	runs := map[string]cellRun{}
	for _, c := range cells {
		pinFastestCPU()
		in := p.insts[c.abbr]
		ref, ok := refs[c.abbr]
		if !ok {
			p.group++
			root := p.tr.begin("ref", 0, p.group)
			rc := in.Clone()
			var err error
			p.tr.do("exec.ref", root, p.group, func() { err = exec.RunFunctionalAll(rc.Mem, rc.Launches) })
			if err == nil && in.Check != nil {
				p.tr.do("mem.verify", root, p.group, func() { err = in.Check(rc.Mem) })
			}
			p.tr.end(root)
			if err != nil {
				t.op(c.abbr+" functional reference", err)
				continue
			}
			ref = rc.Mem
			refs[c.abbr] = ref
		}
		run, err := p.run(c, in, ref)
		t.op(c.key(), err, invariants(c, &run.stats, p.needOffloads))
		if err == nil {
			runs[c.key()] = run
		}
	}
	return runs
}

func (p *pipeline) run(c cell, in *workloads.Instance, ref *mem.Flat) (cellRun, error) {
	p.group++
	root := p.tr.begin("cell", 0, p.group)
	defer p.tr.end(root)
	var cl *workloads.Instance
	p.tr.do("workloads.clone", root, p.group, func() { cl = in.Clone() })
	var before runtimeCounters
	if p.tr != nil {
		before = readRuntime()
	}
	var sys *sim.System
	p.tr.do("sim.new", root, p.group, func() { sys = sim.New(c.spec.Cfg, cl.Mem, cl.Alloc) })
	var err error
	p.tr.do("sim.run", root, p.group, func() { err = sys.Run(cl.Launches) })
	if p.tr != nil {
		after := readRuntime()
		p.allocs += after.allocs - before.allocs
		p.heapPeak = max(p.heapPeak, after.heapBytes)
	}
	if err != nil {
		return cellRun{}, err
	}
	p.tr.do("mem.verify", root, p.group, func() {
		if ok, addr := mem.Equal(ref, cl.Mem); !ok {
			err = fmt.Errorf("timing run diverged from the functional reference at %#x", addr)
		} else if in.Check != nil {
			err = in.Check(cl.Mem)
		}
	})
	return cellRun{stats: *sys.Stats(), executed: sys.ExecutedCycles()}, err
}

// invariants checks the conservation laws every quiescent run obeys. With
// needOffloads set, a ctrl-tmap cell must also have sent offloads: the
// fig9 workloads exist to exercise that mechanism.
func invariants(c cell, st *sim.Stats, needOffloads bool) error {
	if st.InFlightOffloads != 0 {
		return fmt.Errorf("%d offloads in flight at exit", st.InFlightOffloads)
	}
	if c.spec.Cfg.Offload == sim.OffloadOff {
		return nil
	}
	if got := st.OffloadsSent + st.OffloadsSkipped() + st.LearnEntries; st.CandidateInstances != got {
		return fmt.Errorf("candidate instances %d != sent+skipped+learned %d", st.CandidateInstances, got)
	}
	if needOffloads && c.spec.Config == core.CfgCtrlTmap && st.OffloadsSent == 0 {
		return fmt.Errorf("ctrl-tmap cell sent no offloads")
	}
	return nil
}

// fingerprint hashes the simulated statistics of every cell (in cell order,
// not run order) and, separately, the cycles the event loop stepped. Host
// speed moves neither; any change means the model changed.
type fingerprint struct {
	Stats string `json:"stats"`
	Loop  string `json:"loop,omitempty"` // "" when the steps were not observable
}

func fingerprintOf(cells []cell, stats map[string]*sim.Stats, executed map[string]int64) (fingerprint, error) {
	hs, hl := sha256.New(), sha256.New()
	for _, c := range cells {
		st, ok := stats[c.key()]
		if !ok {
			return fingerprint{}, fmt.Errorf("no result for %s", c.key())
		}
		data, err := json.Marshal(st)
		if err != nil {
			return fingerprint{}, err
		}
		fmt.Fprintf(hs, "%s %s\n", c.key(), data)
		fmt.Fprintf(hl, "%s %d\n", c.key(), executed[c.key()])
	}
	fp := fingerprint{Stats: hex.EncodeToString(hs.Sum(nil))[:16]}
	if executed != nil {
		fp.Loop = hex.EncodeToString(hl.Sum(nil))[:16]
	}
	return fp, nil
}

// modelMetrics are the simulated-model figures of a run set, in simulated
// time. They must not move under a simulator-only change. The model is
// unvalidated against hardware, so no error figure is given.
func modelMetrics(cells []cell, stats map[string]*sim.Stats, m metricSet) {
	var cycles int64
	var instrs, l1h, l1m, l2h, l2m, rowHits, acts, offchip, pcie, sent, cand uint64
	var learn int64
	speedups := map[string][2]int64{}
	for _, c := range cells {
		st := stats[c.key()]
		cycles += st.Cycles
		instrs += st.ThreadInstrs
		l1h, l1m = l1h+st.L1Hits, l1m+st.L1Misses
		l2h, l2m = l2h+st.L2Hits, l2m+st.L2Misses
		rowHits, acts = rowHits+st.DRAMRowHits, acts+st.DRAMActivations
		offchip += st.OffChipBytes()
		pcie += st.PCIeBytes
		learn += st.LearnCycles
		if c.spec.Cfg.Offload != sim.OffloadOff {
			sent += st.OffloadsSent
			cand += st.CandidateInstances
		}
		pair := speedups[c.abbr]
		switch c.spec.Config {
		case core.CfgBaseline:
			pair[0] = st.Cycles
		case core.CfgCtrlTmap:
			pair[1] = st.Cycles
		}
		speedups[c.abbr] = pair
	}
	var logSum float64
	for _, pair := range speedups {
		logSum += math.Log(float64(pair[0]) / float64(pair[1]))
	}
	m.set("model.sim_cycles", float64(cycles), "cycles")
	m.set("model.ipc", float64(instrs)/float64(cycles), "instr/cycle")
	m.set("model.tmap_speedup", math.Exp(logSum/float64(len(speedups))), "x")
	m.set("cache.l1_hit_rate", ratio(l1h, l1h+l1m), "frac")
	m.set("cache.l2_hit_rate", ratio(l2h, l2h+l2m), "frac")
	m.set("dram.row_hit_rate", ratio(rowHits, rowHits+acts), "frac")
	m.set("link.offchip_bytes", float64(offchip), "bytes")
	m.set("link.pcie_bytes", float64(pcie), "bytes")
	m.set("offload.sent", float64(sent), "count")
	m.set("offload.sent_frac", ratio(sent, cand), "frac")
	m.set("mapping.learn_cycles", float64(learn), "cycles")
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
