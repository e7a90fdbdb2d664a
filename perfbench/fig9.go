package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// fig9Scale is the problem scale of both fig9 workloads. Every ctrl-tmap
// cell sends offloads at 0.2 (the benchmark checks it); at 0.1 KM, HW and
// RD send none.
const fig9Scale = 0.2

// fig9Sets splits the Fig. 9 workloads by the layer that dominates them.
// On fig9-compute the interpreter carries the run and the memory side does
// little; on fig9-memory the vault and link queues, the timing wheel, the
// event loop's wake scan, the learning-phase detour and the GC carry most
// of it.
var fig9Sets = map[string][]string{
	"fig9-compute": {"KM", "HW", "RD"},
	"fig9-memory":  {"BFS", "CFD", "FWT"},
}

var fig9Configs = []core.ConfigName{core.CfgBaseline, core.CfgCtrlTmap}

const (
	setupRounds    = 15   // instance-build rounds; setup_s is their median
	minRounds      = 3    // timed rounds at the least, on every workload
	warmPerRound   = 1000 // memo batches after each cold batch
	replayPerRound = 50   // disk-replay batches after each cold batch

	// Reference units paired with each batch sample: about the batch's own
	// time on the reference host.
	warmUnits   = 8
	replayUnits = 25
)

// fig9 runs a fig9 workload:
//
//  1. set-up: build every instance setupRounds times (setup_s);
//  2. the timed phase, in rounds: a cold batch of all cells through a fresh
//     core.Session with verification on and a fresh persistent cache, then
//     warm batches from its memo and replay batches from its cache through
//     fresh Sessions. Rounds go on until --seconds is up;
//  3. traced runs only: one pass over the cells through the layer calls,
//     under spans and a CPU profile, cross-checked against the Session's
//     statistics, and the component drivers.
//
// Every timed figure is scaled by the reference work run beside it
// (calib.go), and each metric is the median over the run.
func (b *bench) fig9() error {
	abbrs := fig9Sets[b.workload]
	cells, err := makeCells(abbrs, fig9Configs, fig9Scale)
	if err != nil {
		return err
	}
	var setups, raw []float64
	var insts map[string]*workloads.Instance
	setup := b.tr.begin("setup", 0, 0)
	pinFastestCPU()
	ref := refTime()
	for range setupRounds {
		in, d, err := buildInstances(abbrs, fig9Scale, b.tr, setup)
		if err != nil {
			return err
		}
		next := refTime()
		setups = append(setups, scaled(d, ref, next).Seconds())
		raw = append(raw, d.Seconds())
		insts, ref = in, next
	}
	b.tr.end(setup)
	logf("set-up: median build %.4fs scaled, %.4fs wall", median(setups), median(raw))
	b.end2end.set("setup_s", median(setups), "s")
	b.layers.set("workloads.build_s", median(setups), "s")

	b.startTimed()
	sb := &sessionBatches{b: b, cells: cells, coldJSON: map[string][]byte{}, coldRes: map[string]*core.RunResult{},
		cold: map[string][]float64{}, coldRaw: map[string][]float64{}}
	for sb.rounds < minRounds || time.Now().Before(b.deadline) {
		sb.round()
	}
	if err := sb.report(); err != nil {
		return err
	}

	stats := map[string]*sim.Stats{}
	for k, res := range sb.coldRes {
		stats[k] = &res.Stats
	}
	if b.tr == nil {
		// The Session does not expose the cycles its event loop stepped, so
		// an untraced run fingerprints the statistics alone.
		if fp, err := fingerprintOf(cells, stats, nil); err != nil {
			b.t.op("fingerprint", err)
		} else {
			b.checkFingerprint(fp, filepath.Dir(b.work))
		}
		return nil
	}
	return b.fig9Layers(insts, abbrs, cells, sb)
}

// fig9Layers is the traced run's second half: one pass over the cells
// through the layer calls under spans and a CPU profile, checked against
// the Session's statistics, then the per-layer metrics and the drivers.
func (b *bench) fig9Layers(insts map[string]*workloads.Instance, abbrs []string, cells []cell, sb *sessionBatches) error {
	prof, err := startProfile(filepath.Join(b.work, "cpu.prof"))
	if err != nil {
		return err
	}
	rt0 := readRuntime()
	p := &pipeline{tr: b.tr, insts: insts, needOffloads: true}
	runs := p.pass(shuffled(cells, b.rng), &b.t)
	rt1 := readRuntime()
	shares, err := prof.stop()
	if err != nil {
		return err
	}
	stats := map[string]*sim.Stats{}
	executed := map[string]int64{}
	for k, r := range runs {
		st := r.stats
		stats[k], executed[k] = &st, r.executed
		var err error
		if res, ok := sb.coldRes[k]; !ok || !reflect.DeepEqual(res.Stats, r.stats) {
			err = fmt.Errorf("layer-call statistics differ from core.Session's")
		}
		b.t.op(k+" session cross-check", err)
	}
	if fp, err := fingerprintOf(cells, stats, executed); err != nil {
		b.t.op("fingerprint", err)
	} else {
		b.checkFingerprint(fp, filepath.Dir(b.work))
	}
	b.passLayers(p, cells, stats, executed, shares, rt0, rt1)
	modelMetrics(cells, stats, b.layers)
	b.layers.set("tomserve.response_bytes", 0, "bytes") // no HTTP on this workload
	b.layers.set("core.simulated", float64(sb.simulated)/float64(sb.rounds), "count")
	b.layers.set("core.memo_hits", float64(sb.memoHits)/float64(len(sb.warm)), "count")
	b.layers.set("core.disk_hits", float64(sb.diskHits)/float64(len(sb.replay)), "count")
	if err := b.coreLayers(cells, sb.coldRes); err != nil {
		return err
	}
	return b.drivers(insts, abbrs)
}

// sessionBatches holds the rounds of Session batches of a fig9 run.
type sessionBatches struct {
	b        *bench
	cells    []cell
	rounds   int
	coldJSON map[string][]byte // the first cold batch's results
	coldRes  map[string]*core.RunResult
	instrs   uint64               // thread-instructions of one cold batch
	cold     map[string][]float64 // each cell's scaled cold times, s
	coldRaw  map[string][]float64 // each cell's wall cold times, s
	warm     []float64            // scaled batch latencies, ms
	replay   []float64
	peaks    []float64 // MB, one per cold batch

	simulated, memoHits, diskHits uint64 // summed batch summaries
}

// round runs one cold batch through a fresh Session over a fresh cache
// directory, then warm batches from its memo and replay batches through
// fresh Sessions over the same directory. The bulk reference work runs
// between two cells, and reference units follow each batch.
func (sb *sessionBatches) round() {
	b := sb.b
	dir := filepath.Join(b.work, fmt.Sprintf("cache%d", sb.rounds))
	sess := core.NewSession(core.Options{Scale: fig9Scale, CacheDir: dir})
	first := sb.rounds == 0
	sb.rounds++
	resetPeakRSS()
	pinFastestCPU()
	ref := refTime()
	// The cold batch goes in matrix order: what the Session holds when a
	// cell starts, and so the round's peak memory, does not depend on the
	// seed.
	for _, c := range sb.cells {
		id := b.tr.begin("session.cold", 0, 0)
		start := time.Now()
		res, src, err := sess.RunSpecTracked(c.spec)
		d := time.Since(start)
		b.tr.end(id)
		next := refTime()
		sb.cold[c.key()] = append(sb.cold[c.key()], scaled(d, ref, next).Seconds())
		sb.coldRaw[c.key()] = append(sb.coldRaw[c.key()], d.Seconds())
		ref = next
		if err == nil && src != core.SourceSimulated {
			err = fmt.Errorf("cold run served from %s", src)
		}
		if err == nil {
			err = invariants(c, &res.Stats, true)
		}
		if err == nil {
			err = sb.sameAsFirst(c, res, first)
		}
		b.t.op("session cold "+c.key(), err)
	}
	sb.peaks = append(sb.peaks, b.peakRSSMB("self"))
	memo0 := sess.CacheStats()
	sb.simulated += memo0.Simulated
	b.t.op("cold summary", summaryErr("cold", memo0, core.CacheStats{Simulated: uint64(len(sb.cells))}))

	for range warmPerRound {
		d := sb.batch(sess, "warm", core.SourceMemo)
		sb.warm = append(sb.warm, ms(pairScaled(d, warmUnits, refUnits(warmUnits))))
	}
	cs := sess.CacheStats()
	sb.memoHits += cs.MemoHits - memo0.MemoHits
	b.t.op("warm summary", summaryErr("warm", core.CacheStats{
		MemoHits: cs.MemoHits - memo0.MemoHits, DiskHits: cs.DiskHits - memo0.DiskHits,
		Simulated: cs.Simulated - memo0.Simulated,
	}, core.CacheStats{MemoHits: uint64(warmPerRound * len(sb.cells))}))

	for range replayPerRound {
		s := core.NewSession(core.Options{Scale: fig9Scale, CacheDir: dir})
		d := sb.batch(s, "replay", core.SourceDisk)
		sb.replay = append(sb.replay, ms(pairScaled(d, replayUnits, refUnits(replayUnits))))
		cs := s.CacheStats()
		sb.diskHits += cs.DiskHits
		b.t.op("replay summary", summaryErr("replay", cs, core.CacheStats{DiskHits: uint64(len(sb.cells))}))
	}
}

// sameAsFirst records a cold result of the first round, and checks a later
// round's result against it byte for byte.
func (sb *sessionBatches) sameAsFirst(c cell, res *core.RunResult, first bool) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if first {
		sb.coldJSON[c.key()], sb.coldRes[c.key()] = data, res
		sb.instrs += res.Stats.ThreadInstrs
		return nil
	}
	if !bytes.Equal(data, sb.coldJSON[c.key()]) {
		return fmt.Errorf("result differs from the first cold batch's")
	}
	return nil
}

// batch requests every cell from s in a seeded order, checks each result
// against the cold batch's bytes and the expected source, and returns the
// batch latency.
func (sb *sessionBatches) batch(s *core.Session, phase string, want core.RunSource) time.Duration {
	b := sb.b
	got := map[string]*core.RunResult{}
	srcs := map[string]core.RunSource{}
	order := shuffled(sb.cells, b.rng)
	id := b.tr.begin("session."+phase, 0, 0)
	start := time.Now()
	for _, c := range order {
		res, src, err := s.RunSpecTracked(c.spec)
		if err != nil {
			b.t.op(phase+" "+c.key(), err)
			continue
		}
		got[c.key()], srcs[c.key()] = res, src
	}
	d := time.Since(start)
	b.tr.end(id)
	for _, c := range order {
		res, ok := got[c.key()]
		if !ok {
			continue // already counted as failed
		}
		var err error
		if srcs[c.key()] != want {
			err = fmt.Errorf("served from %s, want %s", srcs[c.key()], want)
		} else if data, jerr := json.Marshal(res); jerr != nil || !bytes.Equal(data, sb.coldJSON[c.key()]) {
			err = fmt.Errorf("result differs from the cold batch's")
		}
		b.t.op(phase+" "+c.key(), err)
	}
	return d
}

// report sets the end-to-end metrics of the rounds.
func (sb *sessionBatches) report() error {
	b := sb.b
	// A cold batch's time is the sum of its cells' median times: a slow
	// spell of the host in one cell does not carry over to the others.
	var cold, raw float64
	for _, c := range sb.cells {
		cold += median(sb.cold[c.key()])
		raw += median(sb.coldRaw[c.key()])
	}
	logf("%d rounds: cold batch %.3fs scaled, %.3fs wall (sums of cell medians); %d thread-instructions per batch",
		sb.rounds, cold, raw, sb.instrs)
	b.end2end.set("cold_batch_s", cold, "s")
	b.end2end.set("sim_minstr_per_s", float64(sb.instrs)/1e6/cold, "Minstr/s")
	b.end2end.set("peak_rss_mb", median(sb.peaks), "MB")
	return b.batchMetrics(sb.warm, sb.replay)
}

// batchMetrics sets the warm and replay batch latencies.
func (b *bench) batchMetrics(warm, replay []float64) error {
	p95, err := percentile(warm, 95)
	if err != nil {
		return fmt.Errorf("warm batches: %w", err)
	}
	b.end2end.set("warm_batch_ms_p50", median(warm), "ms")
	b.end2end.set("warm_batch_ms_p95", p95, "ms")
	b.end2end.set("replay_batch_ms_p50", median(replay), "ms")
	logf("%d warm batches, %d replay batches", len(warm), len(replay))
	return nil
}

// summaryErr checks a batch's cache accounting: a cold batch simulates
// every cell, a warm one serves every cell from the memo, a replay serves
// every cell from disk.
func summaryErr(phase string, got, want core.CacheStats) error {
	if got != want {
		return fmt.Errorf("%s batch summary %+v, want %+v", phase, got, want)
	}
	return nil
}

// resetPeakRSS returns the free heap to the operating system and restarts
// the kernel's peak-RSS (VmHWM) record of this process, so each round
// reports its own peak, not memory an earlier round left unreturned.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		logf("peak RSS not reset: %v", err)
	}
}

// passLayers sets the per-layer metrics of a traced run's layer-call pass.
func (b *bench) passLayers(p *pipeline, cells []cell, stats map[string]*sim.Stats,
	executed map[string]int64, shares map[string]float64, rt0, rt1 runtimeCounters) {
	self := selfTimes(b.tr.spans)
	secs := func(name string) float64 { return self[name].Seconds() }
	var refInstrs, cycles uint64
	var ticked int64
	seen := map[string]bool{}
	for _, c := range cells {
		st := stats[c.key()]
		cycles += uint64(st.Cycles)
		ticked += executed[c.key()]
		if !seen[c.abbr] {
			// The functional reference executes each workload's
			// thread-instructions once per pass.
			seen[c.abbr] = true
			refInstrs += st.ThreadInstrs
		}
	}
	b.layers.set("exec.ref_s", secs("exec.ref"), "s")
	b.layers.set("exec.ref_minstr_per_s", float64(refInstrs)/1e6/secs("exec.ref"), "Minstr/s")
	b.layers.set("sim.new_s", secs("sim.new"), "s")
	b.layers.set("sim.run_s", secs("sim.run"), "s")
	b.layers.set("sim.ns_per_ticked_cycle", secs("sim.run")*1e9/float64(ticked), "ns")
	b.layers.set("sim.cycles_ticked", float64(ticked), "cycles")
	b.layers.set("sim.cycles_skipped", float64(int64(cycles)-ticked), "cycles")
	b.layers.set("sim.skip_frac", float64(int64(cycles)-ticked)/float64(cycles), "frac")
	b.layers.set("mem.verify_s", secs("mem.verify"), "s")
	b.layers.set("workloads.clone_s", secs("workloads.clone"), "s")
	for _, g := range profileGroups {
		b.layers.set(g+".self_frac", shares[g], "frac")
	}
	b.layers.set("runtime.allocs_per_kcycle", float64(p.allocs)/(float64(cycles)/1000), "allocs/kcycle")
	b.layers.set("runtime.gc_cpu_frac", (rt1.gcCPU-rt0.gcCPU)/(rt1.busyCPU-rt0.busyCPU), "frac")
	b.layers.set("runtime.heap_peak_mb", float64(p.heapPeak)/(1<<20), "MB")
}
