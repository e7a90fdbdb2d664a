package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// serveScale is the problem scale of the serve-sweep matrix: small, so the
// cold batch is short and the workload is carried by the caches, digesting,
// JSON and HTTP rather than by the interpreter.
const serveScale = 0.03

// serveConfigs is the Fig. 9 configuration axis: the baseline and the four
// offload × mapping policies, over all ten workloads (50 cells).
var serveConfigs = []core.ConfigName{core.CfgBaseline, core.CfgNoCtrlBmap, core.CfgNoCtrlTmap, core.CfgCtrlBmap, core.CfgCtrlTmap}

const (
	coldBatchCells  = 10 // cells per batch of a round's cold matrix
	warmPerReplay   = 15 // warm batches between two server restarts
	replaysPerRound = 8  // server restarts after each cold matrix

	// Reference units paired with each spawn and batch sample: about the
	// sample's own time on the reference host.
	spawnUnits       = 700
	serveWarmUnits   = 500
	serveReplayUnits = 800
)

// server is one spawned tomserve process.
type server struct {
	cmd  *exec.Cmd
	addr string
}

// spawn starts tomserve over dir and waits until /healthz answers. The
// server dies with the benchmark if the benchmark dies first.
func (b *bench) spawn(dir string) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(b.tomserve, "-addr", addr, "-cache-dir", dir,
		"-workers", strconv.Itoa(runtime.NumCPU()), "-scale", strconv.FormatFloat(serveScale, 'g', -1, 64))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logFile, err := os.OpenFile(filepath.Join(b.work, "tomserve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logFile.Close()
	cmd.Stderr = logFile
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start tomserve: %w", err)
	}
	s := &server{cmd: cmd, addr: addr}
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("tomserve on %s not healthy after 30s: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop terminates the server and waits for it to exit.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

type runReply struct {
	Workload string          `json:"workload"`
	Config   string          `json:"config"`
	Source   string          `json:"source"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
}

// cacheSummary is a batch reply's per-batch cache accounting.
type cacheSummary struct {
	Hits, Misses, Simulated, Errors int
}

type batchReply struct {
	Results []runReply   `json:"results"`
	Cache   cacheSummary `json:"cache"`
}

// post sends one batch of the cells, in a seeded order if shuffle is set,
// over the client's single connection and returns the decoded reply, the
// response size, and the latency.
func (b *bench) post(client *http.Client, s *server, cells []cell, shuffle bool) (*batchReply, int, time.Duration, error) {
	type run struct {
		Workload string  `json:"workload"`
		Config   string  `json:"config"`
		Scale    float64 `json:"scale"`
	}
	var req struct {
		Runs []run `json:"runs"`
	}
	if shuffle {
		cells = shuffled(cells, b.rng)
	}
	for _, c := range cells {
		req.Runs = append(req.Runs, run{c.abbr, string(c.spec.Config), serveScale})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	resp, err := client.Post("http://"+s.addr+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return nil, 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, 0, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var reply batchReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return nil, 0, 0, err
	}
	return &reply, len(data), d, nil
}

// check validates one batch reply slot by slot against the expected cache
// source and (after the cold batch) the cold batch's result bytes, and the
// batch summary against the phase: simulated=N cold, hits=N after.
func (b *bench) check(phase string, reply *batchReply, err error, cells []cell, source string, cold map[string]json.RawMessage) {
	if err != nil {
		for _, c := range cells {
			b.t.op(phase+" "+c.key(), err)
		}
		return
	}
	n := len(cells)
	want := cacheSummary{Hits: n}
	if source == string(core.SourceSimulated) {
		want = cacheSummary{Misses: n, Simulated: n}
	}
	var serr error
	if reply.Cache != want {
		serr = fmt.Errorf("batch summary %+v, want %+v", reply.Cache, want)
	}
	b.t.op(phase+" summary", serr)
	got := map[string]runReply{}
	for _, r := range reply.Results {
		got[r.Workload+"/"+r.Config] = r
	}
	for _, c := range cells {
		r, ok := got[c.key()]
		var err error
		switch {
		case !ok:
			err = fmt.Errorf("no slot in the reply")
		case r.Error != "":
			err = fmt.Errorf("slot error: %s", r.Error)
		case r.Source != source:
			err = fmt.Errorf("served from %q, want %q", r.Source, source)
		case cold != nil && !bytes.Equal(r.Result, cold[c.key()]):
			err = fmt.Errorf("result differs from the cold batch's")
		}
		b.t.op(phase+" "+c.key(), err)
	}
}

// serve runs serve-sweep: one client, closed loop, one connection, against
// a spawned tomserve. The timed phase is rounds of a cold batch of the
// 50-cell matrix on a fresh server over a fresh directory (every cell
// simulated, every record written), then restarts over the same directory,
// each followed by a replay batch that the new server reads from disk and
// by warm batches from the memo that replay filled. Rounds go on until
// --seconds is up. Every timed figure is scaled by the reference work run
// beside it (calib.go), and each metric is the median over the run.
func (b *bench) serve() error {
	if b.tomserve == "" {
		return fmt.Errorf("serve-sweep needs -tomserve")
	}
	cells, err := makeCells(core.Abbrs(), serveConfigs, serveScale)
	if err != nil {
		return err
	}
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	var setups, coldTimes, coldRaw, peaks, warm, replay, sizes []float64
	var summed struct{ Simulated, WarmHits, ReplayHits int } // from the batch summaries
	var cold map[string]json.RawMessage                      // the first cold batch's results
	results := map[string]*core.RunResult{}
	stats := map[string]*sim.Stats{}
	var instrs uint64
	var s *server
	// restart stops the server in hand, if any, and spawns one over dir,
	// timing the spawn as a set-up sample.
	restart := func(dir string) error {
		if s != nil {
			s.stop()
			transport.CloseIdleConnections()
		}
		var d time.Duration
		if s, d, err = b.spawn(dir); err != nil {
			return err
		}
		setups = append(setups, pairScaled(d, spawnUnits, refUnits(spawnUnits)).Seconds())
		return nil
	}
	defer func() {
		if s != nil {
			s.stop()
		}
	}()

	b.startTimed()
	for round := 0; round < minRounds || time.Now().Before(b.deadline); round++ {
		dir := filepath.Join(b.work, fmt.Sprintf("cache%d", round))
		if err := restart(dir); err != nil {
			return err
		}
		// The cold matrix goes in matrix order, so that the workers split it
		// the same way on every run, as batches of coldBatchCells cells,
		// each between two runs of the reference work: a whole matrix takes
		// seconds, and the host changes speed within that. The batches keep
		// every worker busy, so the reference runs on every CPU too.
		first := cold == nil
		replies := map[string]json.RawMessage{}
		var coldTime, raw time.Duration
		ref := refTimeOn(runtime.NumCPU())
		for i := 0; i < len(cells); i += coldBatchCells {
			batch := cells[i:min(i+coldBatchCells, len(cells))]
			id := b.tr.begin("tomserve.cold", 0, 0)
			reply, _, d, err := b.post(client, s, batch, false)
			b.tr.end(id)
			next := refTimeOn(runtime.NumCPU())
			b.check("cold", reply, err, batch, string(core.SourceSimulated), cold)
			if err != nil {
				return fmt.Errorf("cold batch: %w", err)
			}
			coldTime, raw, ref = coldTime+scaled(d, ref, next), raw+d, next
			summed.Simulated += reply.Cache.Simulated
			for _, r := range reply.Results {
				replies[r.Workload+"/"+r.Config] = r.Result
			}
		}
		coldTimes = append(coldTimes, coldTime.Seconds())
		coldRaw = append(coldRaw, raw.Seconds())
		if first {
			cold = replies
			for k, data := range cold {
				res := &core.RunResult{}
				if err := json.Unmarshal(data, res); err != nil {
					return fmt.Errorf("decode %s: %w", k, err)
				}
				results[k], stats[k] = res, &res.Stats
				instrs += res.Stats.ThreadInstrs
			}
			for _, c := range cells {
				if st, ok := stats[c.key()]; ok {
					b.t.op(c.key()+" invariants", invariants(c, st, false))
				}
			}
		}

		// From here the client and the servers share one CPU, so that a
		// batch and the reference units after it run on the same CPU. Each
		// restart over the same directory is followed by a replay batch,
		// which the new server reads from disk and which warms its memo, and
		// by warm batches from that memo.
		pinFastestCPU()
		for range replaysPerRound {
			if err := restart(dir); err != nil {
				return err
			}
			id := b.tr.begin("tomserve.replay", 0, 0)
			reply, _, d, err := b.post(client, s, cells, true)
			b.tr.end(id)
			replay = append(replay, ms(pairScaled(d, serveReplayUnits, refUnits(serveReplayUnits))))
			b.check("replay", reply, err, cells, string(core.SourceDisk), cold)
			if reply != nil {
				summed.ReplayHits += reply.Cache.Hits
			}
			for range warmPerReplay {
				id := b.tr.begin("tomserve.warm", 0, 0)
				reply, size, d, err := b.post(client, s, cells, true)
				b.tr.end(id)
				warm = append(warm, ms(pairScaled(d, serveWarmUnits, refUnits(serveWarmUnits))))
				b.check("warm", reply, err, cells, string(core.SourceMemo), cold)
				sizes = append(sizes, float64(size))
				if reply != nil {
					summed.WarmHits += reply.Cache.Hits
				}
			}
			// The serving path's peak: a server that replayed the matrix
			// from disk and served it from its memo.
			peaks = append(peaks, b.peakRSSMB(strconv.Itoa(s.cmd.Process.Pid)))
		}
		unpin()
	}
	s.stop()
	s = nil
	logf("%d rounds: median cold batch %.3fs scaled, %.3fs wall", len(coldTimes), median(coldTimes), median(coldRaw))
	b.end2end.set("setup_s", median(setups), "s")
	b.end2end.set("cold_batch_s", median(coldTimes), "s")
	b.end2end.set("sim_minstr_per_s", float64(instrs)/1e6/median(coldTimes), "Minstr/s")
	b.end2end.set("peak_rss_mb", median(peaks), "MB")
	if err := b.batchMetrics(warm, replay); err != nil {
		return err
	}

	fp, err := fingerprintOf(cells, stats, nil)
	if err != nil {
		b.t.op("fingerprint", err)
	} else if b.tr == nil {
		b.checkFingerprint(fp, filepath.Dir(b.work))
	}
	if b.tr == nil {
		return nil
	}
	b.layers.set("tomserve.response_bytes", median(sizes), "bytes")
	b.layers.set("core.simulated", float64(summed.Simulated)/float64(len(coldTimes)), "count")
	b.layers.set("core.memo_hits", float64(summed.WarmHits)/float64(len(warm)), "count")
	b.layers.set("core.disk_hits", float64(summed.ReplayHits)/float64(len(replay)), "count")
	if err := b.coreLayers(cells, results); err != nil {
		return err
	}
	modelMetrics(cells, stats, b.layers)
	return b.serveInProcess(cells, fp)
}

// serveInProcess is the traced run's second half: it runs the same 50
// cells through the layer calls in this process, under spans and a CPU
// profile, so serve-sweep reports the simulator layers too, and checks that
// the server's verified statistics equal the in-process ones.
func (b *bench) serveInProcess(cells []cell, served fingerprint) error {
	abbrs := core.Abbrs()
	setup := b.tr.begin("setup", 0, 0)
	insts, d, err := buildInstances(abbrs, serveScale, b.tr, setup)
	b.tr.end(setup)
	if err != nil {
		return err
	}
	b.layers.set("workloads.build_s", d.Seconds(), "s")
	p := &pipeline{tr: b.tr, insts: insts}
	prof, err := startProfile(filepath.Join(b.work, "cpu.prof"))
	if err != nil {
		return err
	}
	rt0 := readRuntime()
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
	}
	fp, err := fingerprintOf(cells, stats, executed)
	if err == nil && fp.Stats != served.Stats {
		err = fmt.Errorf("in-process statistics %s differ from the server's %s", fp.Stats, served.Stats)
	}
	b.t.op("served vs in-process statistics", err)
	if err == nil {
		b.checkFingerprint(fp, filepath.Dir(b.work))
	}
	b.passLayers(p, cells, stats, executed, shares, rt0, rt1)
	return b.drivers(insts, abbrs)
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB. A failed
// read counts as a failed operation.
func (b *bench) peakRSSMB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err == nil {
		err = fmt.Errorf("no VmHWM line")
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if kb, err = strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					b.t.op("read peak RSS")
					return kb / 1024
				}
				break
			}
		}
	}
	b.t.op("read peak RSS", err)
	return 0
}

// coreLayers times the core calls the serving path makes per run, each
// under its own span: RunSpec.Digest, and DiskCache Put and Get of every
// cold result (into a cache of the benchmark's own).
func (b *bench) coreLayers(cells []cell, results map[string]*core.RunResult) error {
	dc := core.NewDiskCache(filepath.Join(b.work, "layer-cache"), "")
	timed := func(name string, fn func()) float64 {
		id := b.tr.begin(name, 0, 0)
		start := time.Now()
		fn()
		d := time.Since(start)
		b.tr.end(id)
		return float64(d) / float64(time.Microsecond)
	}
	var digests, puts, gets []float64
	for range 5 {
		for _, c := range cells {
			var digest string
			digests = append(digests, timed("core.digest", func() { digest = c.spec.Digest() }))
			res := results[c.key()]
			var err error
			puts = append(puts, timed("core.disk_put", func() { err = dc.Put(c.spec, res) }))
			if err != nil {
				return err
			}
			var got *core.RunResult
			var ok bool
			gets = append(gets, timed("core.disk_get", func() { got, ok, err = dc.Get(digest) }))
			if err == nil && (!ok || got.Stats.Cycles != res.Stats.Cycles) {
				err = fmt.Errorf("record %s did not replay", c.key())
			}
			b.t.op("disk cache "+c.key(), err)
		}
	}
	b.layers.set("core.digest_us", median(digests), "us")
	b.layers.set("core.disk_put_us", median(puts), "us")
	b.layers.set("core.disk_get_us", median(gets), "us")
	return nil
}
