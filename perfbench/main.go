// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed time, checks every output, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as the last line of standard
// output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// Build and run it through run.sh from the repository root; see README.md
// for the workloads, the metrics, and the layer each metric belongs to.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the metrics of one run by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// bench holds what every workload's run needs.
type bench struct {
	workload string
	seed     int64
	rng      *rand.Rand
	seconds  time.Duration
	deadline time.Time // end of the timed phase
	tr       *tracer   // nil unless -trace 1
	work     string    // scratch directory for this run
	tomserve string    // tomserve binary (serve-sweep)
	t        tally
	end2end  metricSet
	layers   metricSet
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

func main() {
	workload := flag.String("workload", "", "workload: fig9-compute, fig9-memory, or serve-sweep")
	seed := flag.Int64("seed", 1, "seed ordering the cells and requests and sampling the driver streams")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	work := flag.String("work", ".bench_build", "directory for the run's scratch files")
	tomserve := flag.String("tomserve", "", "tomserve binary (serve-sweep)")
	flag.Parse()

	b := &bench{
		workload: *workload,
		seed:     *seed,
		rng:      rand.New(rand.NewSource(*seed)),
		seconds:  time.Duration(*seconds) * time.Second,
		tomserve: *tomserve,
		end2end:  metricSet{},
		layers:   metricSet{},
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	runtime.LockOSThread() // see pin.go
	if err := b.run(*work); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	res := result{Correct: b.t.failed == 0, Attempted: b.t.attempted, Failed: b.t.failed, Metrics: b.end2end}
	if b.tr != nil {
		res.Metrics = b.layers
	}
	fmt.Printf("failed_frac %g (%d of %d operations)\n", b.t.failedFrac(), b.t.failed, b.t.attempted)
	out, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func (b *bench) run(work string) error {
	if b.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	b.work = filepath.Join(work, fmt.Sprintf("run-%s-%d-%d", b.workload, b.seed, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.work)
	var err error
	switch b.workload {
	case "fig9-compute", "fig9-memory":
		err = b.fig9()
	case "serve-sweep":
		err = b.serve()
	default:
		return fmt.Errorf("unknown -workload %q (want fig9-compute, fig9-memory, or serve-sweep)", b.workload)
	}
	if err != nil {
		return err
	}
	if b.tr != nil {
		path := filepath.Join(work, fmt.Sprintf("spans-%s-%d.json", b.workload, b.seed))
		if err := b.tr.write(path); err != nil {
			return err
		}
		logf("%d spans written to %s", len(b.tr.spans), path)
	}
	return nil
}

// startTimed marks the start of the timed phase.
func (b *bench) startTimed() { b.deadline = time.Now().Add(b.seconds) }

//go:embed fingerprints.json
var expectedFingerprints []byte

// checkFingerprint prints the run set's model fingerprint and compares it
// with the committed one and with every earlier run in this checkout. A
// difference from the committed value is reported as "model changed": the
// simulated statistics moved. A difference from an earlier run of the same
// build is a failure: the model is not deterministic, or tracing changed it.
func (b *bench) checkFingerprint(fp fingerprint, dir string) {
	fmt.Printf("fingerprint %s stats=%s loop=%s\n", b.workload, fp.Stats, fp.Loop)
	var want map[string]fingerprint
	if err := json.Unmarshal(expectedFingerprints, &want); err != nil {
		b.t.op("fingerprint", fmt.Errorf("fingerprints.json: %w", err))
		return
	}
	if w, ok := want[b.workload]; !ok || w.Stats != fp.Stats || (fp.Loop != "" && w.Loop != fp.Loop) {
		fmt.Printf("model changed: %s committed stats=%s loop=%s\n", b.workload, w.Stats, w.Loop)
	} else {
		fmt.Printf("model unchanged: %s\n", b.workload)
	}
	path := filepath.Join(dir, "fingerprint-"+b.workload+".json")
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		data, err = json.Marshal(fp)
		if err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
		b.t.op("fingerprint record", err)
		return
	}
	var prev fingerprint
	if err == nil {
		err = json.Unmarshal(data, &prev)
	}
	if err == nil && (prev.Stats != fp.Stats || (fp.Loop != "" && prev.Loop != "" && prev.Loop != fp.Loop)) {
		err = fmt.Errorf("stats=%s loop=%s differs from an earlier run's stats=%s loop=%s", fp.Stats, fp.Loop, prev.Stats, prev.Loop)
	}
	if err == nil && prev.Loop == "" && fp.Loop != "" {
		// Runs that see only served results record no loop fingerprint;
		// the first run that does completes the record.
		if data, err = json.Marshal(fp); err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
	}
	b.t.op("fingerprint", err)
}
