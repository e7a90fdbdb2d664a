package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one cell share Group; a
// span's Parent is the span that made the call (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Group  int           `json:"group"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per layer call.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, group int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name, Start: time.Since(t.epoch)})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.epoch)
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, group int, fn func()) {
	id := t.begin(name, parent, group)
	fn()
	t.end(id)
}

// selfTimes sums, per span name, each span's self time: its duration minus
// the part of its interval that its children cover (overlapping children
// count once).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped to s.
func covered(s span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, curEnd := s.Start, s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			total += curEnd - cur
			cur = lo
		}
		curEnd = max(curEnd, hi)
	}
	return total + curEnd - cur
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// The CPU profile of a traced run is folded into these package groups. Time
// inside System.Run cannot be spanned from outside the simulator, so the
// *.self_frac metrics come from here.
var profileGroups = []string{"exec", "sim", "cache", "dram", "link", "mem", "runtime", "other"}

// groupOf maps a profiled function symbol to its package group.
func groupOf(sym string) string {
	if i := strings.IndexAny(sym, "([ "); i >= 0 {
		sym = sym[:i]
	}
	pkg := sym
	slash := strings.LastIndex(sym, "/")
	if dot := strings.Index(sym[slash+1:], "."); dot >= 0 {
		pkg = sym[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, g := range profileGroups {
			if g == name {
				return g
			}
		}
	}
	return "other"
}

// topRow matches one row of `go tool pprof -top -unit=ms`: flat, flat%,
// sum%, cum, cum%, symbol.
var topRow = regexp.MustCompile(`^\s*([0-9.]+)ms\s+[0-9.]+%\s+[0-9.]+%\s+[0-9.]+ms\s+[0-9.]+%\s+(.+)$`)

// foldTop folds pprof -top output into each group's share of self time. The
// shares sum to 1 whenever any sample was taken.
func foldTop(top string) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(strings.NewReader(top))
	for sc.Scan() {
		m := topRow.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return nil, err
		}
		flat[groupOf(strings.TrimSpace(m[2]))] += v
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	out := map[string]float64{}
	for _, g := range profileGroups {
		out[g] = flat[g] / total
	}
	return out, nil
}

// cpuProfile profiles the process from start until stop, which returns the
// per-group self-time shares.
type cpuProfile struct {
	path string
	f    *os.File
}

func startProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", p.path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(out))
}

// runtimeCounters reads the Go runtime figures the traced run reports.
type runtimeCounters struct {
	allocs    uint64  // cumulative heap objects allocated
	gcCPU     float64 // cumulative GC CPU seconds
	busyCPU   float64 // cumulative CPU seconds the process used
	heapBytes uint64  // live + unswept heap objects now
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func readRuntime() runtimeCounters {
	metrics.Read(runtimeSamples)
	return runtimeCounters{
		allocs:    runtimeSamples[0].Value.Uint64(),
		gcCPU:     runtimeSamples[1].Value.Float64(),
		busyCPU:   runtimeSamples[2].Value.Float64() - runtimeSamples[3].Value.Float64(),
		heapBytes: runtimeSamples[4].Value.Uint64(),
	}
}
