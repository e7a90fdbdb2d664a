package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	// Nearest rank: ceil(0.95·200) = 190, leaving exactly ten beyond.
	got, err := percentile(xs, 95)
	if err != nil || got != 190 {
		t.Fatalf("p95 of 1..200 = %g, %v; want 190", got, err)
	}
	if _, err := percentile(xs[:199], 95); err == nil {
		t.Error("p95 of 199 samples leaves 9 beyond it but was accepted")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples was accepted")
	}
}

func TestFailedFrac(t *testing.T) {
	var tl tally
	if tl.failedFrac() != 0 {
		t.Error("failed_frac of nothing attempted is not 0")
	}
	tl.op("a")
	tl.op("b", nil, nil)
	tl.op("c", errors.New("x"), errors.New("y")) // one operation fails once
	tl.op("d", nil, errors.New("z"))
	if tl.attempted != 4 || tl.failed != 2 || tl.failedFrac() != 0.5 {
		t.Errorf("attempted %d failed %d frac %g, want 4 2 0.5", tl.attempted, tl.failed, tl.failedFrac())
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "cell", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "sim.run", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "mem.verify", Start: ms(30), End: ms(50)}, // overlaps sim.run: 40..50 new
		{ID: 4, Parent: 1, Name: "sim.new", Start: ms(90), End: ms(120)},   // clipped to the parent: 90..100
		{ID: 5, Parent: 2, Name: "inner", Start: ms(15), End: ms(20)},      // grandchild: not cell's child
		{ID: 6, Name: "cell", Start: ms(200), End: ms(210)},                // a second cell, no children
		{ID: 7, Parent: 6, Name: "sim.run", Start: ms(220), End: ms(230)},  // outside its parent
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"cell":       ms(100-50) + ms(10), // covered 10..50 and 90..100
		"sim.run":    ms(30-5) + ms(10),
		"mem.verify": ms(20),
		"sim.new":    ms(30),
		"inner":      ms(5),
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}
}

func TestGroupOf(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/exec.(*Warp).Step":             "exec",
		"repro/internal/sim.(*System).stepCycle":       "sim",
		"repro/internal/dram.(*Vault).Tick (inline)":   "dram",
		"repro/internal/link.(*Link).account":          "link",
		"repro/internal/compiler.Analyze":              "other",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"runtime/internal/atomic.Load":                 "runtime",
		"sync.(*Mutex).Lock":                           "other",
		"main.main":                                    "other",
		"[unknown]":                                    "other",
		"slices.SortFunc[go.shape.[]repro/internal/x]": "other",
	} {
		if got := groupOf(sym); got != want {
			t.Errorf("groupOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestFoldTopSharesSumToOne(t *testing.T) {
	top := `File: perfbench
Type: cpu
Showing nodes accounting for 2000ms, 100% of 2000ms total
      flat  flat%   sum%        cum   cum%
    1000ms 50.00% 50.00%     1200ms 60.00%  repro/internal/exec.(*Warp).Step
     500ms 25.00% 75.00%      500ms 25.00%  runtime.mallocgc
     300ms 15.00% 90.00%     1800ms 90.00%  repro/internal/sim.(*System).Run
     150ms  7.50% 97.50%      150ms  7.50%  repro/internal/dram.(*Vault).Tick (inline)
      50ms  2.50%   100%       50ms  2.50%  encoding/json.Marshal
       0ms     0%   100%     2000ms   100%  main.main
`
	shares, err := foldTop(top)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, g := range profileGroups {
		sum += shares[g]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
	for g, want := range map[string]float64{"exec": 0.5, "runtime": 0.25, "sim": 0.15, "dram": 0.075, "other": 0.025, "link": 0} {
		if math.Abs(shares[g]-want) > 1e-12 {
			t.Errorf("share(%s) = %g, want %g", g, shares[g], want)
		}
	}
	if _, err := foldTop("no rows here"); err == nil {
		t.Error("a profile with no samples was folded")
	}
}

func TestScaledToReferenceHost(t *testing.T) {
	// A sample between two reference runs at the nominal time is unchanged;
	// at twice the nominal time the host was half as fast.
	if got := scaled(2*time.Second, refNominal, refNominal); got != 2*time.Second {
		t.Errorf("scaled at nominal reference = %v, want 2s", got)
	}
	if got := scaled(2*time.Second, 2*refNominal, 2*refNominal); got != time.Second {
		t.Errorf("scaled at twice the nominal reference = %v, want 1s", got)
	}
	// The two reference times beside a sample count by their mean.
	if got := scaled(time.Second, refNominal/2, 3*refNominal/2); got != time.Second {
		t.Errorf("scaled by references averaging the nominal = %v, want 1s", got)
	}
	if got := pairScaled(100*time.Microsecond, 8, 8*unitNominal); got != 100*time.Microsecond {
		t.Errorf("pairScaled at nominal units = %v, want 100µs", got)
	}
	if got := pairScaled(100*time.Microsecond, 8, 16*unitNominal); got != 50*time.Microsecond {
		t.Errorf("pairScaled at half-speed units = %v, want 50µs", got)
	}
}
