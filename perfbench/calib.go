package main

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// The shared host this benchmark was tuned on changes speed by up to 2×,
// for seconds or for minutes, through memory-system contention the guest
// cannot see: a pure arithmetic loop hardly moves while the simulator and
// any memory-heavy code slow down together. No run length averages that
// away, so every timed figure is scaled by a reference measured beside it.
//
// The reference is fixed work from the Go standard library only — JSON
// decoding and encoding, DEFLATE, SHA-256, sorting and map updates over
// inputs built once from a fixed seed, then small formatting, hashing and
// JSON units — so no change to this repository can make it faster or
// slower. Each timed sample is multiplied by refNominal ÷ (the reference
// time beside it): the figure reads as the time the sample would have taken
// on a host where the reference takes refNominal. Raw wall times go to
// standard error.

// refNominal is the reference work's time on a quiet host of the kind the
// benchmark was tuned on (a two-vCPU Intel Xeon virtual machine).
const refNominal = 80 * time.Millisecond

// refWorkUnits is how many reference units (see refUnits) the reference
// work ends with, about half its time: the interpreter-bound simulations
// track those better than the bulk part, the memory-bound ones the bulk.
const refWorkUnits = 4000

// refInput is the JSON document the reference work decodes, re-encodes,
// compresses and hashes; refInts is the data it sorts and counts.
var refInput, refInts = func() ([]byte, []int) {
	r := rand.New(rand.NewSource(7))
	type record struct {
		ID    int       `json:"id"`
		Name  string    `json:"name"`
		Point []float64 `json:"point"`
	}
	recs := make([]record, 2000)
	for i := range recs {
		recs[i] = record{r.Int(), fmt.Sprint(r.Int63()), []float64{r.Float64(), r.Float64()}}
	}
	data, err := json.Marshal(recs)
	if err != nil {
		panic(err)
	}
	ints := make([]int, 200_000)
	for i := range ints {
		ints[i] = r.Int()
	}
	return data, ints
}()

var refSink int

// refTime runs the reference work once, on the calling thread, and returns
// its wall time.
func refTime() time.Duration { return refTimeOn(1) }

// refTimeOn runs n copies of the reference work at once and returns the
// wall time until the last one ends: the reference for a sample that keeps
// n CPUs busy. The collector is off meanwhile, so the size of the
// benchmark's heap at the time does not change the reference's cost. The
// garbage is collected before refTimeOn returns, untimed, so the samples
// that follow do not pay for it.
func refTimeOn(n int) time.Duration {
	gcPercent := debug.SetGCPercent(-1)
	defer runtime.GC()
	defer debug.SetGCPercent(gcPercent)
	sinks := make([]int, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); sinks[i] = refWork() }()
	}
	sinks[0] = refWork()
	wg.Wait()
	d := time.Since(start)
	for _, v := range sinks {
		refSink += v
	}
	return d
}

// refWork is one copy of the reference work: the bulk part, then
// refWorkUnits reference units.
func refWork() int {
	var doc []map[string]any
	if err := json.Unmarshal(refInput, &doc); err != nil {
		panic(err)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	w, _ := flate.NewWriter(&buf, 5)
	w.Write(out)
	w.Close()
	sum := sha256.Sum256(out)
	xs := append([]int(nil), refInts...)
	sort.Ints(xs)
	counts := map[int]int{}
	for _, x := range xs[:100_000] {
		counts[x%50_000]++
	}
	return buf.Len() + int(sum[0]) + len(counts) + unitWork(refWorkUnits)
}

// A batch served from a cache is short (tens of microseconds to a few
// milliseconds) and branchy, and the host's slow spells change its speed by
// a different factor than the bulk work's, for tens of milliseconds at a
// time. So each batch sample is paired with reference units run right
// after it: small formatting, hashing, JSON and map work, the same kind of
// work a cache lookup does, again from the standard library only.

// unitNominal is one reference unit's time on the reference host.
const unitNominal = 10 * time.Microsecond

// refRecord is the fixed value a reference unit formats, hashes and
// round-trips through JSON.
type refRecord struct {
	Name    string
	Scale   float64
	Stacks  int
	Ways    []int
	Enabled bool
	Policy  string
	Params  map[string]float64
}

var refValue = refRecord{"reference", 0.25, 8, []int{4, 8, 16}, true, "ctrl-tmap",
	map[string]float64{"window": 128, "latency": 12.5}}

// refUnits runs n reference units and returns their wall time.
func refUnits(n int) time.Duration {
	start := time.Now()
	unitWork(n)
	return time.Since(start)
}

// unitWork is n reference units.
func unitWork(n int) int {
	index := map[string]int{}
	for i := range n {
		h := sha256.New()
		fmt.Fprintf(h, "unit=%d;%+v", i%16, refValue)
		key := hex.EncodeToString(h.Sum(nil))
		data, err := json.Marshal(refValue)
		if err != nil {
			panic(err)
		}
		var back refRecord
		if err := json.Unmarshal(data, &back); err != nil {
			panic(err)
		}
		index[key] += back.Stacks
	}
	return len(index)
}

// pairScaled converts a short sample d, followed at once by n reference
// units that took r, to the reference host's time.
func pairScaled(d time.Duration, n int, r time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(time.Duration(n)*unitNominal) / float64(r))
}

// scaled converts a sample timed between two reference runs to the
// reference host's time.
func scaled(d, refBefore, refAfter time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(2*refNominal) / float64(refBefore+refAfter))
}
