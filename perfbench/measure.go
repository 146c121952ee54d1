package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// sizes fixes the input sizes of every workload. The benchmark always runs
// paperSizes; the tests shrink them to keep smoke runs fast.
type sizes struct {
	fig11N    int // tasks per sim.Run (the paper's n = 10⁴)
	chaosMaxM int // chaos cluster-size ceiling (make chaos: 16)
	chaosMaxN int // chaos task-count ceiling (make chaos: 500)
	stackN    int // tasks per full-stack run
}

var paperSizes = sizes{fig11N: 10000, chaosMaxM: 16, chaosMaxN: 500, stackN: 2500}

// bench is one seeded input family. The harness calls setup, then
// prepare, op and check for op indices 0, 1, 2, … until the time budget is
// spent. Op i runs the inputs of kind i mod roundOps, which derive from the
// seed and the kind alone, so every round repeats the same work and a run
// repeats exactly whatever its length.
type bench interface {
	// setup builds the first op's inputs and runs a warm-up through the same
	// calls as op; it is timed as setup_s.
	setup() error
	// prepare builds op i's inputs. Its CPU time counts toward throughput
	// and bytes_per_task but not toward the op's latency.
	prepare(i int, tr *tracer) error
	// op makes the timed calls into the program for op i.
	op(i int, tr *tracer) error
	// check verifies op i's outputs outside the timed region and, when d is
	// not nil, folds them into the output digest.
	check(i int, d *digest, tr *tracer) error
	// tasks is the number of simulated tasks op i processed.
	tasks(i int) int
	// roundOps is the number of op kinds, one pass over the workload's
	// input mix. The digest covers the first round, and every run completes
	// whole rounds.
	roundOps() int
}

// workloads builds each workload from the seed and the sizes.
var workloads = map[string]func(seed int64, sz sizes) bench{
	"fig11_paper":   func(seed int64, sz sizes) bench { return newFig11(seed, sz.fig11N) },
	"chaos_audited": func(seed int64, sz sizes) bench { return newChaosAudited(seed, sz.chaosMaxM, sz.chaosMaxN) },
	"stack_gray":    func(seed int64, sz sizes) bench { return newStackGray(seed, sz.stackN) },
}

// setupReps is how many times setup runs; setup_s is the median.
const setupReps = 5

// loopResult is what one measured loop observed. Op times are scaled CPU
// times (see measure) and exclude the GC, which runs between ops.
type loopResult struct {
	ops, failed int
	failures    []string    // one line per failed op of the first round
	latency     []float64   // unscaled op CPU ms of every op, in run order
	kindOp      [][]float64 // per kind: the scaled op ms of each repetition
	kindLoop    [][]float64 // per kind: the scaled prepare+op seconds of each repetition
	kindTasks   []int       // per kind: simulated tasks per op
	refs        []float64   // CPU seconds of each reference kernel run
	wallSec     float64     // wall seconds of the whole loop, checks and GC included
	tasks       int64
	allocBytes  uint64
	liveMB      []float64 // heap live after each op, its inputs and outputs still held
	digest      string
}

// heapSamples reads the cumulative heap allocation and the heap the last GC
// marked live from runtime/metrics, which unlike ReadMemStats does not stop
// the world.
type heapSamples [2]metrics.Sample

func newHeapSamples() *heapSamples {
	var h heapSamples
	h[0].Name = "/gc/heap/allocs:bytes"
	h[1].Name = "/gc/heap/live:bytes"
	return &h
}

func (h *heapSamples) read() (allocs, live uint64) {
	metrics.Read(h[:])
	return h[0].Value.Uint64(), h[1].Value.Uint64()
}

// cpuSeconds is the CPU time the process has used, user plus system, over
// all its threads. The kernel leaves out time the vCPU was not running this
// process (other processes, or steal by the hypervisor on a shared host),
// so unlike wall time it does not count other tenants' load. On one P this
// single-goroutine program's CPU time is the wall time a user of an
// otherwise idle machine waits.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// measure runs whole rounds of ops of w until budget wall seconds have
// passed. tr is nil on untraced loops.
//
// Each op kind runs once per round on the same inputs. After every
// refEvery CPU seconds of ops the reference kernel runs, and the ops of
// that block are scaled by refNominal over the kernel's CPU time, so that
// a slow phase of the host slows both sides of the ratio. The metrics take
// each kind's median over its repetitions. The GC is off inside ops and
// runs after each one, outside the timed region, so every repetition of a
// kind does the same work; what the GC costs shows in bytes_per_task.
func measure(w bench, budget float64, tr *tracer) loopResult {
	round := w.roundOps()
	res := loopResult{
		kindOp:    make([][]float64, round),
		kindLoop:  make([][]float64, round),
		kindTasks: make([]int, round),
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	hs := newHeapSamples()
	d := newDigest()
	var (
		block    []int // kinds of the ops since the last kernel run
		blockCPU float64
	)
	scaleBlock := func() {
		ref := refKernel()
		res.refs = append(res.refs, ref)
		// A block ends with its round at the latest, so each of its ops is
		// the latest repetition of its kind.
		for _, k := range block {
			last := len(res.kindOp[k]) - 1
			res.kindOp[k][last] *= refNominal / ref
			res.kindLoop[k][last] *= refNominal / ref
		}
		block, blockCPU = block[:0], 0
	}
	runtime.GC()
	start := time.Now()
	for i := 0; i < round || i%round != 0 || time.Since(start).Seconds() < budget; i++ {
		k := i % round
		tr.setOp(i)
		a0, _ := hs.read()
		t0 := cpuSeconds()
		err := w.prepare(i, tr)
		t1 := cpuSeconds()
		if err == nil {
			err = w.op(i, tr)
		}
		t2 := cpuSeconds()
		a1, _ := hs.read()
		runtime.GC()
		_, live := hs.read()
		res.ops++
		res.latency = append(res.latency, (t2-t1)*1e3)
		res.kindOp[k] = append(res.kindOp[k], (t2-t1)*1e3)
		res.kindLoop[k] = append(res.kindLoop[k], t2-t0)
		res.kindTasks[k] = w.tasks(i)
		res.tasks += int64(w.tasks(i))
		res.allocBytes += a1 - a0
		res.liveMB = append(res.liveMB, float64(live)/(1<<20))
		var dig *digest
		if i < round {
			dig = d
		}
		if err == nil {
			err = w.check(i, dig, tr)
		}
		if err != nil {
			res.failed++
			if dig != nil {
				res.failures = append(res.failures, err.Error())
				dig.str("failed " + err.Error())
			}
		}
		block = append(block, k)
		if blockCPU += t2 - t0; blockCPU >= refEvery || k == round-1 {
			scaleBlock()
		}
	}
	res.wallSec = time.Since(start).Seconds()
	res.digest = d.sum()
	return res
}

// opMs is each kind's median scaled op ms.
func (r loopResult) opMs() []float64 {
	ms := make([]float64, len(r.kindOp))
	for k, reps := range r.kindOp {
		ms[k] = median(reps)
	}
	return ms
}

// roundSeconds is the scaled seconds one round of prepare+op takes, each
// kind at its median.
func (r loopResult) roundSeconds() float64 {
	var s float64
	for _, reps := range r.kindLoop {
		s += median(reps)
	}
	return s
}

// timedSetup runs setup setupReps times, each followed by a reference
// kernel run that scales it as measure scales ops, and returns the median
// scaled seconds.
func timedSetup(w bench) (float64, error) {
	var secs []float64
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		t0 := cpuSeconds()
		if err := w.setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		t1 := cpuSeconds()
		secs = append(secs, (t1-t0)*refNominal/refKernel())
	}
	return median(secs), nil
}

// endToEnd is the untraced run: it reports every end-to-end metric.
func endToEnd(name string, seed int64, seconds float64, sz sizes, out io.Writer) (result, error) {
	w := workloads[name](seed, sz)
	setup, err := timedSetup(w)
	if err != nil {
		return result{}, err
	}
	res := measure(w, seconds, nil)
	report(out, name, seed, res)
	opMs := res.opMs()
	pct, tail := tailLatency(opMs)
	fmt.Fprintf(out, "op_ms_tail is p%g over the median of each of %d op kinds\n", pct, len(opMs))
	printDistribution(out, "scaled op ms, median per kind", opMs)
	printDistribution(out, "unscaled op CPU ms, every op", res.latency)
	printDistribution(out, "reference kernel CPU ms", scaled(res.refs, 1e3))
	printDistribution(out, "live heap MB", res.liveMB)
	var roundTasks int
	for _, n := range res.kindTasks {
		roundTasks += n
	}
	roundSec := res.roundSeconds()
	m := map[string]metric{
		"setup_s":        {setup, "s"},
		"op_ms_p50":      {median(opMs), "ms"},
		"op_ms_tail":     {tail, "ms"},
		"ops_per_s":      {float64(len(opMs)) / roundSec, "1/s"},
		"tasks_per_s":    {float64(roundTasks) / roundSec, "1/s"},
		"bytes_per_task": {float64(res.allocBytes) / float64(res.tasks), "B"},
		"live_heap_mb":   {median(res.liveMB), "MB"},
		"ok_ratio":       {float64(res.ops-res.failed) / float64(res.ops), "ratio"},
	}
	return result{Correct: correct(name, res), Attempted: res.ops, Failed: res.failed, Metrics: m}, nil
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// correct reports whether the run's outputs passed the checks that define a
// valid measurement. A chaos trial that the auditor flags is a failed op
// (counted in failed and ok_ratio): finding such trials is that workload's
// job, and the seed's engine has known failing trials. Every other check
// failure makes the run incorrect.
func correct(name string, res loopResult) bool {
	return name == "chaos_audited" || res.failed == 0
}

// report prints the human-readable summary that precedes the JSON line.
func report(out io.Writer, name string, seed int64, res loopResult) {
	fmt.Fprintf(out, "workload %s seed %d: %d ops, %d failed (fail_ratio %.6f), %d simulated tasks\n",
		name, seed, res.ops, res.failed, float64(res.failed)/float64(res.ops), res.tasks)
	fmt.Fprintf(out, "%d rounds of %d op kinds in %.3f wall s, %d reference kernel runs; one round at each kind's median: %.4f scaled s\n",
		res.ops/len(res.kindOp), len(res.kindOp), res.wallSec, len(res.refs), res.roundSeconds())
	fmt.Fprintf(out, "digest %s %s\n", name, res.digest)
	for _, f := range res.failures {
		fmt.Fprintf(out, "failed in round 1: %s\n", f)
	}
}

// tailLatency returns the highest percentile of the ladder p90, p75, p50
// that leaves at least ten values beyond it.
func tailLatency(xs []float64) (pct, value float64) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{90, 75, 50} {
		rank := int(math.Ceil(p / 100 * float64(len(sorted))))
		if rank >= 1 && len(sorted)-rank >= 10 {
			return p, sorted[rank-1]
		}
	}
	return 50, percentile(sorted, 50)
}

// printDistribution prints a few order statistics of xs.
func printDistribution(out io.Writer, what string, xs []float64) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	fmt.Fprintf(out, "%s: min %.4g p50 %.4g p90 %.4g p99 %.4g p99.5 %.4g p99.9 %.4g max %.4g\n", what,
		sorted[0], percentile(sorted, 50), percentile(sorted, 90), percentile(sorted, 99),
		percentile(sorted, 99.5), percentile(sorted, 99.9), sorted[len(sorted)-1])
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median is kept in the benchmark rather than taken from internal/stats so
// that a change to the measured program cannot change how it is measured.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// digest hashes simulated outputs in a fixed binary encoding, so two builds
// that simulate the same thing print the same hex string.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	d.h.Write(b[:])
}

func (d *digest) float(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	d.h.Write(b[:])
}

func (d *digest) floats(vs []float64) {
	d.int(len(vs))
	for _, v := range vs {
		d.float(v)
	}
}

func (d *digest) bools(vs []bool) {
	d.int(len(vs))
	b := make([]byte, len(vs))
	for i, v := range vs {
		if v {
			b[i] = 1
		}
	}
	d.h.Write(b)
}

func (d *digest) str(s string) {
	d.int(len(s))
	io.WriteString(d.h, s)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:32] }
