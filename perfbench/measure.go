package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A run sets its workload up at least setupReps times and for at least
// setupTime; setup_s is the median. Most set-ups take under a millisecond,
// so a few samples would leave the median at the mercy of one slow one.
const (
	setupReps = 9
	setupTime = 500 * time.Millisecond
)

// options drive one benchmark run.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	// scale multiplies every guest's benchmark scale (1 in real runs; the
	// self-test shrinks it).
	scale float64
	// want, when set, are the digests every pass must reproduce; nil
	// checks each pass against the first.
	want *digests
	// minPasses is the least number of timed passes per phase.
	minPasses int
}

// result is everything a run measured.
type result struct {
	setup       []float64 // seconds per set-up
	passes      []pass    // untraced timed passes
	traced      []pass    // traced timed passes (traced runs only)
	ops, failed int       // every pass, the warm-up included
	firstErr    string
	dig         digests // the first pass's digests
	cpuByPkg    map[string]float64
	spans       []span
}

// measure sets w up repeatedly, runs one warm-up pass, then timed
// passes until the run's seconds are spent. A traced run spends the first
// half untraced and the second half with spans and a CPU profile on, so the
// tracing overhead is the ratio of the two halves' median pass times.
func measure(w *workloadSpec, o options) (*result, error) {
	r := &result{}
	var e *env
	runtime.GC()
	for began := time.Now(); len(r.setup) < setupReps || time.Since(began) < setupTime; {
		start := time.Now()
		next, err := w.setup(o.seed, o.scale)
		r.setup = append(r.setup, time.Since(start).Seconds())
		if e != nil {
			if cerr := e.close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			if next != nil {
				next.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		e = next
	}
	err := r.run(w, e, o)
	if cerr := e.close(); err == nil && cerr != nil {
		err = fmt.Errorf("stop node: %w", cerr)
	}
	return r, err
}

// run does the passes of measure on a set-up workload.
func (r *result) run(w *workloadSpec, e *env, o options) error {
	first := true
	account := func(p *pass) {
		if first {
			r.dig = p.dig
			first = false
		}
		want := r.dig
		if o.want != nil {
			want = *o.want
		}
		if p.dig != want {
			p.fail(p.ops-p.failed, "digests %+v, want %+v", p.dig, want)
		}
		r.ops += p.ops
		r.failed += p.failed
		if r.firstErr == "" {
			r.firstErr = p.firstErr
		}
	}

	// Every pass sits between two settles, each a forced GC and a host
	// probe, and is paired with the mean of the probes on either side.
	probe := settle()
	timed := func(t *tracer) pass {
		p := runPass(w, e, t)
		after := settle()
		p.probe = (probe + after) / 2
		probe = after
		account(&p)
		return p
	}

	timed(nil) // warm-up

	budget := time.Duration(o.seconds * float64(time.Second))
	plain := budget
	if o.traced {
		plain = budget / 2
	}
	for start := time.Now(); len(r.passes) < o.minPasses || time.Since(start) < plain; {
		r.passes = append(r.passes, timed(nil))
	}
	if !o.traced {
		return nil
	}
	t := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	for start := time.Now(); len(r.traced) < o.minPasses || time.Since(start) < budget-plain; {
		r.traced = append(r.traced, timed(t))
	}
	pprof.StopCPUProfile()
	r.spans = t.spans
	var err error
	r.cpuByPkg, err = attributeCPU(prof.Bytes())
	return err
}

// Go runtime metrics read around every pass.
var runtimeMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// heapSamplePeriod is how often the peak-heap sampler looks during a pass.
const heapSamplePeriod = 2 * time.Millisecond

// runPass runs one pass of w. The caller settles the host first.
func runPass(w *workloadSpec, e *env, t *tracer) pass {
	var p pass
	stop, peak := samplePeakHeap()
	before := readRuntime()
	start := time.Now()
	root := t.beginPass()
	w.run(e, t, root, &p)
	t.close(root)
	p.wall = time.Since(start)
	after := readRuntime()
	close(stop)
	p.peakHeap = <-peak
	p.digest()
	p.allocBytes = after[0].Value.Uint64() - before[0].Value.Uint64()
	p.gcCPU = after[1].Value.Float64() - before[1].Value.Float64()
	return p
}

// settle collects the previous pass's garbage, so that its sweep and heap do
// not spill into the next pass's time and peak, then probes the host.
func settle() time.Duration {
	runtime.GC()
	return probeHost()
}

// probeIters is the length of the host probe's loop: about 23 ms on the
// shared 2-vCPU Xeon VM the bounds were set on.
const probeIters = 10_000_000

// probeHost runs a fixed integer loop on every CPU at once and returns the
// mean of their times: how fast the host runs right now. The loop runs no
// program code and touches no memory, and the forced GC before it leaves no
// program work running, so a change to the program does not move it.
func probeHost() time.Duration {
	took := make([]time.Duration, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			probeSink.Add(spin(probeIters))
			took[i] = time.Since(start)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range took {
		sum += d
	}
	return sum / time.Duration(len(took))
}

// probeSink keeps the probe's result live, so its loop is not optimised away.
var probeSink atomic.Uint64

// spin is n rounds of an FNV-style mix on one register.
func spin(n int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < n; i++ {
		h = (h ^ uint64(i)) * 1099511628211
		h ^= h >> 29
	}
	return h
}

func readRuntime() []metrics.Sample {
	s := append([]metrics.Sample(nil), runtimeMetrics...)
	metrics.Read(s)
	return s
}

// samplePeakHeap polls the live-and-unswept heap until stop closes, then
// sends the highest value seen.
func samplePeakHeap() (stop chan struct{}, peak chan uint64) {
	stop, peak = make(chan struct{}), make(chan uint64, 1)
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		var hi uint64
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		for {
			metrics.Read(s)
			hi = max(hi, s[0].Value.Uint64())
			select {
			case <-stop:
				metrics.Read(s)
				peak <- max(hi, s[0].Value.Uint64())
				return
			case <-tick.C:
			}
		}
	}()
	return stop, peak
}

// median of xs; 0 when empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// over collects one value per pass.
func over(ps []pass, f func(*pass) float64) []float64 {
	out := make([]float64, len(ps))
	for i := range ps {
		out[i] = f(&ps[i])
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
