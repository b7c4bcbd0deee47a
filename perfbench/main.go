// Command perfbench is the repository's host-speed benchmark: how fast the
// host runs the simulator, end to end and layer by layer. It runs one named
// workload in this process through the public API of internal/core, packet,
// pagestore, checkd, checkfarm and inject, checks that every simulated
// output is unchanged, and prints its metrics as one JSON line.
//
//	perfbench -workload offload-mcf -seed 1 -seconds 35 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it also
// times each layer call, profiles host CPU by package, writes the spans and
// the attribution under -trace-dir, and prints the per-layer metrics.
// NOTES.md explains the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// defaultSeed is the seed the digests are pinned at.
const defaultSeed = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", defaultSeed, "input seed: the simulated kernel's nondeterministic syscalls and PMU noise")
	secs := fs.Float64("seconds", 35, "seconds of timed passes")
	trace := fs.Int("trace", 0, "1: traced run, reporting per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build", "directory for the traced run's spans and CPU attribution")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	w := lookup(*name)
	if w == nil || fs.NArg() != 0 || *secs < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	o := options{seed: *seed, seconds: *secs, traced: *trace == 1, scale: 1, minPasses: 3}
	if *seed == defaultSeed {
		want := pinned[w.name]
		o.want = &want
	}
	r, err := measure(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "digests %s seed=%d books=%016x packets=%016x report=%016x\n",
		w.name, *seed, r.dig.Books, r.dig.Packets, r.dig.Report)
	fmt.Fprintf(stdout, "samples: %d set-ups, %d untraced and %d traced passes after one warm-up\n",
		len(r.setup), len(r.passes), len(r.traced))
	fmt.Fprintf(stdout, "fail_ratio %g (%d of %d ops failed)\n", ratio(float64(r.failed), float64(r.ops)), r.failed, r.ops)
	fmt.Fprintf(stdout, "unadjusted medians: wall_s %g, protect_s %g, host probe %g ms\n",
		median(over(r.passes, func(p *pass) float64 { return p.wall.Seconds() })),
		median(over(r.passes, func(p *pass) float64 { return p.protect.Seconds() })),
		median(over(r.passes, func(p *pass) float64 { return p.probe.Seconds() * 1e3 })))
	if r.firstErr != "" {
		fmt.Fprintf(stdout, "first failure: %s\n", r.firstErr)
	}
	out := report{Correct: r.failed == 0, Attempted: r.ops, Failed: r.failed}
	if o.traced {
		out.Metrics = perLayer(r)
		path, err := writeTrace(*traceDir, traceFile{Workload: w.name, Seed: *seed, Spans: r.spans, CPUByPkg: r.cpuByPkg})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d spans and CPU by package written to %s\n", len(r.spans), path)
	} else {
		out.Metrics = endToEnd(r)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const mb = 1e6

// endToEnd is what a user of the system sees, from the untraced passes.
// Pass times are in probes: each pass's host time divided by the host
// probe's time around it, so that the host's own changes of speed cancel.
func endToEnd(r *result) map[string]metric {
	ps := r.passes
	return map[string]metric{
		"setup_s":        {median(r.setup), "s"},
		"wall_probes":    {median(over(ps, wallProbes)), "probes"},
		"protect_probes": {median(over(ps, protectProbes)), "probes"},
		"alloc_mb":       {median(over(ps, func(p *pass) float64 { return float64(p.allocBytes) / mb })), "MB"},
		"peak_heap_mb":   {median(over(ps, func(p *pass) float64 { return float64(p.peakHeap) / mb })), "MB"},
	}
}

func wallProbes(p *pass) float64    { return ratio(p.wall.Seconds(), p.probe.Seconds()) }
func protectProbes(p *pass) float64 { return ratio(p.protect.Seconds(), p.probe.Seconds()) }

// perLayer is the traced passes' per-layer view. Times and counts are
// medians over the traced passes; *.cpu_s is the profile's CPU for that
// layer divided by the number of traced passes. A layer the workload does
// not reach reads 0.
func perLayer(r *result) map[string]metric {
	ps := r.traced
	n := float64(len(ps))
	med := func(f func(*pass) float64) float64 { return median(over(ps, f)) }
	cpu := layerCPU(r.cpuByPkg)
	cpuS := func(layer string) float64 { return cpu[layer] / n }

	var sealGaps, verdictLat []float64
	for i := range ps {
		sealGaps = append(sealGaps, seconds(ps[i].l.sealGaps)...)
		verdictLat = append(verdictLat, seconds(ps[i].l.verdictLat)...)
	}
	coreRun := med(func(p *pass) float64 { return p.l.coreRun.Seconds() })
	segments := med(func(p *pass) float64 { return float64(p.l.segments) })
	events := med(func(p *pass) float64 { return float64(p.l.events) })
	guestM := med(func(p *pass) float64 { return float64(p.l.checkerInstrs) / 1e6 })
	trials := med(func(p *pass) float64 { return float64(p.l.trials) })
	plain := func(f func(*pass) float64) float64 { return median(over(r.passes, f)) }
	tracedWall := med(func(p *pass) float64 { return p.wall.Seconds() })

	return map[string]metric{
		"check_s": {med(func(p *pass) float64 { return p.check.Seconds() }), "s"},

		"core.run_s":           {coreRun, "s"},
		"core.segments":        {segments, "count"},
		"core.us_per_segment":  {ratio(coreRun*1e6, segments), "us"},
		"core.seal_gap_ms_p50": {quantile(sealGaps, 0.5) * 1e3, "ms"},
		"core.seal_gap_ms_p90": {quantile(sealGaps, 0.9) * 1e3, "ms"},
		"core.events_recorded": {events, "count"},
		"core.ns_per_event":    {ratio(coreRun*1e9, events), "ns"},
		"core.cpu_s":           {cpuS("core"), "s"},

		"proc.cpu_s":            {cpuS("proc"), "s"},
		"proc.guest_minstr":     {guestM, "Minstr"},
		"proc.minstr_per_cpu_s": {ratio(guestM, cpuS("proc")), "Minstr/s"},

		"mem.cpu_s":      {cpuS("mem"), "s"},
		"mem.cow_copies": {med(func(p *pass) float64 { return float64(p.l.cowCopies) }), "count"},
		"mem.cow_mb":     {med(func(p *pass) float64 { return float64(p.l.cowBytes) / mb }), "MB"},

		"cache.cpu_s":    {cpuS("cache"), "s"},
		"cache.accesses": {med(func(p *pass) float64 { return float64(p.l.cacheAccesses) }), "count"},
		"cache.l1_hit_ratio": {med(func(p *pass) float64 {
			return ratio(float64(p.l.cacheL1Hits), float64(p.l.cacheAccesses))
		}), "ratio"},

		"compare.cpu_s":        {cpuS("compare"), "s"},
		"compare.pages_hashed": {med(func(p *pass) float64 { return float64(p.l.pagesHashed) }), "count"},
		"compare.hashed_mb":    {med(func(p *pass) float64 { return float64(p.l.bytesHashed) / mb }), "MB"},
		// Each examined page needs two frame hashes; an identity skip saves
		// both, a memo hit one.
		"compare.skip_ratio": {med(func(p *pass) float64 {
			return ratio(float64(2*p.l.identitySkips+p.l.hashCacheHits), float64(2*p.l.pagesHashed))
		}), "ratio"},

		"oskernel.cpu_s": {cpuS("oskernel"), "s"},

		"pagestore.chunks":    {med(func(p *pass) float64 { return float64(p.l.store.Chunks) }), "count"},
		"pagestore.stored_mb": {med(func(p *pass) float64 { return float64(p.l.store.StoredBytes) / mb }), "MB"},
		"pagestore.dedup_ratio": {med(func(p *pass) float64 {
			return ratio(float64(p.l.store.DedupHits), float64(p.l.store.Puts))
		}), "ratio"},
		"pagestore.serialize_s": {med(func(p *pass) float64 { return p.l.serialize.Seconds() }), "s"},

		"packet.encode_s": {med(func(p *pass) float64 { return p.l.encode.Seconds() }), "s"},
		"packet.decode_s": {med(func(p *pass) float64 { return p.l.decode.Seconds() }), "s"},
		"packet.mb":       {med(func(p *pass) float64 { return float64(p.l.packetBytes) / mb }), "MB"},

		"checkd.cpu_s":          {cpuS("checkd"), "s"},
		"checkd.packets":        {med(func(p *pass) float64 { return float64(p.l.verdicts) }), "count"},
		"checkd.infra_verdicts": {med(func(p *pass) float64 { return float64(p.l.infra) }), "count"},

		"checkfarm.verdict_ms_p50": {quantile(verdictLat, 0.5) * 1e3, "ms"},
		"checkfarm.verdict_ms_p90": {quantile(verdictLat, 0.9) * 1e3, "ms"},
		"checkfarm.upload_mb":      {med(func(p *pass) float64 { return float64(p.l.uploadBytes) / mb }), "MB"},
		// Chunk references that did not cross a node's wire.
		"checkfarm.dedup_ratio": {med(func(p *pass) float64 {
			return ratio(float64(p.l.chunkRefs-p.l.uploads), float64(p.l.chunkRefs))
		}), "ratio"},
		"checkfarm.evictions": {med(func(p *pass) float64 { return float64(p.l.evictions) }), "count"},

		"inject.trials": {trials, "count"},
		"inject.landed_ratio": {med(func(p *pass) float64 {
			return ratio(float64(p.l.landed), float64(p.l.trials))
		}), "ratio"},
		"inject.s_per_trial": {med(func(p *pass) float64 {
			return ratio(p.l.campaign.Seconds(), float64(p.l.trials))
		}), "s"},

		"gc.cpu_s": {med(func(p *pass) float64 { return p.gcCPU }), "s"},

		// Host seconds, unadjusted, of the untraced passes, and the probe
		// the end-to-end times are divided by.
		"wall_s":        {plain(func(p *pass) float64 { return p.wall.Seconds() }), "s"},
		"protect_s":     {plain(func(p *pass) float64 { return p.protect.Seconds() }), "s"},
		"host.probe_ms": {plain(func(p *pass) float64 { return p.probe.Seconds() * 1e3 }), "ms"},

		"trace.wall_s": {tracedWall, "s"},
		// In probes, so that the host's speed drifting between the two
		// halves does not read as tracing overhead.
		"trace.overhead_ratio": {ratio(med(wallProbes), plain(wallProbes)) - 1, "ratio"},
	}
}
