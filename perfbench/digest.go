package main

import (
	"encoding/binary"
	"hash"
	"hash/crc64"
	"math"

	"parallaft/internal/core"
	"parallaft/internal/inject"
)

// digests pin a pass's simulated outputs: the runtime's books, the bytes of
// every encoded packet, and the fault-campaign report. Zero means the
// workload produces no such output. None of them is a performance number;
// a host optimisation must leave every one unchanged.
type digests struct {
	Books, Packets, Report uint64
}

// pinned holds the digests at defaultSeed and each workload's benchmark
// scale, taken at the commit that introduced the benchmark. A change that
// moves one moved a simulated book.
var pinned = map[string]digests{
	"offload-mcf":    {Books: 0x6accac37855c8f14, Packets: 0x2a1841eb060c057c},
	"syscall-storm":  {Books: 0x797e70c1448a5de1, Packets: 0x9ea0f96e0bdcc7c9},
	"fault-campaign": {Report: 0x451d3bee32bd1aea},
}

type digester struct{ h hash.Hash64 }

var crcTable = crc64.MakeTable(crc64.ECMA)

func newDigester() *digester { return &digester{h: crc64.New(crcTable)} }

func (d *digester) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digester) bytes(b []byte) {
	d.u64(uint64(len(b)))
	d.h.Write(b)
}

func (d *digester) sum() uint64 { return d.h.Sum64() }

// runStats folds the simulated books of one protected run: sim-time,
// energy, slicing, COW and hashing counts, checker work, and the guest's
// output. The host-side compare shortcuts (IdentitySkips, HashCacheHits)
// are diagnostics, not books, and stay out.
func (d *digester) runStats(st *core.RunStats) {
	for _, v := range []float64{st.AllWallNs, st.MainWallNs, st.MainUserNs, st.MainSysNs,
		st.RuntimeNs, st.EnergyJ, st.MainStallNs, st.CheckerLittleNs, st.CheckerBigNs} {
		d.f64(v)
	}
	// mem.AddressSpace.PSSBytes sums over a map, so the last bits of the
	// average PSS follow Go's map iteration order and differ between
	// identical runs; it is pinned to the byte instead.
	d.f64(math.Round(st.AvgPSSBytes))
	for _, v := range []uint64{uint64(st.Checkpoints), uint64(st.Slices), st.SyscallsTraced,
		st.SignalsTraced, st.NondetTraced, st.COWCopies, st.COWBytes, st.DirtyPagesHashed,
		st.BytesHashed, st.CheckerLittleInstrs, st.CheckerBigInstrs, uint64(st.Migrations),
		uint64(st.SegmentsOnBig), uint64(st.ExitCode)} {
		d.u64(v)
	}
	for _, s := range st.Segments {
		d.f64(s.MainNs)
		d.f64(s.CheckerNs)
		d.u64(uint64(s.Events))
		d.u64(uint64(s.DirtyPages))
	}
	d.bytes(st.Stdout)
}

// report folds a campaign report: outcome counts and every trial's
// segment, injection instant, target and outcome.
func (d *digester) report(r *inject.Report) {
	for _, c := range r.Counts {
		d.u64(uint64(c))
	}
	for _, t := range r.Trials {
		d.u64(uint64(t.Segment))
		d.f64(t.AtNs)
		d.bytes([]byte(t.Target.String()))
		d.u64(uint64(t.Outcome))
	}
}
