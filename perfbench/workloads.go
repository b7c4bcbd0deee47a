package main

import (
	"bytes"
	"fmt"
	"time"

	"parallaft/internal/asm"
	"parallaft/internal/cache"
	"parallaft/internal/checkd"
	"parallaft/internal/checkfarm"
	"parallaft/internal/core"
	"parallaft/internal/inject"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/sim"
	"parallaft/internal/workload"
)

// Load comes from this one process and never exceeds two busy workers,
// matching a two-CPU host: two loopback farm nodes of one replay worker
// each, two executor workers on the verify path, two campaign workers.
const (
	farmNodes       = 2
	nodeWorkers     = 1
	verifyWorkers   = 2
	campaignWorkers = 2
	trialsPerSeg    = 2
)

// campaignDrawSeed fixes the fault campaign's injection draws. The benchmark
// seed still drives the simulated kernel and PMU noise of every run, but
// not the draws: a draw that misses its checker is redrawn and re-run, so
// across draw seeds one pass varies from 17 to 24 simulated runs, a swing
// that would bury a 10% change.
const campaignDrawSeed = 2024

// guest is one generated program and the scale it runs at.
type guest struct {
	name  string
	scale float64
}

// workloadSpec is one benchmark workload. NOTES.md records why each was
// chosen and which layers it bypasses.
type workloadSpec struct {
	name   string
	guests []guest
	nodes  int // loopback checkd nodes started at set-up
	run    func(e *env, t *tracer, root int, p *pass)
}

var workloads = []*workloadSpec{
	{
		name:   "offload-mcf",
		guests: []guest{{"429.mcf", 0.25}},
		nodes:  farmNodes,
		run:    func(e *env, t *tracer, root int, p *pass) { e.offload(t, root, p, true) },
	},
	{
		name: "syscall-storm",
		guests: []guest{
			{"stress.getpid", 8},
			{"stress.sigusr1", 8},
			{"stress.devzero", 1},
		},
		run: func(e *env, t *tracer, root int, p *pass) { e.offload(t, root, p, false) },
	},
	{
		name:   "fault-campaign",
		guests: []guest{{"456.hmmer", 0.25}},
		run:    func(e *env, t *tracer, root int, p *pass) { e.campaign(t, root, p) },
	},
}

func lookup(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// layers is what one pass measured at each layer boundary: durations from
// the benchmark's own clocks around its calls, counts from the public values
// those calls return.
type layers struct {
	coreRun       time.Duration
	segments      int
	events        uint64
	sealGaps      []time.Duration
	checkerInstrs uint64
	cowCopies     uint64
	cowBytes      uint64
	cacheAccesses uint64
	cacheL1Hits   uint64
	pagesHashed   uint64
	bytesHashed   uint64
	identitySkips uint64
	hashCacheHits uint64

	store       pagestore.Stats
	serialize   time.Duration
	encode      time.Duration
	decode      time.Duration
	packetBytes uint64

	verdicts    int
	infra       int
	verdictLat  []time.Duration
	uploadBytes uint64
	uploads     int
	chunkRefs   int
	evictions   int

	trials   int
	landed   int
	campaign time.Duration
}

// pass is the outcome of one timed pass.
type pass struct {
	wall, protect, check time.Duration
	probe                time.Duration // the host probe's time around the pass
	allocBytes, peakHeap uint64
	gcCPU                float64
	ops, failed          int
	firstErr             string
	dig                  digests
	l                    layers

	// Simulated outputs, digested once the pass's clock has stopped.
	stats   []*core.RunStats
	encoded [][]byte
	report  *inject.Report
}

// digest folds the pass's simulated outputs into p.dig and drops them.
func (p *pass) digest() {
	if p.stats != nil {
		d := newDigester()
		for _, st := range p.stats {
			d.runStats(st)
		}
		p.dig.Books = d.sum()
	}
	if p.encoded != nil {
		d := newDigester()
		for _, b := range p.encoded {
			d.bytes(b)
		}
		p.dig.Packets = d.sum()
	}
	if p.report != nil {
		d := newDigester()
		d.report(p.report)
		p.dig.Report = d.sum()
	}
	p.stats, p.encoded, p.report = nil, nil, nil
}

// fail records n failed operations, keeping the first reason for the log.
func (p *pass) fail(n int, format string, args ...any) {
	p.failed += n
	if p.firstErr == "" {
		p.firstErr = fmt.Sprintf(format, args...)
	}
}

// env is a set-up workload: generated guests, the kernel's input files,
// and the loopback nodes the farm dials.
type env struct {
	seed  int64
	progs []*asm.Program
	files map[string][]byte
	nodes []*node
}

func (w *workloadSpec) setup(seed int64, scale float64) (*env, error) {
	e := &env{seed: seed, files: workload.Files()}
	for _, g := range w.guests {
		wl := workload.Get(g.name)
		if wl == nil {
			return nil, fmt.Errorf("unknown guest %q", g.name)
		}
		e.progs = append(e.progs, wl.Gen(g.scale*scale)...)
	}
	for i := 0; i < w.nodes; i++ {
		n, err := startNode()
		if err != nil {
			e.close()
			return nil, err
		}
		e.nodes = append(e.nodes, n)
	}
	return e, nil
}

func (e *env) close() error {
	var first error
	for _, n := range e.nodes {
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	e.nodes = nil
	return first
}

// node is one loopback checkd server.
type node struct {
	spec string
	srv  *checkd.Server
	done chan error
}

func startNode() (*node, error) {
	ln, err := checkfarm.Listen("tcp:127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{
		spec: "tcp:" + ln.Addr().String(),
		srv:  checkd.NewServer(checkd.Options{Workers: nodeWorkers}),
		done: make(chan error, 1),
	}
	go func() { n.done <- n.srv.Serve(ln) }()
	return n, nil
}

func (n *node) stop() error {
	n.srv.Shutdown()
	return <-n.done
}

// newEngine builds a fresh simulated machine, kernel and loader. The seed
// drives the kernel's nondeterministic syscalls and every process's PMU
// noise; it is the only input the benchmark seed changes.
func (e *env) newEngine() *sim.Engine {
	m := machine.New(machine.AppleM2Like())
	k := oskernel.NewKernel(m.PageSize, e.seed)
	for name, data := range e.files {
		k.AddFile(name, data)
	}
	return sim.New(m, k, oskernel.NewLoader(k, m.PageSize, e.seed))
}

// sealLog is the export sink: it keeps every sealed packet and the host gap
// between consecutive seals, traced as a span under the running program.
type sealLog struct {
	pkts []*packet.CheckPacket
	last time.Time
	gaps []time.Duration

	t   *tracer
	run int // span of the Runtime.Run in progress
}

func (s *sealLog) sink(pkt *packet.CheckPacket) error {
	gap := s.t.since("core.seal", s.run, s.last)
	s.gaps = append(s.gaps, gap)
	s.last = s.last.Add(gap)
	s.pkts = append(s.pkts, pkt)
	return nil
}

// protect is the protected stage of a pass: every guest under Parallaft on
// a fresh engine with no observers, each sealed segment exported into store.
func (e *env) protect(t *tracer, root int, p *pass, store *pagestore.Store, seals *sealLog) {
	parent := t.open("protect", root)
	start := time.Now()
	defer func() {
		p.protect = time.Since(start)
		t.close(parent)
	}()
	for _, prog := range e.progs {
		eng := e.newEngine()
		cfg := core.DefaultConfig()
		cfg.Export = &packet.Exporter{Store: store, Sink: seals.sink}
		p.ops++
		id := t.open("core.Runtime.Run", parent)
		start := time.Now()
		seals.t, seals.run, seals.last = t, id, start
		st, err := core.NewRuntime(eng, cfg).Run(prog)
		p.l.coreRun += time.Since(start)
		t.close(id)
		switch {
		case err != nil:
			p.fail(1, "%s: %v", prog.Name, err)
			continue
		case st.Detected != nil:
			p.fail(1, "%s: clean run detected %v", prog.Name, st.Detected)
		}
		p.stats = append(p.stats, st)
		p.l.addRun(st)
		p.l.addCache(eng.M)
	}
	p.l.sealGaps = seals.gaps
}

func (l *layers) addRun(st *core.RunStats) {
	l.segments += len(st.Segments)
	l.events += st.SyscallsTraced + st.SignalsTraced + st.NondetTraced
	l.checkerInstrs += st.CheckerLittleInstrs + st.CheckerBigInstrs
	l.cowCopies += st.COWCopies
	l.cowBytes += st.COWBytes
	l.pagesHashed += st.DirtyPagesHashed
	l.bytesHashed += st.BytesHashed
	l.identitySkips += st.IdentitySkips
	l.hashCacheHits += st.HashCacheHits
}

func (l *layers) addCache(m *machine.Machine) {
	for _, c := range m.Cores {
		s := m.Caches.CoreStats(c.ID)
		l.cacheAccesses += s.Total()
		l.cacheL1Hits += s.Counts[cache.L1Hit]
	}
}

// offload is the export → verify round trip: protect with export into an
// in-memory store, then encode every packet, serialize the store and read
// it back, decode, and check the decoded packets on the loopback farm
// (viaFarm) or with checkd.CheckAll, the `paftcheckd -verify` path.
func (e *env) offload(t *tracer, root int, p *pass, viaFarm bool) {
	store := pagestore.New(core.PageHashSeed)
	seals := &sealLog{}
	e.protect(t, root, p, store, seals)

	pkts := seals.pkts
	p.ops += len(pkts)
	id := t.open("check", root)
	start := time.Now()
	defer func() {
		p.check = time.Since(start)
		t.close(id)
	}()

	encoded := make([][]byte, len(pkts))
	for i, pkt := range pkts {
		s := time.Now()
		encoded[i] = packet.Encode(pkt)
		p.l.encode += t.since("packet.Encode", id, s)
		p.l.packetBytes += uint64(len(encoded[i]))
	}
	p.encoded = encoded

	var buf bytes.Buffer
	s := time.Now()
	_, err := store.WriteTo(&buf)
	p.l.serialize += t.since("pagestore.WriteTo", id, s)
	if err != nil {
		p.fail(len(pkts), "pagestore.WriteTo: %v", err)
		return
	}
	p.l.store = store.Stats()
	s = time.Now()
	readBack, err := pagestore.ReadFrom(&buf)
	p.l.serialize += t.since("pagestore.ReadFrom", id, s)
	if err != nil {
		p.fail(len(pkts), "pagestore.ReadFrom: %v", err)
		return
	}

	decoded := make([]*packet.CheckPacket, len(encoded))
	for i, b := range encoded {
		s := time.Now()
		decoded[i], err = packet.Decode(b)
		p.l.decode += t.since("packet.Decode", id, s)
		if err != nil {
			p.fail(len(pkts), "packet.Decode seg %d: %v", pkts[i].Segment, err)
			return
		}
	}

	var verdicts []checkd.Verdict
	if viaFarm {
		fid := t.open("checkfarm", id)
		verdicts, err = e.farmCheck(t, fid, readBack, decoded, &p.l)
		t.close(fid)
	} else {
		s := time.Now()
		verdicts, err = checkd.CheckAll(readBack, decoded, checkd.Options{Workers: verifyWorkers})
		t.since("checkd.CheckAll", id, s)
	}
	if err != nil {
		p.fail(len(pkts), "check: %v", err)
		return
	}
	p.judge(verdicts, decoded)
}

// farmCheck submits every packet to a farm over the loopback nodes and
// collects the ordered verdict stream, timing each packet from Submit to
// its verdict's arrival.
func (e *env) farmCheck(t *tracer, parent int, store *pagestore.Store, pkts []*packet.CheckPacket, l *layers) ([]checkd.Verdict, error) {
	f := checkfarm.New(store, checkfarm.Options{})
	type arrival struct {
		v  checkd.Verdict
		at time.Time
	}
	done := make(chan []arrival)
	go func() {
		var got []arrival
		for v := range f.Verdicts() {
			got = append(got, arrival{v, time.Now()})
		}
		done <- got
	}()
	var err error
	for _, n := range e.nodes {
		if err = f.AddNode(n.spec); err != nil {
			break
		}
	}
	submitted := make([]time.Time, len(pkts))
	for i, pkt := range pkts {
		if err != nil {
			break
		}
		submitted[i] = time.Now()
		err = f.Submit(pkt)
	}
	f.Close()
	got := <-done
	if err != nil {
		return nil, err
	}

	vs := make([]checkd.Verdict, len(got))
	for i, a := range got {
		vs[i] = a.v
		if a.v.Seq >= 0 && a.v.Seq < len(pkts) {
			sub := submitted[a.v.Seq]
			t.record("checkfarm.verdict", parent, sub, a.at)
			l.verdictLat = append(l.verdictLat, a.at.Sub(sub))
		}
	}
	for _, ns := range f.NodeStats() {
		l.uploadBytes += ns.UploadBytes
		l.uploads += ns.Uploads
		if ns.EvictReason != "" {
			l.evictions++
		}
	}
	for _, pkt := range pkts {
		l.chunkRefs += len(pkt.ChunkKeys(nil))
	}
	return vs, nil
}

// judge fails every packet that does not get exactly one passing verdict,
// in submission order.
func (p *pass) judge(vs []checkd.Verdict, pkts []*packet.CheckPacket) {
	p.l.verdicts += len(vs)
	for _, v := range vs {
		if v.Infra != "" {
			p.l.infra++
		}
	}
	if len(vs) != len(pkts) {
		p.fail(len(pkts), "%d verdicts for %d packets", len(vs), len(pkts))
		return
	}
	for i, v := range vs {
		pkt := pkts[i]
		if v.Seq != i || !v.OK || v.Infra != "" || v.ProgName != pkt.ProgName || v.Segment != pkt.Segment {
			p.fail(1, "%s seg %d: verdict %+v", pkt.ProgName, pkt.Segment, v)
		}
	}
}

// campaign is fault-campaign's pass: one inject.Campaign.Run, whose clean
// profile run and every trial start from t=0.
func (e *env) campaign(t *tracer, root int, p *pass) {
	c := &inject.Campaign{
		NewEngine:        e.newEngine,
		Program:          e.progs[0],
		Config:           core.DefaultConfig(),
		TrialsPerSegment: trialsPerSeg,
		Seed:             campaignDrawSeed,
		Parallel:         campaignWorkers,
	}
	start := time.Now()
	rep, err := c.Run()
	p.protect = t.since("inject.Campaign.Run", root, start)
	p.l.campaign = p.protect
	if err != nil {
		p.ops++
		p.fail(1, "campaign: %v", err)
		return
	}
	p.ops += len(rep.Trials)
	if !rep.DetectionComplete() {
		p.fail(len(rep.Trials), "campaign: a landed fault escaped detection")
	}
	p.report = rep
	p.l.trials = len(rep.Trials)
	p.l.landed = len(rep.Trials) - rep.Counts[inject.OutcomeFailed]
}
