// Package checkd implements the offloaded checking service: an executor
// that accepts portable check packets (internal/packet) and independently
// re-runs Parallaft's replay-and-compare protocol against a fresh simulated
// substrate, with no access to the originating runtime's state.
//
// A checker is a pure function of (start checkpoint, record/replay log,
// config): the packet carries all three, so an external daemon can produce
// the exact verdict the in-process checker would have produced — pass/fail,
// the mismatching segment, and the error kind. The replay state machine
// here deliberately mirrors internal/core/replay.go line for line (target
// steering via branch counter + breakpoint, syscall class dispatch, nondet
// value injection, signal disposition checks) so that verdict parity is a
// structural property, pinned by the golden parity tests.
package checkd

import (
	"fmt"

	"parallaft/internal/compare"
	"parallaft/internal/core"
	"parallaft/internal/machine"
	"parallaft/internal/mem"
	"parallaft/internal/oskernel"
	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
	"parallaft/internal/proc"
	"parallaft/internal/sim"
	"parallaft/internal/telemetry/profile"
)

// Verdict is the outcome of checking one packet. It mirrors what the
// in-process runtime reports on detection: pass/fail, the segment index,
// and the error kind string (core.ErrorKind.String() values).
type Verdict struct {
	Seq       int    `json:"seq"` // submission order, assigned by the executor
	Benchmark string `json:"benchmark"`
	ProgName  string `json:"prog"`
	Segment   int    `json:"segment"`
	OK        bool   `json:"ok"`
	ErrorKind string `json:"error_kind,omitempty"` // set when !OK
	Detail    string `json:"detail,omitempty"`
	Infra     string `json:"infra,omitempty"` // infrastructure failure; not a detection

	// infraErr is the typed error behind Infra, so programmatic consumers
	// can errors.Is against sentinels like ErrMissingChunk instead of
	// string-matching. It deliberately stays off the wire (unexported):
	// Verdicts round-tripped through JSON keep only the Infra text.
	infraErr error
}

// InfraErr returns the typed infrastructure error behind Infra, or nil. For
// a packet abandoned after exhausting its chunk-miss retries this unwraps
// to ErrMissingChunk.
func (v Verdict) InfraErr() error { return v.infraErr }

// NewInfraVerdict builds the verdict for a packet that could not be checked
// at all: the dispatcher-side analogue of the executor's retry-exhausted
// path. err is kept typed (InfraErr) as well as rendered into Infra, so
// consumers can errors.Is against sentinels like checkfarm's ErrNoNodes.
// The caller assigns Seq.
func NewInfraVerdict(pkt *packet.CheckPacket, err error) Verdict {
	return Verdict{
		Benchmark: pkt.Benchmark,
		ProgName:  pkt.ProgName,
		Segment:   pkt.Segment,
		OK:        false,
		Infra:     err.Error(),
		infraErr:  err,
	}
}

func (v Verdict) String() string {
	if v.Infra != "" {
		return fmt.Sprintf("%s seg %d: INFRA: %s", v.ProgName, v.Segment, v.Infra)
	}
	if v.OK {
		return fmt.Sprintf("%s seg %d: ok", v.ProgName, v.Segment)
	}
	return fmt.Sprintf("%s seg %d: %s: %s", v.ProgName, v.Segment, v.ErrorKind, v.Detail)
}

// RunPacket checks one packet against a fresh substrate and returns its
// verdict. The returned error is infrastructural only (a chunk missing from
// the store — possibly transient under a streaming transport — or a
// malformed packet); detections are reported in the Verdict, never as an
// error.
func RunPacket(store *pagestore.Store, pkt *packet.CheckPacket) (Verdict, error) {
	v, _, err := RunPacketSlice(store, pkt)
	return v, err
}

// RunPacketSlice is RunPacket plus the replay's ledger slice: the simulated
// time and modeled energy this daemon's private substrate spent reproducing
// the segment, keyed by the packet's trace ID. The slice's HostNs is zero —
// wall-clock cost belongs to whoever drove the replay (the executor measures
// it around its retry loop). On an infrastructure error the slice is zero:
// nothing was replayed, so there is nothing to attribute.
func RunPacketSlice(store *pagestore.Store, pkt *packet.CheckPacket) (Verdict, profile.Slice, error) {
	v := Verdict{
		Benchmark: pkt.Benchmark,
		ProgName:  pkt.ProgName,
		Segment:   pkt.Segment,
	}
	r, err := newRunner(store, pkt)
	if err != nil {
		return v, profile.Slice{}, err
	}
	r.run()
	if r.detected == nil {
		v.OK = true
	} else {
		v.ErrorKind = r.detected.Kind.String()
		v.Detail = r.detected.Detail
	}
	sl := profile.Slice{
		TraceID: pkt.TraceID,
		SimNs:   r.task.Clock,
		SimJ:    r.e.M.EnergyJ(r.task.Clock),
	}
	return v, sl, nil
}

// runner replays one packet. Field-for-field it plays the role of the
// (Runtime, Segment) pair in core's replay: the packet is always "sealed"
// (its record is complete by construction), which removes core's
// wait-for-the-main states and leaves a straight-line state machine.
type runner struct {
	pkt   *packet.CheckPacket
	e     *sim.Engine
	c     *proc.Process
	task  *sim.Task
	skid  uint64
	quant uint64

	replayIdx    int
	target       packet.ExecPoint
	targetIsEnd  bool
	targetActive bool

	detected *core.DetectedError
	done     bool
}

// newRunner reconstructs the checker substrate from the packet: a
// big-core-only machine (the daemon has no reason to model little cores —
// verdicts are frequency-independent), a fresh kernel at the recorded page
// size, and a process whose address space, registers, handlers and PMU seed
// match the start checkpoint exactly.
func newRunner(store *pagestore.Store, pkt *packet.CheckPacket) (*runner, error) {
	cfg := &pkt.Config
	if err := checkPageSize(pkt); err != nil {
		return nil, err
	}

	codeBytes := store.Get(pkt.CodeKey)
	if codeBytes == nil {
		return nil, fmt.Errorf("%w: code chunk %#x", ErrMissingChunk, uint64(pkt.CodeKey))
	}
	code, err := packet.DecodeCode(codeBytes, pkt.CodeLen)
	if err != nil {
		return nil, fmt.Errorf("checkd: packet %s seg %d: %w", pkt.ProgName, pkt.Segment, err)
	}

	as, err := rebuildAddressSpace(store, cfg.PageSize, &pkt.Start)
	if err != nil {
		return nil, err
	}

	m := machine.New(machine.BigOnly())
	k := oskernel.NewKernel(cfg.PageSize, 0)
	l := oskernel.NewLoader(k, cfg.PageSize, 0)
	e := sim.New(m, k, l)

	c := proc.New(pkt.CheckerPID, 1, pkt.ProgName, code, as, pkt.PMUSeed)
	k.Register(c.PID)
	c.Regs = pkt.Start.Regs.Regs()
	c.PC = pkt.Start.PC
	c.InstrLimit = pkt.InstrLimit
	c.SetMaxSkid(uint64(pkt.MaxSkid))
	for _, h := range pkt.Start.Handlers {
		c.Handlers[proc.Signal(h.Sig)] = h.PC
	}

	return &runner{
		pkt:   pkt,
		e:     e,
		c:     c,
		task:  e.NewTask(c, m.BigCores()[0], 0),
		skid:  cfg.SkidBuffer,
		quant: cfg.Quantum,
	}, nil
}

// rebuildAddressSpace reconstructs a checkpointed address space from page
// refs. Pages are materialised under RW protection first (writes into
// non-writable pages fault), then VMA- and page-level protections are
// restored: a whole-VMA Protect for every non-RW VMA fixes both the VMA
// record and its pages, and a per-page fixup handles pages whose individual
// protection diverged from their VMA's (an mprotect of a sub-range).
func rebuildAddressSpace(store *pagestore.Store, pageSize uint64, st *packet.StartState) (*mem.AddressSpace, error) {
	as := mem.NewAddressSpace(pageSize)
	vmaProt := make(map[uint64]mem.Prot) // VPN -> owning VMA's final prot
	for _, v := range st.VMAs {
		if err := as.Map(v.Base, v.Length, mem.ProtRW, v.Name); err != nil {
			return nil, fmt.Errorf("checkd: rebuilding vma %#x+%#x: %v", v.Base, v.Length, err)
		}
		for vpn := v.Base / pageSize; vpn < (v.Base+v.Length)/pageSize; vpn++ {
			vmaProt[vpn] = mem.Prot(v.Prot)
		}
	}
	for _, pg := range st.Pages {
		data := store.Get(pg.Key)
		if data == nil {
			return nil, fmt.Errorf("%w: page %#x chunk %#x", ErrMissingChunk, pg.VPN*pageSize, uint64(pg.Key))
		}
		if f := as.Write(pg.VPN*pageSize, data); f != nil {
			return nil, fmt.Errorf("checkd: restoring page %#x faulted: %v", pg.VPN*pageSize, f)
		}
	}
	for _, v := range st.VMAs {
		if mem.Prot(v.Prot) != mem.ProtRW {
			if err := as.Protect(v.Base, v.Length, mem.Prot(v.Prot)); err != nil {
				return nil, fmt.Errorf("checkd: restoring vma prot %#x+%#x: %v", v.Base, v.Length, err)
			}
		}
	}
	for _, pg := range st.Pages {
		if p := mem.Prot(pg.Prot); p != vmaProt[pg.VPN] {
			if err := as.Protect(pg.VPN*pageSize, pageSize, p); err != nil {
				return nil, fmt.Errorf("checkd: restoring page prot %#x: %v", pg.VPN*pageSize, err)
			}
		}
	}
	as.RestoreBrk(st.BrkBase, st.Brk)
	as.ClearSoftDirty()
	return as, nil
}

// fail latches the first detection; replay stops at the first divergence,
// exactly as in-process detection terminates the application.
func (r *runner) fail(kind core.ErrorKind, format string, args ...any) {
	if r.detected == nil {
		r.detected = &core.DetectedError{
			Kind: kind, Segment: r.pkt.Segment, Detail: fmt.Sprintf(format, args...),
		}
	}
	r.done = true
}

func (r *runner) failSig(sig proc.Signal, format string, args ...any) {
	if r.detected == nil {
		r.detected = &core.DetectedError{
			Kind: core.ErrCheckerException, Segment: r.pkt.Segment, Sig: sig,
			Detail: fmt.Sprintf(format, args...),
		}
	}
	r.done = true
}

// nextEvent returns the next unconsumed log event, or nil.
func (r *runner) nextEvent() *packet.Event {
	if r.replayIdx >= len(r.pkt.Events) {
		return nil
	}
	return &r.pkt.Events[r.replayIdx]
}

// run drives the replay to a verdict.
func (r *runner) run() {
	for !r.done {
		r.step()
	}
}

// step mirrors core's stepChecker against an always-sealed record.
func (r *runner) step() {
	r.ensureTarget()
	if r.atTarget() {
		r.reachedTarget()
		return
	}

	// Same deliberate quantum offset as in-process checkers: budget stops
	// must not align with the main's slicing positions, or the steering
	// protocol never does its job.
	stop := r.e.Run(r.task, r.quant+37)

	if r.atTarget() {
		r.reachedTarget()
		return
	}
	switch stop.Reason {
	case proc.StopBudget:
		// keep going
	case proc.StopSyscall:
		r.replaySyscall()
	case proc.StopNondet:
		r.replayNondet()
	case proc.StopSignal:
		r.replayFault(stop.Sig)
	case proc.StopCounter:
		r.enterStepped()
	case proc.StopBreakpoint:
		rel := r.c.Branches
		switch {
		case r.atTarget():
			r.reachedTarget()
		case r.targetActive && rel > r.target.Branches:
			r.fail(core.ErrExecPointOverrun,
				"checker at %d branches, target %d", rel, r.target.Branches)
		default:
			// Same PC, earlier iteration: continue to the next hit.
		}
	case proc.StopInstrLimit:
		r.fail(core.ErrCheckerTimeout,
			"checker executed %d instructions, budget %d (main %d x %.2f)",
			r.c.Instrs, r.c.InstrLimit, r.pkt.MainInstrs, r.pkt.Config.TimeoutScale)
	case proc.StopHalt:
		r.checkerHalted()
	}
}

// ensureTarget mirrors core's steering: the next recorded external signal's
// delivery point takes priority; otherwise the segment end point (unless
// the segment ends with the program exiting, which the final replayed event
// produces).
func (r *runner) ensureTarget() {
	var want packet.ExecPoint
	var isEnd, active bool
	if ev := r.nextEvent(); ev != nil && ev.Kind == packet.EvSignalExternal {
		want, isEnd, active = ev.Signal.Point, false, true
	} else if !r.pkt.EndIsExit {
		want, isEnd, active = r.pkt.End, true, true
	}
	if !active {
		if r.targetActive {
			r.c.DisarmBranchCounter()
			r.c.ClearAllBreakpoints()
			r.targetActive = false
		}
		return
	}
	if r.targetActive && r.target == want && r.targetIsEnd == isEnd {
		return // already armed at this target
	}
	r.target = want
	r.targetIsEnd = isEnd
	r.targetActive = true

	c := r.c
	c.DisarmBranchCounter()
	c.ClearAllBreakpoints()
	rel := c.Branches
	if want.Branches > rel && want.Branches-rel > r.skid {
		c.ArmBranchCounter(want.Branches - r.skid)
	} else {
		c.SetBreakpoint(want.PC)
	}
}

// enterStepped switches from counting to breakpointing on the target PC.
func (r *runner) enterStepped() {
	r.c.DisarmBranchCounter()
	r.c.SetBreakpoint(r.target.PC)
}

// atTarget reports whether the checker is exactly at the active target.
func (r *runner) atTarget() bool {
	return r.targetActive &&
		r.c.Branches == r.target.Branches &&
		r.c.PC == r.target.PC
}

// reachedTarget consumes the active target: deliver an external signal, or
// finish the segment at its end point.
func (r *runner) reachedTarget() {
	if r.targetIsEnd {
		if r.replayIdx < len(r.pkt.Events) {
			r.fail(core.ErrEventOrderMismatch,
				"checker reached segment end with %d unreplayed events",
				len(r.pkt.Events)-r.replayIdx)
			return
		}
		r.finishAtEnd()
		return
	}
	ev := r.nextEvent()
	r.replayIdx++
	r.targetActive = false
	r.c.DisarmBranchCounter()
	r.c.ClearAllBreakpoints()
	alive := r.c.DeliverSignal(proc.Signal(ev.Signal.Sig))
	if ev.Signal.Fatal == alive {
		r.failSig(proc.Signal(ev.Signal.Sig), "checker signal disposition differs from main's")
		return
	}
	if !alive {
		r.checkerHalted()
	}
}

// replaySyscall validates the checker's syscall against the record and
// applies the class-appropriate behaviour.
func (r *runner) replaySyscall() {
	c := r.c
	ev := r.nextEvent()
	if ev == nil {
		r.fail(core.ErrSyscallMismatch,
			"checker issued syscall %v past the end of the record", oskernel.Decode(c).Nr)
		return
	}
	if ev.Kind != packet.EvSyscall {
		r.fail(core.ErrEventOrderMismatch,
			"checker at a syscall, record expects %v", eventKindString(ev.Kind))
		return
	}
	rec := ev.Syscall
	info := oskernel.Decode(c)
	recInfo := oskernel.Info{Nr: oskernel.Sys(rec.Nr), Args: oskernel.Args(rec.Args)}
	if info != recInfo {
		r.fail(core.ErrSyscallMismatch,
			"checker %v%v vs recorded %v%v", info.Nr, info.Args, recInfo.Nr, recInfo.Args)
		return
	}

	model := oskernel.ModelOf(info.Nr)
	chkIn := captureRegions(c, model.In(r.e.K, c, info.Args))
	if !regionsEqual(chkIn, rec.In) {
		r.fail(core.ErrSyscallMismatch, "%v input data differs", info.Nr)
		return
	}

	r.replayIdx++

	switch oskernel.Class(rec.Class) {
	case oskernel.ClassLocal:
		// Both sides execute; pin ASLR'd mmaps to the recorded address with
		// MAP_FIXED. Only the kernel-visible arguments are rewritten — the
		// architectural registers keep the original values.
		if info.Nr == oskernel.SysMmap && rec.MmapFixedAddr != 0 {
			info.Args[0] = rec.MmapFixedAddr
			info.Args[3] |= oskernel.MapFixed
		}
		res := r.e.ExecSyscall(r.task, info)
		if res.Ret != rec.Ret {
			r.fail(core.ErrSyscallMismatch,
				"%v local result %d differs from recorded %d", info.Nr, res.Ret, rec.Ret)
			return
		}
		if res.Exited {
			c.Exited = true
			r.checkerHalted()
			return
		}
		oskernel.Finish(c, res.Ret)
		if res.SelfSignal != proc.SigNone {
			if !c.DeliverSignal(res.SelfSignal) {
				r.checkerHalted()
			}
		}

	case oskernel.ClassGlobal, oskernel.ClassNonEffectful:
		// Replay outputs and result without touching the OS, so the external
		// effect happens exactly once.
		if info.Nr == oskernel.SysExit {
			c.Exited = true
			c.ExitCode = int64(info.Args[0])
			r.checkerHalted()
			return
		}
		for _, out := range rec.Out {
			if f := c.AS.Write(out.Addr, out.Data); f != nil {
				r.fail(core.ErrSyscallMismatch,
					"replaying %v output into checker faulted at %#x", info.Nr, f.Addr)
				return
			}
		}
		oskernel.ReplayFinish(c, rec.Ret)
	}
}

// replayNondet feeds the recorded value of a nondeterministic instruction
// to the checker.
func (r *runner) replayNondet() {
	c := r.c
	ev := r.nextEvent()
	if ev == nil {
		r.fail(core.ErrEventOrderMismatch, "checker nondet instruction past end of record")
		return
	}
	if ev.Kind != packet.EvNondet {
		r.fail(core.ErrEventOrderMismatch,
			"checker at nondet instruction, record expects %v", eventKindString(ev.Kind))
		return
	}
	if ev.Nondet.PC != c.PC {
		r.fail(core.ErrEventOrderMismatch,
			"nondet at pc %d, recorded pc %d", c.PC, ev.Nondet.PC)
		return
	}
	r.replayIdx++
	ins := c.CurrentInstr()
	c.Regs.X[ins.Rd] = ev.Nondet.Value
	c.PC++
	c.Instrs++
}

// replayFault checks a checker fault against the record: the main must have
// taken the identical signal at the identical PC.
func (r *runner) replayFault(sig proc.Signal) {
	c := r.c
	ev := r.nextEvent()
	if ev == nil || ev.Kind != packet.EvSignalInternal ||
		proc.Signal(ev.Signal.Sig) != sig || ev.Signal.PC != c.PC {
		r.failSig(sig, "checker fault %v at pc %d diverges from record", sig, c.PC)
		return
	}
	r.replayIdx++
	alive := c.DeliverSignal(sig)
	if ev.Signal.Fatal != !alive {
		r.failSig(sig, "checker signal disposition differs from main's")
		return
	}
	if !alive {
		r.checkerHalted()
	}
}

// checkerHalted handles the checker finishing execution (exit syscall,
// halt, or fatal signal). For an exit-ending segment this is the expected
// end; anywhere else it is a divergence.
func (r *runner) checkerHalted() {
	if !r.pkt.EndIsExit {
		r.fail(core.ErrCheckerExited, "checker exited mid-segment")
		return
	}
	if r.replayIdx < len(r.pkt.Events) {
		r.fail(core.ErrEventOrderMismatch,
			"checker exited with %d unreplayed events", len(r.pkt.Events)-r.replayIdx)
		return
	}
	r.finishAtEnd()
}

// finishAtEnd runs the end-of-segment comparison: registers first (a
// register mismatch wins over any memory mismatch, matching core), then the
// PC, then the expected page hashes against the reconstructed checker's
// full page set.
func (r *runner) finishAtEnd() {
	c := r.c
	c.DisarmBranchCounter()
	c.ClearAllBreakpoints()
	r.done = true

	if !r.pkt.Config.CompareStates {
		return // RAFT model: no state comparison at segment ends
	}

	ref := r.pkt.EndState.Regs.Regs()
	if !c.Regs.Equal(&ref) {
		r.detected = &core.DetectedError{
			Kind: core.ErrRegMismatch, Segment: r.pkt.Segment,
			Detail: fmt.Sprintf("registers differ at segment end (checker/checkpoint):%s",
				c.Regs.Diff(&ref)),
		}
		return
	}
	if c.PC != r.pkt.EndState.PC {
		r.detected = &core.DetectedError{
			Kind: core.ErrRegMismatch, Segment: r.pkt.Segment,
			Detail: fmt.Sprintf("pc %d differs from checkpoint pc %d", c.PC, r.pkt.EndState.PC),
		}
		return
	}

	expected := make([]compare.ExpectedPage, len(r.pkt.EndState.Pages))
	for i, ph := range r.pkt.EndState.Pages {
		expected[i] = compare.ExpectedPage{VPN: ph.VPN, Sum: ph.Sum}
	}
	if m := compare.RunAgainstHashes(expected, c.AS, r.pkt.Config.HashSeed); m != nil {
		switch m.Kind {
		case compare.MismatchStructural:
			r.detected = &core.DetectedError{
				Kind: core.ErrStructuralMismatch, Segment: r.pkt.Segment,
				Detail: fmt.Sprintf("page %#x mapped on only one side", m.VPN),
			}
		case compare.MismatchContent:
			r.detected = &core.DetectedError{
				Kind: core.ErrMemMismatch, Segment: r.pkt.Segment,
				Detail: fmt.Sprintf("page %#x content hash differs", m.VPN),
			}
		}
	}
}

// eventKindString names a wire event kind with the same strings core's
// EventKind uses in detection details.
func eventKindString(k uint8) string {
	switch k {
	case packet.EvSyscall:
		return "syscall"
	case packet.EvNondet:
		return "nondet"
	case packet.EvSignalInternal:
		return "signal-internal"
	case packet.EvSignalExternal:
		return "signal-external"
	}
	return fmt.Sprintf("event(%d)", k)
}

// captureRegions snapshots guest memory regions (core's rrlog helper,
// duplicated here to keep the wire types decoupled from core's).
func captureRegions(p *proc.Process, regions []oskernel.Region) []packet.Region {
	out := make([]packet.Region, 0, len(regions))
	for _, reg := range regions {
		buf := make([]byte, reg.Len)
		if f := p.AS.Read(reg.Addr, buf); f != nil {
			buf = nil
		}
		out = append(out, packet.Region{Addr: reg.Addr, Data: buf})
	}
	return out
}

// regionsEqual compares two captures byte-for-byte.
func regionsEqual(a, b []packet.Region) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Addr != b[i].Addr || len(a[i].Data) != len(b[i].Data) {
			return false
		}
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				return false
			}
		}
	}
	return true
}
