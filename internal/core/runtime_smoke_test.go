package core

import (
	"math"
	"strings"
	"testing"

	"parallaft/internal/asm"
	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/sim"
)

// newTestEngine builds a fresh machine/kernel/engine stack for one run.
func newTestEngine(seed int64) *sim.Engine {
	m := machine.New(machine.AppleM2Like())
	k := oskernel.NewKernel(m.PageSize, seed)
	l := oskernel.NewLoader(k, m.PageSize, seed)
	return sim.New(m, k, l)
}

// testProgram builds a program that loops long enough to produce several
// segments under a small slicing period, makes syscalls, touches memory,
// and reads nondeterministic state.
func testProgram(iters int64) *asm.Program {
	b := asm.NewBuilder("smoke")
	b.Space("buf", 64*1024)
	b.Bytes("msg", []byte("hello\n"))

	b.Label("start")
	b.MovI(1, 0)     // acc
	b.MovI(2, 0)     // i
	b.MovI(3, iters) // limit
	b.Addr(4, "buf") // base
	b.Label("loop")
	b.AndI(5, 2, 8191) // offset within buf (8 KiB window), 8-byte steps
	b.ShlI(5, 5, 3)
	b.AndI(5, 5, 65528)
	b.Add(5, 4, 5)
	b.Ld(6, 5, 0)
	b.Add(6, 6, 2)
	b.St(5, 0, 6)
	b.Add(1, 1, 6)
	b.AddI(2, 2, 1)
	b.Blt(2, 3, "loop")

	// A nondeterministic read the runtime must virtualise.
	b.Rdtsc(7)
	// getpid (non-effectful, replayed).
	b.MovI(0, int64(oskernel.SysGetPID))
	b.Syscall()
	// write (globally effectful: must appear exactly once).
	b.MovI(0, int64(oskernel.SysWrite))
	b.MovI(1, 1)
	b.Addr(2, "msg")
	b.MovI(3, 6)
	b.Syscall()
	// exit with acc's low byte
	b.AndI(1, 1, 255)
	b.MovI(0, int64(oskernel.SysExit))
	b.Syscall()
	return b.MustBuild()
}

func runProtected(t *testing.T, cfg Config, iters int64) *RunStats {
	t.Helper()
	e := newTestEngine(7)
	r := NewRuntime(e, cfg)
	stats, err := r.Run(testProgram(iters))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return stats
}

func TestParallaftCleanRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 40_000 // force multiple segments
	stats := runProtected(t, cfg, 40_000)

	if stats.Detected != nil {
		t.Fatalf("false positive: %v", stats.Detected)
	}
	if stats.Slices < 2 {
		t.Errorf("slices = %d, want >= 2 (program should span several segments)", stats.Slices)
	}
	if got := string(stats.Stdout); got != "hello\n" {
		t.Errorf("stdout = %q, want exactly one %q (duplicated IO means replay leaked)", got, "hello\n")
	}
	if stats.AllWallNs < stats.MainWallNs {
		t.Errorf("all wall %.0f < main wall %.0f", stats.AllWallNs, stats.MainWallNs)
	}
	if stats.SyscallsTraced != 3 {
		t.Errorf("syscalls traced = %d, want 3", stats.SyscallsTraced)
	}
	if stats.NondetTraced != 1 {
		t.Errorf("nondet traced = %d, want 1", stats.NondetTraced)
	}
	if stats.DirtyPagesHashed == 0 {
		t.Error("no dirty pages were hashed")
	}
}

// TestAvgPSSBitReproducible: two identical runs in one process report the
// same AvgPSSBytes bit for bit; the PSS sample must not follow page-map
// iteration order.
func TestAvgPSSBitReproducible(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 40_000
	a := runProtected(t, cfg, 40_000)
	b := runProtected(t, cfg, 40_000)
	if a.AvgPSSBytes == 0 {
		t.Fatal("no PSS samples taken")
	}
	if math.Float64bits(a.AvgPSSBytes) != math.Float64bits(b.AvgPSSBytes) {
		t.Fatalf("AvgPSSBytes %v then %v across identical runs", a.AvgPSSBytes, b.AvgPSSBytes)
	}
}

func TestParallaftMatchesBaselineOutput(t *testing.T) {
	// Baseline run for comparison.
	be := newTestEngine(7)
	bres, err := be.RunBaseline(testProgram(20_000), be.M.BigCores()[0])
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 30_000
	stats := runProtected(t, cfg, 20_000)

	if stats.Detected != nil {
		t.Fatalf("false positive: %v", stats.Detected)
	}
	if stats.ExitCode != bres.ExitCode {
		t.Errorf("exit code %d != baseline %d", stats.ExitCode, bres.ExitCode)
	}
	if string(stats.Stdout) != string(bres.Stdout) {
		t.Errorf("stdout %q != baseline %q", stats.Stdout, bres.Stdout)
	}
	if stats.MainWallNs <= bres.WallNs {
		t.Errorf("protected main wall %.0f should exceed baseline wall %.0f (tracing overhead)",
			stats.MainWallNs, bres.WallNs)
	}
}

func TestRAFTCleanRun(t *testing.T) {
	stats := runProtected(t, RAFTConfig(), 20_000)
	if stats.Detected != nil {
		t.Fatalf("false positive: %v", stats.Detected)
	}
	if stats.Slices != 0 {
		t.Errorf("RAFT mode sliced %d times, want 0", stats.Slices)
	}
	if got := string(stats.Stdout); got != "hello\n" {
		t.Errorf("stdout = %q, want %q", got, "hello\n")
	}
	if stats.DirtyPagesHashed != 0 {
		t.Errorf("RAFT mode hashed %d pages, want 0 (no state comparison)", stats.DirtyPagesHashed)
	}
	if stats.CheckerLittleNs != 0 {
		t.Errorf("RAFT checker ran %f ns on little cores, want 0", stats.CheckerLittleNs)
	}
}

func TestStatsString(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlicePeriodCycles = 40_000
	stats := runProtected(t, cfg, 10_000)
	if !strings.Contains(stats.Benchmark, "smoke") {
		t.Errorf("benchmark name = %q", stats.Benchmark)
	}
}
