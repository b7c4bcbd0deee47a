// The race detector instruments every memory access with allocations of its
// own, so the allocation pins only build without it.
//go:build !race

package mem

import (
	"runtime"
	"testing"
)

// TestCOWCycleAllocBound pins page-buffer recycling on the checkpoint path:
// once warm, a fork → write N pages → release cycle draws its N COW copies
// from the buffers the previous cycle's release freed, so it allocates less
// than N pages' worth of bytes (the remainder is the fork's page table).
func TestCOWCycleAllocBound(t *testing.T) {
	const pages, dirty = 256, 64
	as := NewAddressSpace(pg)
	mustMap(t, as, 0, pages*pg)
	cycle := func() {
		cp := as.Fork()
		for i := uint64(0); i < dirty; i++ {
			if _, f := as.StoreU64(i*pg, i); f != nil {
				t.Fatal(f)
			}
		}
		cp.Release()
	}
	for i := 0; i < 3; i++ {
		cycle()
	}

	const rounds = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if got := as.Stats().COWCopies; got != (3+rounds)*dirty {
		t.Fatalf("%d COW copies, want %d", got, (3+rounds)*dirty)
	}
	perCycle := (after.TotalAlloc - before.TotalAlloc) / rounds
	if limit := uint64(dirty * pg); perCycle >= limit {
		t.Fatalf("warm cycle allocated %d bytes, want < %d (%d pages of %d bytes)", perCycle, limit, dirty, pg)
	}
	t.Logf("warm fork → write %d pages → release: %d bytes/cycle", dirty, perCycle)
}
