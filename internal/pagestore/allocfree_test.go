// The race detector instruments every memory access with allocations of its
// own, so the allocation pins only build without it.
//go:build !race

package pagestore

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// TestWriteToAllocBound pins WriteTo's exact sizing: into an empty
// bytes.Buffer it reports exactly the bytes the buffer holds, and the whole
// call allocates less than that plus 64 KiB — one output allocation of the
// final size, not a buffer grown by doubling.
func TestWriteToAllocBound(t *testing.T) {
	// Enough chunks that their headers outweigh the allocator's rounding:
	// a reservation short by the headers would double the buffer.
	const chunks, size = 2048, 512
	s := New(11)
	page := make([]byte, size)
	for i := 0; i < chunks; i++ {
		binary.LittleEndian.PutUint64(page, uint64(i))
		s.Put(page)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, the buffer holds %d", n, buf.Len())
	}
	if want := storeHeaderLen + chunks*(chunkHeaderLen+size); buf.Len() != want {
		t.Fatalf("serialized %d bytes, want %d", buf.Len(), want)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n)+64<<10; got >= limit {
		t.Fatalf("WriteTo of %d bytes allocated %d bytes, want < %d", n, got, limit)
	}
}
