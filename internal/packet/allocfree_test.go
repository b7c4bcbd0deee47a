// The race detector instruments every memory access with allocations of its
// own, so the allocation pins only build without it.
//go:build !race

package packet

import "testing"

// eventHeavyPacket is the fixture packet with its event log repeated k
// times: every event kind and region shape, k times over.
func eventHeavyPacket(k int) *CheckPacket {
	p := fixturePacket()
	base := p.Events
	p.Events = nil
	for i := 0; i < k; i++ {
		p.Events = append(p.Events, base...)
	}
	return p
}

// TestCodecAllocFree pins the codec's allocation shape. Encode makes exactly
// one allocation, the output of its final size. Decode's count does not
// grow with the event log: event records and region headers come from
// per-packet slabs and region payloads alias the input.
func TestCodecAllocFree(t *testing.T) {
	for _, k := range []int{1, 1000} {
		p := eventHeavyPacket(k)
		if got := testing.AllocsPerRun(20, func() { Encode(p) }); got != 1 {
			t.Errorf("Encode with %d events: %.0f allocs/op, want 1", len(p.Events), got)
		}
	}

	decodeAllocs := func(k int) float64 {
		b := Encode(eventHeavyPacket(k))
		return testing.AllocsPerRun(20, func() {
			if _, err := Decode(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := decodeAllocs(1), decodeAllocs(1000)
	if large != small {
		t.Errorf("Decode allocs grow with the event log: %.0f allocs/op at 5 events, %.0f at 5000", small, large)
	}
}
