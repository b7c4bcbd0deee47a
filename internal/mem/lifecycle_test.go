package mem

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Geometry of the frame-lifecycle model: small pages, a handful of
// fixed-size slots, each slot one VMA.
const (
	lcPage      = 256
	lcSlots     = 6
	lcSlotPages = 4
	lcMaxSpaces = 5
)

func lcBase(slot int) uint64 { return uint64(slot) * 0x10000 }

// lcModelPage is the reference model of one mapped page: its contents, its
// protection, and which model frame backs it (forks share the frame until
// one side writes).
type lcModelPage struct {
	data  [lcPage]byte
	prot  Prot
	frame int
}

// lcSpace is one live address space and what the model says it holds.
type lcSpace struct {
	as    *AddressSpace
	pages map[uint64]lcModelPage // by VPN
	slots [lcSlots]bool
}

// lcModel drives one address-space family and a plain reference model side
// by side.
type lcModel struct {
	t         *testing.T
	rng       *rand.Rand
	spaces    []*lcSpace
	nextFrame int
	// recycledMaps counts Maps issued while the family's free list held
	// buffers, so the test can show it exercised buffer reuse.
	recycledMaps int
}

// sharers counts the live mappings of a model frame.
func (m *lcModel) sharers(frame int) int {
	n := 0
	for _, sp := range m.spaces {
		for _, p := range sp.pages {
			if p.frame == frame {
				n++
			}
		}
	}
	return n
}

func (m *lcModel) mapSlot(sp *lcSpace, slot int) {
	if sp.slots[slot] {
		return
	}
	if len(sp.as.pool.free) > 0 {
		m.recycledMaps++
	}
	if err := sp.as.Map(lcBase(slot), lcSlotPages*lcPage, ProtRW, "slot"); err != nil {
		m.t.Fatalf("map slot %d: %v", slot, err)
	}
	sp.slots[slot] = true
	for i := uint64(0); i < lcSlotPages; i++ {
		m.nextFrame++
		sp.pages[lcBase(slot)/lcPage+i] = lcModelPage{prot: ProtRW, frame: m.nextFrame}
	}
}

func (m *lcModel) unmapSlot(sp *lcSpace, slot int) {
	if !sp.slots[slot] {
		return
	}
	if err := sp.as.Unmap(lcBase(slot), lcSlotPages*lcPage); err != nil {
		m.t.Fatalf("unmap slot %d: %v", slot, err)
	}
	sp.slots[slot] = false
	for i := uint64(0); i < lcSlotPages; i++ {
		delete(sp.pages, lcBase(slot)/lcPage+i)
	}
}

func (m *lcModel) fork(sp *lcSpace) {
	if len(m.spaces) >= lcMaxSpaces {
		return
	}
	child := &lcSpace{as: sp.as.Fork(), pages: make(map[uint64]lcModelPage, len(sp.pages)), slots: sp.slots}
	for vpn, p := range sp.pages {
		child.pages[vpn] = p
	}
	m.spaces = append(m.spaces, child)
}

// write stores random bytes inside one page; a write to a read-only page
// must fault and change nothing.
func (m *lcModel) write(sp *lcSpace, slot int) {
	if !sp.slots[slot] {
		return
	}
	vpn := lcBase(slot)/lcPage + uint64(m.rng.Intn(lcSlotPages))
	off := m.rng.Intn(lcPage)
	buf := make([]byte, 1+m.rng.Intn(lcPage-off))
	m.rng.Read(buf)
	p := sp.pages[vpn]
	f := sp.as.Write(vpn*lcPage+uint64(off), buf)
	if p.prot&ProtWrite == 0 {
		if f == nil || f.Kind != FaultProt {
			m.t.Fatalf("write to read-only page %#x: fault %v, want a protection fault", vpn, f)
		}
		return
	}
	if f != nil {
		m.t.Fatalf("write to page %#x: %v", vpn, f)
	}
	if m.sharers(p.frame) > 1 {
		m.nextFrame++
		p.frame = m.nextFrame
	}
	copy(p.data[off:], buf)
	sp.pages[vpn] = p
}

func (m *lcModel) protect(sp *lcSpace, slot int) {
	if !sp.slots[slot] {
		return
	}
	lo := m.rng.Intn(lcSlotPages)
	hi := lo + 1 + m.rng.Intn(lcSlotPages-lo)
	prot := ProtRW
	if m.rng.Intn(2) == 0 {
		prot = ProtRead
	}
	base := lcBase(slot) + uint64(lo)*lcPage
	if err := sp.as.Protect(base, uint64(hi-lo)*lcPage, prot); err != nil {
		m.t.Fatalf("protect [%#x,+%d pages): %v", base, hi-lo, err)
	}
	for i := lo; i < hi; i++ {
		vpn := lcBase(slot)/lcPage + uint64(i)
		p := sp.pages[vpn]
		p.prot = prot
		sp.pages[vpn] = p
	}
}

func (m *lcModel) release(i int) {
	if len(m.spaces) == 1 {
		return
	}
	m.spaces[i].as.Release()
	m.spaces = append(m.spaces[:i], m.spaces[i+1:]...)
}

// check compares every live space against the model: contents, map counts,
// frame sharing, page count and PSS.
func (m *lcModel) check(step string) {
	framesByModel := map[int]*Frame{}
	buf := make([]byte, lcPage)
	for si, sp := range m.spaces {
		if got := sp.as.PageCount(); got != len(sp.pages) {
			m.t.Fatalf("%s: space %d maps %d pages, model %d", step, si, got, len(sp.pages))
		}
		var pss float64
		for vpn, p := range sp.pages {
			// A live page on a dead frame would read forever, so the frame
			// is checked before its contents.
			fr := sp.as.FrameAt(vpn)
			if len(fr.Data()) != lcPage {
				m.t.Fatalf("%s: space %d page %#x maps a frame with %d bytes", step, si, vpn, len(fr.Data()))
			}
			if f := sp.as.Read(vpn*lcPage, buf); f != nil {
				m.t.Fatalf("%s: space %d read page %#x: %v", step, si, vpn, f)
			}
			if !bytes.Equal(buf, p.data[:]) {
				m.t.Fatalf("%s: space %d page %#x reads %x, model %x", step, si, vpn, buf, p.data)
			}
			n := m.sharers(p.frame)
			if got := sp.as.MapCountOf(vpn * lcPage); got != n {
				m.t.Fatalf("%s: space %d page %#x map count %d, model %d", step, si, vpn, got, n)
			}
			if prev, ok := framesByModel[p.frame]; ok && prev != fr {
				m.t.Fatalf("%s: space %d page %#x: model frame %d backed by two frames", step, si, vpn, p.frame)
			}
			framesByModel[p.frame] = fr
			pss += lcPage / float64(n)
		}
		if got := sp.as.PSSBytes(); math.Abs(got-pss) > 1e-9*math.Max(1, pss) {
			m.t.Fatalf("%s: space %d PSS %v, model %v", step, si, got, pss)
		}
	}
	if len(framesByModel) != len(uniqueFrames(m.spaces)) {
		m.t.Fatalf("%s: model frames map to shared live frames", step)
	}
}

// uniqueFrames collects the distinct live frames of every space.
func uniqueFrames(spaces []*lcSpace) map[*Frame]bool {
	out := map[*Frame]bool{}
	for _, sp := range spaces {
		for vpn := range sp.pages {
			out[sp.as.FrameAt(vpn)] = true
		}
	}
	return out
}

// TestFrameLifecycleProperty runs seeded random sequences of Map, Fork,
// Write, Protect, Unmap and Release over one address-space family and
// checks every live space against a plain model after every step. Recycled
// buffers must never leak: a Map after a dirty Release reads zeros, a COW
// copy reads its source, and a live page never changes under a sibling's
// writes or releases.
func TestFrameLifecycleProperty(t *testing.T) {
	recycled := 0
	for seed := int64(1); seed <= 40; seed++ {
		m := &lcModel{t: t, rng: rand.New(rand.NewSource(seed))}
		m.spaces = []*lcSpace{{as: NewAddressSpace(lcPage), pages: map[uint64]lcModelPage{}}}
		for op := 0; op < 300; op++ {
			si := m.rng.Intn(len(m.spaces))
			sp, slot := m.spaces[si], m.rng.Intn(lcSlots)
			var name string
			switch k := m.rng.Intn(10); {
			case k < 2:
				name = "map"
				m.mapSlot(sp, slot)
			case k < 3:
				name = "unmap"
				m.unmapSlot(sp, slot)
			case k < 4:
				name = "fork"
				m.fork(sp)
			case k < 7:
				name = "write"
				m.write(sp, slot)
			case k < 8:
				name = "protect"
				m.protect(sp, slot)
			default:
				name = "release"
				m.release(si)
			}
			m.check(fmt.Sprintf("seed %d op %d (%s)", seed, op, name))
		}
		recycled += m.recycledMaps
	}
	if recycled == 0 {
		t.Fatal("no Map ever drew on a nonempty free list: recycling went untested")
	}
}

// TestDeadFrameDetached pins what happens to a frame whose last mapping
// goes away: its buffer returns to the family and the frame keeps none of
// it, while a sibling that still maps a shared frame keeps its contents.
func TestDeadFrameDetached(t *testing.T) {
	parent := newAS(t)
	mustMap(t, parent, 0, 2*pg)
	parent.StoreU64(0, 0xfeed) //nolint:errcheck
	child := parent.Fork()
	child.StoreU64(pg, 0xbeef) //nolint:errcheck // COW: child owns a private page 1
	private := child.FrameAt(1)
	child.Release()

	if private.Data() != nil {
		t.Fatal("a dead frame still holds its buffer")
	}
	if got := len(parent.pool.free); got != 1 {
		t.Fatalf("free list holds %d buffers after the release, want 1", got)
	}
	if v, _ := parent.LoadU64(0); v != 0xfeed {
		t.Fatalf("parent page 0 = %#x after the child's release, want 0xfeed", v)
	}
	// The next Map draws the recycled (dirty) buffer and must zero it.
	mustMap(t, parent, 4*pg, pg)
	if len(parent.pool.free) != 0 {
		t.Fatal("Map did not take the recycled buffer")
	}
	if v, _ := parent.LoadU64(4*pg + 0); v != 0 {
		t.Fatalf("a Map after a dirty release reads %#x, want 0", v)
	}
	if parent.FrameAt(4).ID() == private.ID() {
		t.Fatal("a recycled buffer reused its dead frame's identity")
	}
}
