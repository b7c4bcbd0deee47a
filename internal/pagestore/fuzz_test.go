package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// storeFrom builds a store out of arbitrary bytes: the first byte seeds it,
// and the rest is cut into chunks of up to 31 bytes, each length taken from
// the byte before the chunk. Repeated contents dedup into multi-ref chunks,
// and every chunk whose length is a multiple of three is released once, so
// refs also fall and chunks get reclaimed.
func storeFrom(b []byte) *Store {
	if len(b) == 0 {
		return New(0)
	}
	s := New(uint64(b[0]))
	b = b[1:]
	var drop []Key
	for len(b) > 0 {
		n := min(int(b[0]%32), len(b)-1)
		k := s.Put(b[1 : 1+n])
		if n%3 == 0 {
			drop = append(drop, k)
		}
		b = b[1+n:]
	}
	for _, k := range drop {
		s.Release(k)
	}
	return s
}

// checkRoundTrip serializes s, requires the reported length to be exactly
// the bytes written, and requires ReadFrom to restore the seed and every
// chunk's key, refs and data — and to serialize back to the same bytes.
func checkRoundTrip(t *testing.T, s *Store) {
	t.Helper()
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadFrom(WriteTo(s)): %v", err)
	}
	if got.Seed() != s.Seed() || got.Len() != s.Len() {
		t.Fatalf("restored seed %#x with %d chunks, want %#x with %d",
			got.Seed(), got.Len(), s.Seed(), s.Len())
	}
	s.Each(func(k Key, data []byte) {
		if !bytes.Equal(got.Get(k), data) || !got.Contains(k) {
			t.Fatalf("chunk %#x: data did not survive the round trip", uint64(k))
		}
		if got.Refs(k) != s.Refs(k) {
			t.Fatalf("chunk %#x: refs %d, want %d", uint64(k), got.Refs(k), s.Refs(k))
		}
	})
	var again bytes.Buffer
	if _, err := got.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("a restored store serializes to different bytes")
	}
}

// FuzzStoreRoundTrip checks the serialized store on arbitrary bytes: ReadFrom
// never panics and refuses what it cannot parse with ErrBadStore, whatever
// it accepts round-trips, and a store built from the bytes survives
// WriteTo → ReadFrom intact.
func FuzzStoreRoundTrip(f *testing.F) {
	seed := New(0xfeed)
	seed.Put([]byte("alpha"))
	seed.Put([]byte("alpha"))
	seed.Put([]byte("beta"))
	var buf bytes.Buffer
	if _, err := seed.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// The same chunk listed twice: a duplicate key must be refused.
	one := New(1)
	one.Put([]byte("gamma"))
	buf.Reset()
	if _, err := one.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	dup := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint32(dup[16:], 2)
	f.Add(append(dup, buf.Bytes()[storeHeaderLen:]...))
	f.Add([]byte{})
	f.Add([]byte("\x07\x05alpha\x04beta\x05alpha\x00\x03xyz"))

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := ReadFrom(bytes.NewReader(b))
		if err != nil {
			if !errors.Is(err, ErrBadStore) {
				t.Fatalf("ReadFrom error %v does not wrap ErrBadStore", err)
			}
		} else {
			checkRoundTrip(t, s)
		}
		checkRoundTrip(t, storeFrom(b))
	})
}
