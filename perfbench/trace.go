package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Every span of a
// pass carries that pass's number as its trace ID; Parent is the enclosing
// span (0 for a pass root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	trace int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record adds one finished span and returns its ID (0 on a nil tracer).
// Safe for concurrent use: farm verdicts are timed on their own goroutine.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: t.trace, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// since records a span from start to now and returns its duration.
func (t *tracer) since(name string, parent int, start time.Time) time.Duration {
	end := time.Now()
	t.record(name, parent, start, end)
	return end.Sub(start)
}

// open reserves a span whose end is filled in by close; children recorded
// in between can name it as their parent.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.record(name, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// beginPass starts a new trace ID and opens its root span.
func (t *tracer) beginPass() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.trace++
	t.mu.Unlock()
	return t.open("pass", 0)
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	CPUByPkg map[string]float64 `json:"cpu_seconds_by_package"`
}

func writeTrace(dir string, f traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("perfbench-%s-seed%d.json", f.Workload, f.Seed))
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// --- CPU attribution from a runtime/pprof profile ---------------------------

// modulePrefix names this repository's packages in profile symbols.
const modulePrefix = "parallaft/internal/"

// attributeCPU charges every sample of a gzipped pprof CPU profile to the
// innermost frame that belongs to this module, keyed by package path below
// internal/ ("proc", "telemetry/profile", ...). A memmove called from
// packet.Encode therefore counts to "packet". Samples with no module frame
// go to "benchmark" when the benchmark's own code is on the stack and to
// "runtime" otherwise (GC workers, the scheduler, the network poller).
func attributeCPU(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	// Resolve each location to its package once.
	pkgOf := make(map[uint64]string, len(p.locations))
	for id, fns := range p.locations {
		pkg := ""
		for _, fn := range fns { // innermost inlined frame first
			if pkg = p.pkgOf(fn); pkg != "" {
				break
			}
		}
		pkgOf[id] = pkg
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			continue
		}
		owner := "runtime"
		for _, loc := range s.locs { // leaf first
			if pkg := pkgOf[loc]; pkg != "" {
				owner = pkg
				break
			}
		}
		out[owner] += float64(s.values[cpu]) / 1e9
	}
	return out, nil
}

// pkgOf maps a function ID to its module package, "benchmark" for this
// command's own functions, or "" for anything else.
func (p *profileData) pkgOf(fn uint64) string {
	name := p.str(p.functions[fn])
	switch {
	case strings.HasPrefix(name, modulePrefix):
		rest := name[len(modulePrefix):]
		// Package directories hold no '.', so the path ends at the first.
		dot := strings.IndexByte(rest, '.')
		if dot < 0 {
			return rest
		}
		return rest[:dot]
	case strings.HasPrefix(name, "main."):
		return "benchmark"
	}
	return ""
}

// layerCPU sums package CPU seconds into the benchmark's layers.
func layerCPU(byPkg map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for pkg, s := range byPkg {
		top := pkg
		if i := strings.IndexByte(pkg, '/'); i >= 0 {
			top = pkg[:i]
		}
		switch top {
		case "hashx":
			top = "compare"
		case "sim":
			top = "oskernel"
		}
		out[top] += s
	}
	return out
}

// profileData is the part of profile.proto the attribution reads.
type profileData struct {
	strings     []string
	sampleTypes []int64 // string index of each value's type
	samples     []sample
	locations   map[uint64][]uint64 // location ID → function IDs, innermost first
	functions   map[uint64]int64    // function ID → name string index
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profileData) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func parseProfile(b []byte) (*profileData, error) {
	p := &profileData{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return eachVarint(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks a protobuf message, passing each field's number and its
// varint value or length-delimited payload (fixed-width fields are skipped).
func eachField(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint handles a repeated integer field in either encoding: a single
// varint (data == nil) or a packed run.
func eachVarint(v uint64, data []byte, f func(uint64)) error {
	if data == nil {
		f(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		f(x)
		data = data[n:]
	}
	return nil
}
