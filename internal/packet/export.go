package packet

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"parallaft/internal/pagestore"
)

// Exporter is the seam between a recording runtime and a packet consumer:
// the runtime interns pages and code into Store while building each
// packet, then hands the finished packet to Sink. Sink errors propagate out
// of the run, so a broken export is a hard failure, not silent data loss.
type Exporter struct {
	Store *pagestore.Store
	Sink  func(*CheckPacket) error
}

// StoreName is the pagestore file inside an export directory.
const StoreName = "pages.store"

// DirExporter writes one .pkt file per sealed segment plus a shared
// pagestore, the on-disk layout `paftcheckd -verify` consumes:
//
//	dir/seg-00000.pkt
//	dir/seg-00001.pkt
//	...
//	dir/pages.store
//
// The pagestore is written once on Close, after every segment has interned
// its pages, so cross-segment dedup is reflected on disk.
type DirExporter struct {
	dir   string
	store *pagestore.Store
	wrote int
}

// NewDirExporter creates (or reuses) dir and an empty pagestore hashed
// under seed.
func NewDirExporter(dir string, seed uint64) (*DirExporter, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("packet: create export dir: %w", err)
	}
	return &DirExporter{dir: dir, store: pagestore.New(seed)}, nil
}

// Exporter returns the runtime-facing seam backed by this directory.
func (d *DirExporter) Exporter() *Exporter {
	return &Exporter{Store: d.store, Sink: d.write}
}

// Count returns the number of packets written so far.
func (d *DirExporter) Count() int { return d.wrote }

// Store returns the shared pagestore.
func (d *DirExporter) Store() *pagestore.Store { return d.store }

func (d *DirExporter) write(p *CheckPacket) error {
	name := filepath.Join(d.dir, fmt.Sprintf("seg-%05d.pkt", p.Segment))
	if err := os.WriteFile(name, Encode(p), 0o666); err != nil {
		return fmt.Errorf("packet: write %s: %w", name, err)
	}
	d.wrote++
	return nil
}

// Close flushes the shared pagestore to disk.
func (d *DirExporter) Close() error {
	f, err := os.Create(filepath.Join(d.dir, StoreName))
	if err != nil {
		return fmt.Errorf("packet: write pagestore: %w", err)
	}
	if err := writeStore(f, d.store); err != nil {
		f.Close()
		return fmt.Errorf("packet: write pagestore: %w", err)
	}
	return f.Close()
}

// writeStore serializes store through a buffer: WriteTo makes four small
// writes per chunk, which would otherwise each be a syscall.
func writeStore(w io.Writer, store *pagestore.Store) error {
	bw := bufio.NewWriterSize(w, storeBufSize)
	if _, err := store.WriteTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// storeBufSize is the buffer between the pagestore codec and its file.
const storeBufSize = 256 << 10

// ReadDir loads an export directory: the shared pagestore and every packet,
// sorted by file name (which orders them by segment index).
func ReadDir(dir string) (*pagestore.Store, []*CheckPacket, error) {
	f, err := os.Open(filepath.Join(dir, StoreName))
	if err != nil {
		return nil, nil, fmt.Errorf("packet: open pagestore: %w", err)
	}
	store, err := pagestore.ReadFrom(bufio.NewReaderSize(f, storeBufSize))
	f.Close()
	if err != nil {
		return nil, nil, err
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ".pkt") {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)

	pkts := make([]*CheckPacket, 0, len(names))
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		p, err := Decode(b)
		if err != nil {
			return nil, nil, fmt.Errorf("packet: decode %s: %w", name, err)
		}
		pkts = append(pkts, p)
	}
	return store, pkts, nil
}
