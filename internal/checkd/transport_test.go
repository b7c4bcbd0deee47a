package checkd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parallaft/internal/packet"
	"parallaft/internal/pagestore"
)

// startServer serves on a fresh Unix socket under the test's temp dir and
// tears down gracefully when the test ends.
func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "checkd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatalf("listen %s: %v", sock, err)
	}
	srv := NewServer(opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, sock
}

// TestUnixSocketRoundTrip is the acceptance path: packets exported from an
// in-process run travel over a Unix socket to a daemon-side executor, and
// the verdicts coming back are identical to the in-process transport's.
func TestUnixSocketRoundTrip(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(240_000))
	if len(pkts) < 2 {
		t.Fatalf("want several packets, got %d", len(pkts))
	}
	local, err := CheckAll(store, pkts, Options{})
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}

	_, sock := startServer(t, Options{Workers: 2})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	remote, err := CheckOver(conn, store, pkts)
	if err != nil {
		t.Fatalf("CheckOver: %v", err)
	}
	if !reflect.DeepEqual(local, remote) {
		t.Fatalf("socket verdicts differ from in-process:\n local %+v\nremote %+v", local, remote)
	}
}

// TestSocketRejectsBadVersion pins the 'E' path: an intake rejection is
// reported to the client as a typed remote error, not a dropped connection.
func TestSocketRejectsBadVersion(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	bad := *pkts[0]
	bad.Version = packet.Version + 1

	_, sock := startServer(t, Options{})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	_, err = CheckOver(conn, store, []*packet.CheckPacket{&bad})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("CheckOver = %v, want RemoteError", err)
	}
	if !strings.Contains(remote.Msg, "version") {
		t.Fatalf("remote error %q does not mention the version", remote.Msg)
	}
}

// TestSocketRefusesBadPageSize sends a packet whose page size is not a
// power of two but whose checksum and config digest verify. The server must
// answer with an 'E' refusal instead of crashing, and go on serving: a valid
// packet on the next connection gets an OK verdict.
func TestSocketRefusesBadPageSize(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	bad := *pkts[0]
	bad.Config.PageSize = 3
	bad.ConfigDigest = bad.Config.Digest()

	_, sock := startServer(t, Options{})
	check := func(pkt *packet.CheckPacket) ([]Verdict, error) {
		conn, err := net.Dial("unix", sock)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		return CheckOver(conn, store, []*packet.CheckPacket{pkt})
	}
	_, err := check(&bad)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("CheckOver(page size 3) = %v, want RemoteError", err)
	}
	if !strings.Contains(remote.Msg, "page size") {
		t.Fatalf("remote error %q does not mention the page size", remote.Msg)
	}
	verdicts, err := check(pkts[0])
	if err != nil {
		t.Fatalf("CheckOver after the refusal: %v", err)
	}
	if len(verdicts) != 1 || !verdicts[0].OK {
		t.Fatalf("verdicts after the refusal = %+v, want one OK verdict", verdicts)
	}
}

// TestReadFrameRejectsDamage is the framing hardening table: truncated
// headers, truncated payloads, and corrupt length prefixes must come back as
// errors — with an oversized length producing the typed ErrFrameTooLarge
// before any allocation happens — never as a giant allocation or a hang.
func TestReadFrameRejectsDamage(t *testing.T) {
	frame := func(typ byte, payloadLen uint32, payload []byte) []byte {
		b := make([]byte, 5+len(payload))
		b[0] = typ
		binary.LittleEndian.PutUint32(b[1:], payloadLen)
		copy(b[5:], payload)
		return b
	}
	cases := []struct {
		name  string
		input []byte
		want  error // nil = any error acceptable; io.ErrUnexpectedEOF etc.
	}{
		{"empty input", nil, io.EOF},
		{"truncated header", []byte{'V', 3, 0}, io.ErrUnexpectedEOF},
		{"truncated payload", frame('V', 10, []byte("abc")), io.ErrUnexpectedEOF},
		{"length over limit", frame('C', MaxFrameLen+1, nil), ErrFrameTooLarge},
		{"length maxed out", frame('P', ^uint32(0), nil), ErrFrameTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadFrame(bytes.NewReader(tc.input))
			if err == nil {
				t.Fatal("ReadFrame accepted damaged input")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("ReadFrame = %v, want %v", err, tc.want)
			}
		})
	}

	// The typed oversize error also still matches the protocol sentinel,
	// so existing errors.Is(err, ErrProtocol) handling keeps working.
	_, _, err := ReadFrame(bytes.NewReader(frame('C', MaxFrameLen+1, nil)))
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized-frame error %v does not wrap ErrProtocol", err)
	}
}

// TestReadFrameRoundTrip pins the healthy path, including the boundary
// cases the damage table brackets: empty payloads and payload bytes that
// look like frame headers.
func TestReadFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), []byte("VDCE\x00\xff\x00"), bytes.Repeat([]byte{0xab}, 1<<16)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte('A'+i), p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if typ != byte('A'+i) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d = (%q, %d bytes), want (%q, %d bytes)", i, typ, len(got), 'A'+i, len(p))
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left over", buf.Len())
	}
}

// TestServerEchoesHeartbeat pins the 'H' liveness frame: the server echoes
// the ping payload verbatim without disturbing the session, and a session
// that mixes heartbeats with packets still produces every verdict.
func TestServerEchoesHeartbeat(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	_, sock := startServer(t, Options{Workers: 1})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	if err := WriteFrame(conn, FrameHeartbeat, []byte("ping-7")); err != nil {
		t.Fatalf("write ping: %v", err)
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("read pong: %v", err)
	}
	if typ != FrameHeartbeat || string(payload) != "ping-7" {
		t.Fatalf("pong = (%q, %q), want ('H', \"ping-7\")", typ, payload)
	}

	// The session is undisturbed: a normal check run still works on it.
	verdicts, err := CheckOver(conn, store, pkts)
	if err != nil {
		t.Fatalf("CheckOver after heartbeat: %v", err)
	}
	if len(verdicts) != len(pkts) {
		t.Fatalf("%d verdicts for %d packets", len(verdicts), len(pkts))
	}
}

// failingConn drops the connection after allowing a fixed number of writes,
// standing in for a node dying mid-session.
type failingConn struct {
	writesLeft int
}

func (c *failingConn) Read(p []byte) (int, error) { return 0, io.ErrClosedPipe }
func (c *failingConn) Write(p []byte) (int, error) {
	if c.writesLeft <= 0 {
		return 0, io.ErrClosedPipe
	}
	c.writesLeft--
	return len(p), nil
}
func (c *failingConn) RemoteAddr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(10, 0, 0, 7), Port: 9141}
}

// TestCheckOverTypedConnError pins the failure taxonomy: transport-level
// failures surface as *ConnError carrying the node address and the packet
// index in flight, distinguishable by type from the *RemoteError verdict
// rejection (covered by TestSocketRejectsBadVersion/Digest).
func TestCheckOverTypedConnError(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	if len(pkts) < 2 {
		t.Fatalf("want several packets, got %d", len(pkts))
	}
	// WriteFrame issues two Write calls per frame (header, payload).
	chunkWrites := 2 * store.Len()

	cases := []struct {
		name       string
		writes     int
		wantOp     string
		wantPacket int
	}{
		{"dies mid-chunk-upload", chunkWrites / 2, "send chunk", -1},
		{"dies sending a packet", chunkWrites + 3, "send packet", 1},
		{"dies awaiting verdicts", 1 << 30, "read verdict", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := &failingConn{writesLeft: tc.writes}
			_, err := CheckOver(conn, store, pkts)
			var ce *ConnError
			if !errors.As(err, &ce) {
				t.Fatalf("CheckOver = %v, want *ConnError", err)
			}
			if ce.Op != tc.wantOp {
				t.Errorf("Op = %q, want %q", ce.Op, tc.wantOp)
			}
			if ce.Packet != tc.wantPacket {
				t.Errorf("Packet = %d, want %d", ce.Packet, tc.wantPacket)
			}
			if !strings.Contains(ce.Addr, "10.0.0.7:9141") {
				t.Errorf("Addr = %q, want the node address in it", ce.Addr)
			}
			if !strings.Contains(ce.Error(), "10.0.0.7:9141") {
				t.Errorf("Error() = %q does not name the node", ce.Error())
			}
			var re *RemoteError
			if errors.As(err, &re) {
				t.Error("connection failure also matched *RemoteError; the classes must be disjoint")
			}
		})
	}
}

// oversizePacket is pkt with one more syscall event carrying five 14 MiB
// regions: about 70 MiB encoded, over MaxFrameLen.
func oversizePacket(pkt *packet.CheckPacket) *packet.CheckPacket {
	big := *pkt
	data := make([]byte, 14<<20)
	regions := make([]packet.Region, 5)
	for i := range regions {
		regions[i] = packet.Region{Addr: uint64(i) << 24, Data: data}
	}
	big.Events = append(append([]packet.Event(nil), pkt.Events...),
		packet.Event{Kind: packet.EvSyscall, Syscall: &packet.SyscallEvent{In: regions}})
	return &big
}

// TestCheckOverRefusesOversizePacket: a packet too large for one frame ends
// the session with an error that wraps ErrFrameTooLarge and names the size,
// and no byte of it reaches the wire.
func TestCheckOverRefusesOversizePacket(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	if len(pkts) < 2 {
		t.Fatalf("want several packets, got %d", len(pkts))
	}
	big := oversizePacket(pkts[0])
	size := len(packet.Encode(big))

	var sent bytes.Buffer
	conn := struct {
		io.Reader
		io.Writer
	}{strings.NewReader(""), &sent}
	_, err := CheckOver(conn, store, []*packet.CheckPacket{pkts[0], big, pkts[1]})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("CheckOver = %v, want ErrFrameTooLarge", err)
	}
	var ce *ConnError
	if errors.As(err, &ce) {
		t.Error("an oversize packet is not a transport failure; it must not be a *ConnError")
	}
	if !strings.Contains(err.Error(), fmt.Sprint(size)) {
		t.Errorf("error %q does not name the %d-byte encoding", err, size)
	}

	// The wire holds whole frames only: every chunk, then the one packet
	// before the oversize one.
	var chunks, packets int
	for sent.Len() > 0 {
		typ, _, err := ReadFrame(&sent)
		if err != nil {
			t.Fatalf("wire damaged: %v", err)
		}
		switch typ {
		case FrameChunk:
			chunks++
		case FramePacket:
			packets++
		default:
			t.Fatalf("unexpected frame %q on the wire", typ)
		}
	}
	if chunks != store.Len() || packets != 1 {
		t.Errorf("wire carried %d chunks and %d packets, want %d and 1", chunks, packets, store.Len())
	}
}

// TestWriteChunkFrame pins WriteChunk to the frame WriteFrame would write
// for the same key and data.
func TestWriteChunkFrame(t *testing.T) {
	data := []byte("page contents")
	var got, want bytes.Buffer
	if err := WriteChunk(&got, pagestore.Key(0x1122334455667788), data); err != nil {
		t.Fatal(err)
	}
	payload := binary.LittleEndian.AppendUint64(nil, 0x1122334455667788)
	if err := WriteFrame(&want, FrameChunk, append(payload, data...)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteChunk wrote % x, want % x", got.Bytes(), want.Bytes())
	}
}

// TestSocketRejectsBadDigest covers the other typed rejection end to end.
func TestSocketRejectsBadDigest(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(120_000))
	bad := *pkts[0]
	bad.ConfigDigest++

	_, sock := startServer(t, Options{})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	_, err = CheckOver(conn, store, []*packet.CheckPacket{&bad})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("CheckOver = %v, want RemoteError", err)
	}
	if !strings.Contains(remote.Msg, "digest") {
		t.Fatalf("remote error %q does not mention the digest", remote.Msg)
	}
}
