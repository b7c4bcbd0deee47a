package checkd

import (
	"errors"
	"fmt"

	"parallaft/internal/packet"
)

// Typed intake rejections. Submit returns these synchronously so a client
// learns immediately — before any replay work is queued — that a packet can
// never produce a meaningful verdict here.
var (
	// ErrVersion: the packet's wire version is not the one this daemon
	// speaks. Distinct from packet.ErrVersion (a decode-time failure): this
	// fires on a well-formed packet whose recorded Version field disagrees.
	ErrVersion = errors.New("checkd: unsupported packet version")

	// ErrConfigDigest: the packet's config digest disagrees — either with
	// its own embedded config (tampering or corruption past the codec) or
	// with the digest this executor is pinned to. Verdicts are only
	// comparable across identical verdict-relevant configs, so mixing
	// digests in one stream is rejected rather than silently checked.
	ErrConfigDigest = errors.New("checkd: packet config digest mismatch")

	// ErrPageSize: the packet's recorded page size is zero or not a power
	// of two, so no address space can be rebuilt from it.
	ErrPageSize = errors.New("checkd: packet page size is not a power of two")

	// ErrMissingChunk: a content-addressed chunk referenced by a packet is
	// not (yet) in the store. Transient under a streaming transport — the
	// executor retries before giving up.
	ErrMissingChunk = errors.New("checkd: referenced chunk missing from store")

	// ErrClosed: Submit after Close.
	ErrClosed = errors.New("checkd: executor closed")
)

// checkPageSize refuses a packet whose page size no address space can have.
func checkPageSize(pkt *packet.CheckPacket) error {
	if ps := pkt.Config.PageSize; ps == 0 || ps&(ps-1) != 0 {
		return fmt.Errorf("%w: %d", ErrPageSize, ps)
	}
	return nil
}
