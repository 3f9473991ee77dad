// Index frames make binary traces seekable: alongside the data frames of
// binary.go, the writer emits CRC-framed index frames summarising each data
// frame — byte offset, payload length, event count, tick range, event-kind
// flags and a node-membership summary — so a query (query.go) can seek to
// the few frames that can possibly match instead of decoding the file.
//
// Frame layout (same framing discipline as data frames):
//
//	magic "UTI1" | uint32 payload len | uint32 CRC-32C | payload
//	payload: uvarint version (1) | uvarint entry count | count × entry
//	entry:   uvarint data-frame byte offset (relative to the index frame's
//	         end; the writer emits the pair adjacently, so it writes 0)
//	         uvarint data-frame payload length
//	         uvarint event count
//	         uvarint min tick | uvarint tick span (max-min)
//	         uvarint flags (bit0 seized, bit1 decodes, bit2 mass deliveries)
//	         node summary: uvarint kind
//	           kind 0: none (any node may appear in the frame)
//	           kind 1: exact — uvarint n, n × uvarint delta-coded sorted ids
//	           kind 2: bloom — uvarint byte len, filter bits (4 hashes)
//
// The index is strictly advisory: entries only ever *prune* frames, the
// predicate is re-applied to every decoded event, and an entry that does not
// match a real data frame (offset/length mismatch, torn tail) is ignored —
// the frame is then decoded like any other. Readers that predate the index
// (or that just stream events) skip index frames after validating their CRC,
// so an indexed file decodes exactly like an unindexed one. A trace in the
// pre-index layout answers the same queries via full scan.
package trace

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
)

var indexMagic = [4]byte{'U', 'T', 'I', '1'}

const (
	// indexVersion is bumped when the entry layout changes; a decoder that
	// sees a newer version ignores the frame (queries fall back to scanning
	// the frames it would have covered) instead of mis-decoding it.
	indexVersion = 1

	// exactMaxIDs is the largest distinct-node count stored as an exact
	// sorted id list; larger sets switch to a bloom filter.
	exactMaxIDs = 128

	// maxBloomBytes caps a summary filter (writer and reader side): 64K bits
	// holds the practical per-frame distinct-node range at ~8 bits/element,
	// and a hostile length field cannot force a larger allocation.
	maxBloomBytes = 8 << 10

	// Event-kind flags of an index entry: whether any event in the frame has
	// injector-seized transmitters, successful decodes, or mass deliveries.
	flagSeized  = 1 << 0
	flagDecodes = 1 << 1
	flagMass    = 1 << 2
)

// indexEntry summarises one data frame.
type indexEntry struct {
	off              int64 // frame-magic offset, relative to the index frame's end
	plen             int   // the frame's declared payload length
	events           int
	minTick, maxTick int
	flags            uint8
	exact            []int  // sorted distinct node ids (nil when bloom or none)
	bloom            []byte // bloom filter over node ids (nil when exact or none)
}

// overlapsTicks reports whether the frame's tick range intersects the
// half-open window [min, max); max <= 0 means unbounded above.
func (e *indexEntry) overlapsTicks(min, max int) bool {
	if e.maxTick < min {
		return false
	}
	if max > 0 && e.minTick >= max {
		return false
	}
	return true
}

// mayContainNode reports whether node id can appear in the frame. A missing
// summary answers true (the index only ever prunes).
func (e *indexEntry) mayContainNode(id int) bool {
	if e.exact != nil {
		i := sort.SearchInts(e.exact, id)
		return i < len(e.exact) && e.exact[i] == id
	}
	if e.bloom != nil {
		return bloomContains(e.bloom, id)
	}
	return true
}

// mix64 is the splitmix64 finalizer, the hash behind the bloom bit positions.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// bloomAdd sets id's 4 bit positions in a filter of nbits bits, derived from
// one 64-bit hash (16 bits per position, reduced modulo nbits).
func bloomAdd(filter []byte, id int) {
	nbits := uint64(len(filter)) * 8
	h := mix64(uint64(id))
	for i := 0; i < 4; i++ {
		pos := (h >> (16 * i)) & 0xffff % nbits
		filter[pos/8] |= 1 << (pos % 8)
	}
}

func bloomContains(filter []byte, id int) bool {
	nbits := uint64(len(filter)) * 8
	if nbits == 0 {
		return true
	}
	h := mix64(uint64(id))
	for i := 0; i < 4; i++ {
		pos := (h >> (16 * i)) & 0xffff % nbits
		if filter[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}

// bloomSize picks the filter size for a distinct-node count: ~8 bits per
// element rounded up to a power of two, capped at maxBloomBytes.
func bloomSize(distinct int) int {
	bytes := 1
	for bytes*8 < 8*distinct && bytes < maxBloomBytes {
		bytes *= 2
	}
	return bytes
}

// frameSummary accumulates the index entry of the pending data frame while
// events are recorded.
type frameSummary struct {
	nodes    map[int]struct{}
	minTick  int
	maxTick  int
	flags    uint8
	hasTicks bool
}

func (s *frameSummary) observe(tick int, transmitters, massDeliverers, decoders []int, decodes, seized int) {
	if s.nodes == nil {
		s.nodes = make(map[int]struct{})
	}
	if !s.hasTicks || tick < s.minTick {
		s.minTick = tick
	}
	if !s.hasTicks || tick > s.maxTick {
		s.maxTick = tick
	}
	s.hasTicks = true
	if seized > 0 {
		s.flags |= flagSeized
	}
	if decodes > 0 {
		s.flags |= flagDecodes
	}
	if len(massDeliverers) > 0 {
		s.flags |= flagMass
	}
	for _, id := range transmitters {
		s.nodes[id] = struct{}{}
	}
	for _, id := range massDeliverers {
		s.nodes[id] = struct{}{}
	}
	for _, id := range decoders {
		s.nodes[id] = struct{}{}
	}
}

// take finalizes the summary into an entry for the frame just committed and
// resets the accumulator for the next frame.
func (s *frameSummary) take(off int64, plen, events int) indexEntry {
	e := indexEntry{
		off: off, plen: plen, events: events,
		minTick: s.minTick, maxTick: s.maxTick, flags: s.flags,
	}
	if len(s.nodes) <= exactMaxIDs {
		e.exact = make([]int, 0, len(s.nodes))
		for id := range s.nodes {
			e.exact = append(e.exact, id)
		}
		sort.Ints(e.exact)
	} else {
		e.bloom = make([]byte, bloomSize(len(s.nodes)))
		for id := range s.nodes {
			bloomAdd(e.bloom, id)
		}
	}
	clear(s.nodes)
	s.flags = 0
	s.hasTicks = false
	s.minTick, s.maxTick = 0, 0
	return e
}

// appendIndexPayload encodes the entries as one index-frame payload.
func appendIndexPayload(buf []byte, entries []indexEntry) []byte {
	buf = binary.AppendUvarint(buf, indexVersion)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		buf = binary.AppendUvarint(buf, uint64(e.off))
		buf = binary.AppendUvarint(buf, uint64(e.plen))
		buf = binary.AppendUvarint(buf, uint64(e.events))
		buf = binary.AppendUvarint(buf, uint64(e.minTick))
		buf = binary.AppendUvarint(buf, uint64(e.maxTick-e.minTick))
		buf = binary.AppendUvarint(buf, uint64(e.flags))
		switch {
		case e.exact != nil:
			buf = binary.AppendUvarint(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(len(e.exact)))
			prev := 0
			for _, id := range e.exact {
				buf = binary.AppendUvarint(buf, uint64(id-prev))
				prev = id
			}
		case e.bloom != nil:
			buf = binary.AppendUvarint(buf, 2)
			buf = binary.AppendUvarint(buf, uint64(len(e.bloom)))
			buf = append(buf, e.bloom...)
		default:
			buf = binary.AppendUvarint(buf, 0)
		}
	}
	return buf
}

var errBadIndex = errors.New("trace: malformed index frame payload")

// decodeIndexPayload parses an index-frame payload. A payload of a newer
// version decodes to (nil, nil) — ignored, never mis-read. Any structural
// violation returns errBadIndex; callers treat the frame as carrying no
// entries (the frames it would have covered are scanned instead), matching
// the advisory-only contract. Every bound is checked before allocation, so a
// hostile payload cannot force an over-allocation.
func decodeIndexPayload(payload []byte) ([]indexEntry, error) {
	pos := 0
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 || v > math.MaxInt64 {
			return 0, false
		}
		pos += n
		return v, true
	}
	version, ok := next()
	if !ok {
		return nil, errBadIndex
	}
	if version != indexVersion {
		return nil, nil
	}
	count, ok := next()
	if !ok || count > uint64(len(payload)-pos) {
		// Each entry costs at least 7 payload bytes; 1 is a safe bound.
		return nil, errBadIndex
	}
	entries := make([]indexEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		var e indexEntry
		off, ok := next()
		if !ok {
			return nil, errBadIndex
		}
		e.off = int64(off)
		plen, ok := next()
		if !ok || plen > maxFramePayload {
			return nil, errBadIndex
		}
		e.plen = int(plen)
		events, ok := next()
		if !ok {
			return nil, errBadIndex
		}
		e.events = int(events)
		minTick, ok := next()
		if !ok {
			return nil, errBadIndex
		}
		span, ok := next()
		if !ok || span > uint64(math.MaxInt64)-minTick {
			return nil, errBadIndex
		}
		e.minTick = int(minTick)
		e.maxTick = int(minTick + span)
		flags, ok := next()
		if !ok || flags > 0xff {
			return nil, errBadIndex
		}
		e.flags = uint8(flags)
		kind, ok := next()
		if !ok {
			return nil, errBadIndex
		}
		switch kind {
		case 0:
		case 1:
			n, ok := next()
			if !ok || n > uint64(len(payload)-pos) {
				// Every id costs at least one payload byte.
				return nil, errBadIndex
			}
			e.exact = make([]int, n)
			prev := uint64(0)
			for j := range e.exact {
				d, ok := next()
				if !ok || d > uint64(math.MaxInt64)-prev {
					return nil, errBadIndex
				}
				prev += d
				e.exact[j] = int(prev)
			}
		case 2:
			n, ok := next()
			if !ok || n > maxBloomBytes || n > uint64(len(payload)-pos) {
				return nil, errBadIndex
			}
			e.bloom = append([]byte(nil), payload[pos:pos+int(n)]...)
			pos += int(n)
		default:
			return nil, errBadIndex
		}
		entries = append(entries, e)
	}
	return entries, nil
}
