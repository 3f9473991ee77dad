// Binary is the compact framed slot-trace format for full-scale runs. JSONL
// tracing spends ~100 bytes and one encoding-reflection pass per event; the
// binary format packs the same events as varints at a fraction of the size
// and cost, which is what makes tracing million-node sweeps viable.
//
// File layout:
//
//	header:  magic "UTB1" | uint64 schema hash (LE)
//	frame*:  magic "UTF1" | uint32 payload len | uint32 CRC-32C | payload
//	payload: uvarint event count | count × packed events
//
// Every data frame is preceded — in the same Write — by an index frame
// ("UTI1", see index.go) summarising it, so queries can seek past frames
// that cannot match. Index frames are advisory: a plain read CRC-validates
// and skips them, decoding an indexed file into exactly the event stream of
// a pre-index one. An index frame's CRC also covers its magic, so a bit flip
// cannot morph one frame kind into the other undetected.
//
// The framing discipline is the one proven in internal/checkpoint: each
// frame is appended with a single Write call, so a crash (even SIGKILL)
// tears at most the final frame, and the Reader recovers the longest valid
// frame prefix — a torn or corrupt tail costs only the events it covered.
// The schema hash is the digest of sim.SlotEvent's structural shape
// (schema.go); a reader built against a different event layout fails fast
// with *SchemaMismatchError instead of mis-decoding the varint stream.
//
// An event packs as uvarints in field declaration order: tick, slot,
// transmitter count + ids, decodes, mass-deliverer count + ids, cd busy/idle,
// acks, ntds, decoder count + ids, seized. All fields are non-negative by
// construction.
package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"udwn/internal/sim"
)

var (
	fileMagic  = [4]byte{'U', 'T', 'B', '1'}
	frameMagic = [4]byte{'U', 'T', 'F', '1'}
)

const (
	headerSize      = 4 + 8 // file magic + schema hash
	frameHeaderSize = 4 + 4 + 4
	// maxFramePayload bounds a frame's declared length so a corrupt or
	// hostile length field cannot make the reader attempt a huge
	// allocation. The writer flushes well below it; a single event would
	// need millions of transmitters to approach it.
	maxFramePayload = 16 << 20
	// flushPayload is the writer's frame-cut threshold: a frame is emitted
	// once its packed payload reaches this size (or on Flush), balancing
	// framing overhead against how many events one torn tail can cost.
	flushPayload = 64 << 10
)

// traceCRC is the Castagnoli polynomial, as in internal/checkpoint.
var traceCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrNotBinary reports a stream that does not start with the binary trace
// magic (most likely a JSONL trace; use Open to auto-detect).
var ErrNotBinary = errors.New("trace: not a binary trace (bad file magic)")

// ErrEmptyTrace reports a trace stream with no bytes at all — a run that was
// killed before its recorder flushed anything, or a wrong path.
var ErrEmptyTrace = errors.New("trace: empty trace (zero bytes)")

// ErrTruncatedHeader reports a binary trace torn inside its 12-byte header:
// the file starts with the binary magic but ends before the schema hash is
// complete, so not even the empty event stream can be recovered.
var ErrTruncatedHeader = errors.New("trace: binary trace truncated inside the header")

// Binary streams simulator slot events in the framed varint format. Like
// JSONL, errors are sticky and reported by Flush.
type Binary struct {
	w          io.Writer
	err        error
	n          int
	frames     int64
	bytes      int64
	headerDone bool
	buf        []byte // packed events of the pending frame
	count      int    // events packed in buf
	scratch    []byte // frame assembly buffer, reused across flushes
	ibuf       []byte // index payload assembly buffer, reused across flushes
	summary    frameSummary
}

// NewBinary returns a recorder writing to w. Nothing reaches w until the
// first frame cut (or Flush), so creating a recorder never fails.
func NewBinary(w io.Writer) *Binary { return &Binary{w: w} }

// Record packs one event into the pending frame; wire it to
// sim.Config.Observer through LockedObserver. The event's slices may alias
// simulator scratch — they are consumed before Record returns.
func (b *Binary) Record(ev sim.SlotEvent) {
	if b.err != nil {
		return
	}
	b.n++
	b.count++
	b.summary.observe(ev.Tick, ev.Transmitters, ev.MassDeliverers, ev.Decoders, ev.Decodes, ev.Seized)
	b.buf = appendEvent(b.buf, ev)
	if len(b.buf) >= flushPayload {
		b.flushFrame()
	}
}

// Events returns the number of events recorded so far.
func (b *Binary) Events() int { return b.n }

// Frames returns the number of frames committed so far.
func (b *Binary) Frames() int64 { return b.frames }

// BytesWritten returns the total bytes handed to the underlying writer,
// header included.
func (b *Binary) BytesWritten() int64 { return b.bytes }

// flushFrame commits the pending events as one frame with a single Write
// (preceded, the first time, by the file header, and by an index frame
// summarising this data frame, all in the same Write), so a crash can tear
// at most this index/data pair.
func (b *Binary) flushFrame() {
	if b.err != nil || b.count == 0 {
		return
	}
	payloadLen := uvarintLen(uint64(b.count)) + len(b.buf)
	if payloadLen > maxFramePayload {
		b.err = fmt.Errorf("trace: frame payload %d bytes exceeds limit %d", payloadLen, maxFramePayload)
		return
	}
	out := b.scratch[:0]
	if !b.headerDone {
		out = append(out, fileMagic[:]...)
		out = binary.LittleEndian.AppendUint64(out, SchemaHash())
	}
	// The entry's offset is relative to the end of its index frame; the
	// described data frame follows immediately, hence 0.
	entry := b.summary.take(0, payloadLen, b.count)
	b.ibuf = appendIndexPayload(b.ibuf[:0], []indexEntry{entry})
	if len(b.ibuf) <= maxFramePayload {
		out = append(out, indexMagic[:]...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b.ibuf)))
		crc := crc32.Checksum(indexMagic[:], traceCRC)
		crc = crc32.Update(crc, traceCRC, b.ibuf)
		out = binary.LittleEndian.AppendUint32(out, crc)
		out = append(out, b.ibuf...)
	}
	out = append(out, frameMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(payloadLen))
	payloadStart := len(out) + 4 // after the CRC word below
	out = append(out, 0, 0, 0, 0)
	out = binary.AppendUvarint(out, uint64(b.count))
	out = append(out, b.buf...)
	crc := crc32.Checksum(out[payloadStart:], traceCRC)
	binary.LittleEndian.PutUint32(out[payloadStart-4:payloadStart], crc)

	if _, err := b.w.Write(out); err != nil {
		b.err = fmt.Errorf("trace: append frame: %w", err)
		return
	}
	b.headerDone = true
	b.frames++
	b.bytes += int64(len(out))
	b.scratch = out[:0]
	b.buf = b.buf[:0]
	b.count = 0
}

// Flush commits the pending frame (writing the file header even for an
// empty trace) and returns the first error encountered.
func (b *Binary) Flush() error {
	if b.err == nil && !b.headerDone && b.count == 0 {
		var hdr [headerSize]byte
		copy(hdr[:], fileMagic[:])
		binary.LittleEndian.PutUint64(hdr[4:], SchemaHash())
		if _, err := b.w.Write(hdr[:]); err != nil {
			b.err = fmt.Errorf("trace: write header: %w", err)
		} else {
			b.headerDone = true
			b.bytes += headerSize
		}
	}
	b.flushFrame()
	if b.err != nil {
		return b.err
	}
	return nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendEvent packs one event. Every field is non-negative by construction
// (ids, counts, ticks), so plain uvarints suffice.
func appendEvent(buf []byte, ev sim.SlotEvent) []byte {
	buf = binary.AppendUvarint(buf, uint64(ev.Tick))
	buf = binary.AppendUvarint(buf, uint64(ev.Slot))
	buf = appendIDs(buf, ev.Transmitters)
	buf = binary.AppendUvarint(buf, uint64(ev.Decodes))
	buf = appendIDs(buf, ev.MassDeliverers)
	buf = binary.AppendUvarint(buf, uint64(ev.CDBusy))
	buf = binary.AppendUvarint(buf, uint64(ev.CDIdle))
	buf = binary.AppendUvarint(buf, uint64(ev.Acks))
	buf = binary.AppendUvarint(buf, uint64(ev.NTDs))
	buf = appendIDs(buf, ev.Decoders)
	buf = binary.AppendUvarint(buf, uint64(ev.Seized))
	return buf
}

func appendIDs(buf []byte, ids []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return buf
}

// Reader streams events back out of a binary trace; it is the only code
// that walks the frame layout. It validates the header eagerly (NewReader)
// and each frame's magic, length and CRC before decoding, stopping at the
// first violation: Next then returns io.EOF and Truncated reports whether
// anything was dropped. The longest valid frame prefix is always recovered —
// a torn tail never poisons earlier frames and never panics the reader. A
// read or seek error is not a torn tail: Next returns it.
//
// Query (query.go) arms a Reader over a seekable source with its
// predicate's index test; the Reader then seeks past every data frame whose
// index entry rules the predicate out, never reading it.
type Reader struct {
	r io.Reader
	// hdr is the header scratch, for the file header and then each frame
	// header: a local array would escape into io.ReadFull and cost one
	// allocation per frame.
	hdr       [frameHeaderSize]byte
	payload   []byte // the current frame's payload
	pos       int    // decode position in payload
	remaining int    // events left in the current frame
	decoded   int
	truncated bool
	done      bool
	err       error // read or seek failure, returned by Next once done
	// lastIndex tracks whether the previous frame was an index frame: the
	// writer emits each index frame in the same Write as the data frame it
	// describes, so a stream that ends right after an index frame is torn.
	lastIndex bool
	off       int64 // offset of the next frame from the start of the trace

	// seeker is the source when Open found it seekable, size its length
	// from the trace start.
	seeker io.Seeker
	size   int64

	// Query's plan; keep is nil on a plain read.
	keep    func(*indexEntry) bool
	entries []indexEntry // entries of the last index frame not yet matched
	base    int64        // offset the entries are relative to: their index frame's end
	st      *QueryStats  // receives the frame and byte counts; an index frame clears FullScan
}

// NewReader opens a binary trace. It fails with ErrEmptyTrace on an empty
// stream, ErrNotBinary on a wrong file magic, ErrTruncatedHeader when the
// stream tears inside the header, and *SchemaMismatchError on a schema hash
// from a different event layout.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{r: r, off: headerSize}
	hdr := tr.hdr[:headerSize]
	n, err := io.ReadFull(r, hdr)
	if err != nil {
		switch {
		case n == 0:
			return nil, ErrEmptyTrace
		case !bytes.HasPrefix(fileMagic[:], hdr[:min(n, len(fileMagic))]):
			return nil, ErrNotBinary
		default:
			return nil, fmt.Errorf("trace: binary header: %d of %d bytes: %w", n, headerSize, ErrTruncatedHeader)
		}
	}
	if !bytes.Equal(hdr[:4], fileMagic[:]) {
		return nil, ErrNotBinary
	}
	if got := binary.LittleEndian.Uint64(hdr[4:]); got != SchemaHash() {
		return nil, &SchemaMismatchError{Got: got, Want: SchemaHash()}
	}
	return tr, nil
}

// Next returns the next event, or io.EOF at the end of the recoverable
// prefix (clean end of trace or first torn/corrupt frame — see Truncated).
// A failed read or seek of the source is returned in place of io.EOF.
func (r *Reader) Next() (sim.SlotEvent, error) {
	for {
		if r.done {
			if r.err != nil {
				return sim.SlotEvent{}, r.err
			}
			return sim.SlotEvent{}, io.EOF
		}
		if r.remaining > 0 {
			var ev sim.SlotEvent
			if !r.decodeEvent(&ev) {
				// CRC passed but the payload does not parse: treat the whole
				// stream position as lost, like any other corrupt frame.
				r.stop(true)
				return sim.SlotEvent{}, io.EOF
			}
			r.remaining--
			r.decoded++
			return ev, nil
		}
		r.nextFrame()
	}
}

// Truncated reports whether the stream ended anywhere other than a clean
// frame boundary: the events returned before io.EOF are the longest valid
// prefix and at least one trailing frame was dropped.
func (r *Reader) Truncated() bool { return r.truncated }

// Decoded returns the number of events returned so far.
func (r *Reader) Decoded() int { return r.decoded }

func (r *Reader) stop(truncated bool) {
	r.done = true
	r.truncated = r.truncated || truncated
	r.remaining = 0
}

// fail ends the stream on a failed read or seek of the frame at off:
// running out of bytes tears the frame, any other error is kept for Next to
// return.
func (r *Reader) fail(off int64, err error) {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		r.stop(true)
		return
	}
	r.err = fmt.Errorf("trace: frame at offset %d: %w", off, err)
	r.stop(false)
}

// nextFrame loads and validates the next data frame, skipping CRC-valid
// index frames and the data frames the armed plan rules out. At the end of
// the stream (clean or truncated — r.truncated distinguishes) or on an
// error (r.err) it stops the reader.
func (r *Reader) nextFrame() {
	for {
		n, err := io.ReadFull(r.r, r.hdr[:])
		if err == io.EOF && n == 0 {
			// A clean end of stream lands after a data frame; an index frame
			// always has its data frame in the same Write, so ending on one
			// means the pair was torn.
			r.stop(r.lastIndex)
			return
		}
		if err != nil {
			r.fail(r.off, err)
			return
		}
		isIndex := bytes.Equal(r.hdr[:4], indexMagic[:])
		if !isIndex && !bytes.Equal(r.hdr[:4], frameMagic[:]) {
			r.stop(true)
			return
		}
		plen := binary.LittleEndian.Uint32(r.hdr[4:8])
		if plen == 0 || plen > maxFramePayload {
			r.stop(true)
			return
		}
		frameOff := r.off
		r.off += frameHeaderSize + int64(plen)
		if !isIndex && r.keep != nil {
			if e := r.entryFor(frameOff, int(plen)); e != nil && !r.keep(e) {
				if r.off > r.size {
					// A declared length past EOF is the torn-pair
					// signature: the valid prefix ends here, as on a read.
					r.stop(true)
					return
				}
				if _, err := r.seeker.Seek(int64(plen), io.SeekCurrent); err != nil {
					r.fail(frameOff, err)
					return
				}
				r.st.FramesSkipped++
				r.st.BytesSkipped += int64(plen)
				r.lastIndex = false
				continue
			}
		}
		if cap(r.payload) < int(plen) {
			r.payload = make([]byte, plen)
		}
		payload := r.payload[:plen]
		if _, err := io.ReadFull(r.r, payload); err != nil {
			r.fail(frameOff, err)
			return
		}
		want := binary.LittleEndian.Uint32(r.hdr[8:12])
		if isIndex {
			// Index frame CRCs cover the magic too (see index.go).
			crc := crc32.Checksum(indexMagic[:], traceCRC)
			if crc32.Update(crc, traceCRC, payload) != want {
				r.stop(true)
				return
			}
			r.payload = payload
			r.lastIndex = true
			if r.keep != nil {
				// A malformed or newer-version payload yields no entries:
				// the frames it covered are simply read.
				r.entries, _ = decodeIndexPayload(payload)
				r.base = r.off
				r.st.BytesIndex += int64(plen)
				r.st.FullScan = false
			}
			continue
		}
		if crc32.Checksum(payload, traceCRC) != want {
			r.stop(true)
			return
		}
		count, n2 := binary.Uvarint(payload)
		// Each packed event is at least 11 bytes of field varints, but 1 is a
		// safe lower bound; an impossible count ends the valid prefix.
		if n2 <= 0 || count > uint64(len(payload)-n2) {
			r.stop(true)
			return
		}
		if r.st != nil {
			r.st.FramesScanned++
			r.st.BytesScanned += int64(plen)
		}
		r.payload = payload
		r.pos = n2
		r.remaining = int(count)
		r.lastIndex = false
		return
	}
}

// entryFor returns the pending index entry describing the data frame at off
// with payload length plen, dropping it and every entry before it; nil when
// none fits, so a lying index only costs a read.
func (r *Reader) entryFor(off int64, plen int) *indexEntry {
	for i := range r.entries {
		if e := &r.entries[i]; r.base+e.off == off && e.plen == plen {
			r.entries = r.entries[i+1:]
			return e
		}
	}
	return nil
}

// decodeEvent unpacks one event from the current frame payload into ev.
func (r *Reader) decodeEvent(ev *sim.SlotEvent) bool {
	var ok bool
	if ev.Tick, ok = r.uvarint(); !ok {
		return false
	}
	if ev.Slot, ok = r.uvarint(); !ok {
		return false
	}
	if ev.Transmitters, ok = r.ids(); !ok {
		return false
	}
	if ev.Decodes, ok = r.uvarint(); !ok {
		return false
	}
	if ev.MassDeliverers, ok = r.ids(); !ok {
		return false
	}
	if ev.CDBusy, ok = r.uvarint(); !ok {
		return false
	}
	if ev.CDIdle, ok = r.uvarint(); !ok {
		return false
	}
	if ev.Acks, ok = r.uvarint(); !ok {
		return false
	}
	if ev.NTDs, ok = r.uvarint(); !ok {
		return false
	}
	if ev.Decoders, ok = r.ids(); !ok {
		return false
	}
	if ev.Seized, ok = r.uvarint(); !ok {
		return false
	}
	return true
}

func (r *Reader) uvarint() (int, bool) {
	v, n := binary.Uvarint(r.payload[r.pos:])
	if n <= 0 || v > math.MaxInt64 {
		return 0, false
	}
	r.pos += n
	return int(v), true
}

// ids decodes a length-prefixed id list; a zero count yields nil, matching
// the canonical (Canonicalize) representation.
func (r *Reader) ids() ([]int, bool) {
	count, n := binary.Uvarint(r.payload[r.pos:])
	if n <= 0 {
		return nil, false
	}
	r.pos += n
	if count == 0 {
		return nil, true
	}
	// Every id costs at least one payload byte, so an over-claimed count
	// cannot force an over-allocation.
	if count > uint64(len(r.payload)-r.pos) {
		return nil, false
	}
	ids := make([]int, count)
	for i := range ids {
		v, ok := r.uvarint()
		if !ok {
			return nil, false
		}
		ids[i] = v
	}
	return ids, true
}
