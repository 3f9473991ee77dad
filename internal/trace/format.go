package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"udwn/internal/sim"
)

// Format selects a slot-trace encoding.
type Format string

// Supported trace formats. JSONL is the reference implementation: one JSON
// object per active slot, human-greppable. Binary is the compact framed
// encoding for full-scale runs (see binary.go); the differential suite pins
// both to decode into identical event streams.
const (
	FormatJSONL  Format = "jsonl"
	FormatBinary Format = "binary"
)

// ParseFormat parses a -trace-format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatJSONL, FormatBinary:
		return Format(s), nil
	case "":
		return FormatJSONL, nil
	}
	return "", fmt.Errorf("trace: unknown format %q (want %q or %q)", s, FormatJSONL, FormatBinary)
}

// Writer is the format-independent slot-event recorder: wire it to
// sim.Config.Observer (or udwn.SimOptions.Observer) through LockedObserver,
// which drops silent slots and serializes multi-worker recording, then Flush
// once the run ends. Implementations are not safe for concurrent use.
type Writer interface {
	// Record writes every event it is given, silent or not. Errors are
	// sticky and reported by Flush.
	Record(ev sim.SlotEvent)
	// Events returns the number of events recorded so far.
	Events() int
	// Flush drains buffered frames and returns the first error encountered.
	Flush() error
}

var (
	_ Writer = (*JSONL)(nil)
	_ Writer = (*Binary)(nil)
)

// NewWriter returns a recorder for the given format writing to w.
func NewWriter(w io.Writer, f Format) (Writer, error) {
	switch f {
	case FormatJSONL, "":
		return NewJSONL(w), nil
	case FormatBinary:
		return NewBinary(w), nil
	}
	return nil, fmt.Errorf("trace: unknown format %q", f)
}

// LockedObserver adapts a recorder into a simulator observer: it drops
// silent slots (no transmitter and no decode), which carry nothing a trace
// analysis reads, and serializes the rest behind a mutex so it can be wired
// as the observer of simulations running on concurrent grid workers. Events
// from different cells interleave in completion order (nondeterministic
// across runs); aggregate analytics and the sorted canonical stream are
// unaffected.
func LockedObserver(w Writer) func(sim.SlotEvent) {
	var mu sync.Mutex
	return func(ev sim.SlotEvent) {
		if len(ev.Transmitters) == 0 && ev.Decodes == 0 {
			return
		}
		mu.Lock()
		w.Record(ev)
		mu.Unlock()
	}
}

// EventReader streams decoded slot events; Next returns io.EOF at the end
// of the recoverable prefix.
type EventReader interface {
	Next() (sim.SlotEvent, error)
}

// ErrHeaderOnly reports a structurally valid binary trace that ends right
// after its 12-byte header: the recorder was flushed before any event was
// recorded (or the run was killed immediately after opening the trace). The
// file is well-formed but holds zero events; Open surfaces the condition as
// a typed error so tools can say so instead of silently reporting nothing.
var ErrHeaderOnly = errors.New("trace: binary trace holds a valid header but no events")

// Open sniffs the trace format from the stream's first bytes (the binary
// file magic, else JSONL) and returns a streaming reader over it. A source
// that can seek is rewound after the sniff and read directly, so Query can
// seek within it; any other stream is read through a buffer. Degenerate
// inputs fail with typed errors instead of generic decode failures:
// ErrEmptyTrace for a zero-byte stream, ErrTruncatedHeader for a binary
// trace torn inside its header, and ErrHeaderOnly for a binary trace with a
// valid header and no frames.
func Open(r io.Reader) (EventReader, Format, error) {
	// One byte past the header distinguishes a header-only binary trace
	// (exactly headerSize bytes) from one with at least a partial frame.
	head, r, size, err := peek(r, headerSize+1)
	if err != nil {
		return nil, "", fmt.Errorf("trace: sniff format: %w", err)
	}
	if len(head) == 0 {
		return nil, "", ErrEmptyTrace
	}
	if bytes.HasPrefix(head, fileMagic[:]) || bytes.HasPrefix(fileMagic[:], head) {
		tr, err := NewReader(r)
		if err != nil {
			return nil, FormatBinary, err
		}
		if len(head) == headerSize {
			return nil, FormatBinary, ErrHeaderOnly
		}
		if size >= 0 {
			tr.seeker, tr.size = r.(io.Seeker), size
		}
		return tr, FormatBinary, nil
	}
	return NewJSONLReader(r), FormatJSONL, nil
}

// peek returns up to n leading bytes of r (fewer only at end of stream) and
// a reader that still yields them. A source that can seek is rewound and
// returned itself, with its length from there; a pipe's Seek fails, so like
// any stream it is read through a buffer, with length -1.
func peek(r io.Reader, n int) ([]byte, io.Reader, int64, error) {
	if rs, ok := r.(io.ReadSeeker); ok {
		if start, err := rs.Seek(0, io.SeekCurrent); err == nil {
			head := make([]byte, n)
			m, err := io.ReadFull(rs, head)
			if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
				return nil, nil, 0, err
			}
			end, err := rs.Seek(0, io.SeekEnd)
			if err == nil {
				_, err = rs.Seek(start, io.SeekStart)
			}
			return head[:m], rs, end - start, err
		}
	}
	br := bufio.NewReader(r)
	head, err := br.Peek(n)
	if err == io.EOF {
		err = nil
	}
	return head, br, -1, err
}

// ReadEvents decodes a whole trace of either format into memory (tests and
// small inspections; streaming consumers should use Open directly).
func ReadEvents(r io.Reader) ([]sim.SlotEvent, Format, error) {
	er, f, err := Open(r)
	if err != nil {
		return nil, f, err
	}
	var events []sim.SlotEvent
	for {
		ev, err := er.Next()
		if err == io.EOF {
			return events, f, nil
		}
		if err != nil {
			return events, f, err
		}
		events = append(events, ev)
	}
}

// Canonicalize normalizes decoded events in place for cross-format
// comparison: empty slices become nil, so a JSONL decode (empty non-nil
// slices) and a binary decode (nil) of the same run compare byte-for-byte
// once re-serialized. Order is preserved.
func Canonicalize(events []sim.SlotEvent) []sim.SlotEvent {
	for i := range events {
		if len(events[i].Transmitters) == 0 {
			events[i].Transmitters = nil
		}
		if len(events[i].MassDeliverers) == 0 {
			events[i].MassDeliverers = nil
		}
		if len(events[i].Decoders) == 0 {
			events[i].Decoders = nil
		}
	}
	return events
}

// SortEvents orders a canonicalized stream deterministically by full event
// content. Traces recorded from concurrent grid cells interleave in
// completion order; sorting yields a canonical form that is identical across
// worker counts and formats because every cell is a pure function of its
// seeds.
func SortEvents(events []sim.SlotEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		return compareEvents(events[i], events[j]) < 0
	})
}

func compareEvents(a, b sim.SlotEvent) int {
	if a.Tick != b.Tick {
		return a.Tick - b.Tick
	}
	if a.Slot != b.Slot {
		return a.Slot - b.Slot
	}
	if c := compareInts(a.Transmitters, b.Transmitters); c != 0 {
		return c
	}
	if a.Decodes != b.Decodes {
		return a.Decodes - b.Decodes
	}
	if c := compareInts(a.MassDeliverers, b.MassDeliverers); c != 0 {
		return c
	}
	if c := compareInts(a.Decoders, b.Decoders); c != 0 {
		return c
	}
	if a.CDBusy != b.CDBusy {
		return a.CDBusy - b.CDBusy
	}
	if a.CDIdle != b.CDIdle {
		return a.CDIdle - b.CDIdle
	}
	if a.Acks != b.Acks {
		return a.Acks - b.Acks
	}
	if a.NTDs != b.NTDs {
		return a.NTDs - b.NTDs
	}
	return a.Seized - b.Seized
}

func compareInts(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] - b[i]
		}
	}
	return len(a) - len(b)
}
