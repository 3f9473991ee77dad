package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"udwn/internal/sim"
)

// JSONL streams simulator slot events as JSON Lines, one event per line —
// the interchange format for post-hoc analysis and replay inspection.
type JSONL struct {
	w   *bufio.Writer
	enc *json.Encoder
	err error
	n   int
}

// NewJSONL returns a recorder writing to w.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{w: bw, enc: json.NewEncoder(bw)}
}

// Record writes one event; wire it to sim.Config.Observer through
// LockedObserver. Errors are sticky and reported by Flush.
func (j *JSONL) Record(ev sim.SlotEvent) {
	if j.err != nil {
		return
	}
	j.n++
	j.err = j.enc.Encode(ev)
}

// Events returns the number of events written so far.
func (j *JSONL) Events() int { return j.n }

// Flush drains the buffer and returns the first error encountered.
func (j *JSONL) Flush() error {
	if j.err != nil {
		return fmt.Errorf("trace: record: %w", j.err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// ReadJSONL parses a JSON Lines trace back into events.
func ReadJSONL(r io.Reader) ([]sim.SlotEvent, error) {
	var events []sim.SlotEvent
	jr := NewJSONLReader(r)
	for {
		ev, err := jr.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		events = append(events, ev)
	}
}

// JSONLReader streams a JSON Lines trace one event at a time, so analytics
// over multi-gigabyte traces never hold more than one event in memory.
type JSONLReader struct {
	dec *json.Decoder
	n   int
}

// NewJSONLReader returns a streaming reader over r.
func NewJSONLReader(r io.Reader) *JSONLReader {
	return &JSONLReader{dec: json.NewDecoder(r)}
}

// Next returns the next event, or io.EOF at the end of the trace.
func (j *JSONLReader) Next() (sim.SlotEvent, error) {
	var ev sim.SlotEvent
	if err := j.dec.Decode(&ev); err != nil {
		if err == io.EOF {
			return ev, io.EOF
		}
		return ev, fmt.Errorf("trace: decode event %d: %w", j.n, err)
	}
	j.n++
	return ev, nil
}
