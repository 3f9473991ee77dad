package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"

	"udwn/internal/rng"
	"udwn/internal/sim"
)

// randomEvents draws a deterministic sequence of arbitrary *valid* slot
// events: non-negative fields, ascending ticks, id lists of varying length
// (including empty). Silent slots are avoided: LockedObserver keeps them out
// of every recorded trace.
func randomEvents(seed uint64, n int) []sim.SlotEvent {
	r := rng.New(seed)
	events := make([]sim.SlotEvent, 0, n)
	tick := 0
	for i := 0; i < n; i++ {
		tick += r.Intn(3)
		ev := sim.SlotEvent{
			Tick:    tick,
			Slot:    r.Intn(2),
			Decodes: r.Intn(50),
			CDBusy:  r.Intn(20),
			CDIdle:  r.Intn(20),
			Acks:    r.Intn(10),
			NTDs:    r.Intn(10),
			Seized:  r.Intn(3),
		}
		for j := r.Intn(8); j > 0; j-- {
			ev.Transmitters = append(ev.Transmitters, r.Intn(1<<r.Intn(20)))
		}
		for j := r.Intn(4); j > 0; j-- {
			ev.MassDeliverers = append(ev.MassDeliverers, r.Intn(4096))
		}
		for j := r.Intn(6); j > 0; j-- {
			ev.Decoders = append(ev.Decoders, r.Intn(4096))
		}
		if len(ev.Transmitters) == 0 && ev.Decodes == 0 {
			ev.Decodes = 1 // keep the event non-silent
		}
		events = append(events, ev)
	}
	return events
}

// encodeBinary runs events through the binary writer, cutting a frame after
// every flushEvery events (0 = let the size threshold decide).
func encodeBinary(t testing.TB, events []sim.SlotEvent, flushEvery int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewBinary(&buf)
	for i, ev := range events {
		w.Record(ev)
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Events() != len(events) {
		t.Fatalf("writer recorded %d of %d events", w.Events(), len(events))
	}
	if w.BytesWritten() != int64(buf.Len()) {
		t.Fatalf("BytesWritten = %d, buffer holds %d", w.BytesWritten(), buf.Len())
	}
	return buf.Bytes()
}

func decodeBinary(t testing.TB, data []byte) []sim.SlotEvent {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var events []sim.SlotEvent
	for {
		ev, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if r.Truncated() {
		t.Fatal("clean trace reported as truncated")
	}
	return events
}

// TestBinaryRoundTripProperty: arbitrary valid event sequences encode and
// decode identically (after canonicalization) through the binary format,
// across frame-cut patterns, and agree with the JSONL reference decoding of
// the same sequence.
func TestBinaryRoundTripProperty(t *testing.T) {
	for _, tc := range []struct {
		seed       uint64
		n          int
		flushEvery int
	}{
		{seed: 1, n: 1, flushEvery: 0},
		{seed: 2, n: 100, flushEvery: 0},
		{seed: 3, n: 100, flushEvery: 1},   // one frame per event
		{seed: 4, n: 500, flushEvery: 7},   // ragged frames
		{seed: 5, n: 20000, flushEvery: 0}, // crosses the size threshold
		{seed: 6, n: 0, flushEvery: 0},     // empty trace: header only
	} {
		events := randomEvents(tc.seed, tc.n)
		want := Canonicalize(append([]sim.SlotEvent(nil), events...))

		data := encodeBinary(t, events, tc.flushEvery)
		got := Canonicalize(decodeBinary(t, data))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: binary round trip diverged (%d events in, %d out)", tc.seed, len(want), len(got))
		}

		var jb bytes.Buffer
		jw := NewJSONL(&jb)
		for _, ev := range events {
			jw.Record(ev)
		}
		if err := jw.Flush(); err != nil {
			t.Fatal(err)
		}
		jev, err := ReadJSONL(&jb)
		if err != nil {
			t.Fatal(err)
		}
		jgot := Canonicalize(jev)
		gb, _ := json.Marshal(got)
		jg, _ := json.Marshal(jgot)
		if !bytes.Equal(gb, jg) {
			t.Fatalf("seed %d: binary and JSONL decodings diverge after normalization", tc.seed)
		}
	}
}

// checkSkipsSilentSlots pins the one owner of the silent-slot policy for
// format f: the observer adapter drops a slot with no transmitter and no
// decode, and the writer records every event it is given.
func checkSkipsSilentSlots(t *testing.T, f Format) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, f)
	if err != nil {
		t.Fatal(err)
	}
	observe := LockedObserver(w)
	observe(sim.SlotEvent{Tick: 1})
	observe(sim.SlotEvent{Tick: 2, Transmitters: []int{1}})
	observe(sim.SlotEvent{Tick: 3, Decodes: 1})
	if w.Events() != 2 {
		t.Fatalf("%s: the observer passed %d events, want 2", f, w.Events())
	}
	w.Record(sim.SlotEvent{Tick: 4})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	events, _, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ticks []int
	for _, ev := range events {
		ticks = append(ticks, ev.Tick)
	}
	if !reflect.DeepEqual(ticks, []int{2, 3, 4}) {
		t.Fatalf("%s: recorded ticks %v, want [2 3 4]", f, ticks)
	}
}

// TestBinarySkipsSilentSlots: a binary trace recorded through LockedObserver
// holds no silent slot.
func TestBinarySkipsSilentSlots(t *testing.T) {
	checkSkipsSilentSlots(t, FormatBinary)
}

// TestSchemaMismatch: a trace whose header carries a different schema hash
// must fail with the typed error, not decode garbage.
func TestSchemaMismatch(t *testing.T) {
	data := encodeBinary(t, randomEvents(7, 10), 0)
	bad := append([]byte(nil), data...)
	bad[4] ^= 0xff // inside the schema hash
	_, err := NewReader(bytes.NewReader(bad))
	var sm *SchemaMismatchError
	if !errors.As(err, &sm) {
		t.Fatalf("got %v, want *SchemaMismatchError", err)
	}
	if sm.Want != SchemaHash() || sm.Got == sm.Want {
		t.Fatalf("mismatch error carries wrong hashes: %+v", sm)
	}
	// The header hash is the digest of the event type's structural schema;
	// pin that the schema string actually names every SlotEvent field, so
	// adding or renaming one cannot keep the hash stable.
	schema := EventSchema()
	typ := reflect.TypeOf(sim.SlotEvent{})
	for i := 0; i < typ.NumField(); i++ {
		if !bytes.Contains([]byte(schema), []byte(typ.Field(i).Name)) {
			t.Fatalf("schema string misses field %s: %s", typ.Field(i).Name, schema)
		}
	}
}

// TestNotBinaryMagic: a JSONL stream handed to the binary reader fails with
// ErrNotBinary (Open sniffs and routes correctly instead).
func TestNotBinaryMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte(`{"tick":1,"tx":[1]}` + "\n"))); !errors.Is(err, ErrNotBinary) {
		t.Fatalf("got %v, want ErrNotBinary", err)
	}
}

// TestTornTraceRecovery truncates a multi-frame binary trace at every byte
// offset: the reader must never panic and must recover exactly the events
// of the frames that fit the prefix whole.
func TestTornTraceRecovery(t *testing.T) {
	events := randomEvents(11, 90)
	var buf bytes.Buffer
	w := NewBinary(&buf)
	type boundary struct{ bytes, events int }
	bounds := []boundary{} // clean prefix points (frame ends)
	for i, ev := range events {
		w.Record(ev)
		if (i+1)%30 == 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			bounds = append(bounds, boundary{buf.Len(), i + 1})
		}
	}
	data := buf.Bytes()
	if len(bounds) < 3 {
		t.Fatalf("want >=3 frames, got %d", len(bounds))
	}
	want := Canonicalize(append([]sim.SlotEvent(nil), events...))

	for off := 0; off <= len(data); off++ {
		prefix := data[:off]
		r, err := NewReader(bytes.NewReader(prefix))
		if err != nil {
			if off >= headerSize {
				t.Fatalf("offset %d: header rejected: %v", off, err)
			}
			continue // torn inside the header: zero events is the valid prefix
		}
		var got []sim.SlotEvent
		for {
			ev, nerr := r.Next()
			if nerr == io.EOF {
				break
			}
			if nerr != nil {
				t.Fatalf("offset %d: %v", off, nerr)
			}
			got = append(got, ev)
		}
		expect := 0
		clean := off == len(data) || off == headerSize
		for _, b := range bounds {
			if b.bytes <= off {
				expect = b.events
				if b.bytes == off {
					clean = true
				}
			}
		}
		if len(got) != expect {
			t.Fatalf("offset %d: recovered %d events, want %d", off, len(got), expect)
		}
		if expect > 0 && !reflect.DeepEqual(Canonicalize(got), want[:expect]) {
			t.Fatalf("offset %d: recovered prefix diverges from original events", off)
		}
		if r.Truncated() == clean {
			t.Fatalf("offset %d: Truncated=%v, want %v", off, r.Truncated(), !clean)
		}
	}
}

// TestBinaryCorruptFrame flips every byte of a small trace in turn: the
// reader must never panic, never fabricate events past the corruption, and
// the decoded prefix must always be a prefix of the original sequence.
func TestBinaryCorruptFrame(t *testing.T) {
	events := randomEvents(13, 40)
	data := encodeBinary(t, events, 10)
	want := Canonicalize(append([]sim.SlotEvent(nil), events...))
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		r, err := NewReader(bytes.NewReader(mut))
		if err != nil {
			continue // header corruption: rejected eagerly
		}
		var got []sim.SlotEvent
		for {
			ev, nerr := r.Next()
			if nerr == io.EOF {
				break
			}
			if nerr != nil {
				t.Fatalf("flip %d: %v", i, nerr)
			}
			got = append(got, ev)
		}
		got = Canonicalize(got)
		// A flip inside an id list can only be detected by the CRC, so any
		// surviving decode must come from an untouched frame: compare
		// per-frame prefixes (frames hold 10 events each here).
		if len(got) > len(want) {
			t.Fatalf("flip %d: decoded %d events from %d originals", i, len(got), len(want))
		}
		if len(got)%10 != 0 && len(got) != len(want) {
			t.Fatalf("flip %d: partial frame of %d events surfaced", i, len(got))
		}
		if len(got) > 0 && !reflect.DeepEqual(got, want[:len(got)]) {
			t.Fatalf("flip %d: decoded events are not a prefix of the originals", i)
		}
	}
}

// TestBinaryStickyWriteError: a failing underlying writer surfaces through
// Flush and stops further writes, as with the JSONL recorder.
func TestBinaryStickyWriteError(t *testing.T) {
	w := NewBinary(failWriter{})
	for i := 0; i < 3; i++ {
		w.Record(sim.SlotEvent{Tick: i, Transmitters: []int{i}})
	}
	if err := w.Flush(); err == nil {
		t.Fatal("expected flush error")
	}
	if err := w.Flush(); err == nil {
		t.Fatal("error not sticky")
	}
}

// TestOpenAutoDetect routes binary and JSONL streams to the right reader.
func TestOpenAutoDetect(t *testing.T) {
	events := randomEvents(17, 25)
	bin := encodeBinary(t, events, 0)
	got, format, err := ReadEvents(bytes.NewReader(bin))
	if err != nil || format != FormatBinary {
		t.Fatalf("binary detect: format=%v err=%v", format, err)
	}
	if len(got) != len(events) {
		t.Fatalf("binary decode: %d of %d events", len(got), len(events))
	}

	var jb bytes.Buffer
	jw := NewJSONL(&jb)
	for _, ev := range events {
		jw.Record(ev)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	jgot, format, err := ReadEvents(&jb)
	if err != nil || format != FormatJSONL {
		t.Fatalf("jsonl detect: format=%v err=%v", format, err)
	}
	a, _ := json.Marshal(Canonicalize(got))
	b, _ := json.Marshal(Canonicalize(jgot))
	if !bytes.Equal(a, b) {
		t.Fatal("auto-detected decodings diverge")
	}
}

// TestBinaryEmptyTraceHeader: an empty flushed trace is a valid 12-byte
// header that decodes to zero events, cleanly.
func TestBinaryEmptyTraceHeader(t *testing.T) {
	data := encodeBinary(t, nil, 0)
	if len(data) != headerSize {
		t.Fatalf("empty trace is %d bytes, want %d", len(data), headerSize)
	}
	if got := decodeBinary(t, data); len(got) != 0 {
		t.Fatalf("empty trace decoded %d events", len(got))
	}
	if got := binary.LittleEndian.Uint64(data[4:]); got != SchemaHash() {
		t.Fatalf("header hash %x, want %x", got, SchemaHash())
	}
}
