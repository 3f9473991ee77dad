package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"udwn/internal/metrics"
	"udwn/internal/sim"
)

// cloneEvent deep-copies an observer event whose id slices alias simulator
// scratch, normalizing empty lists to nil like the binary decode does.
func cloneEvent(ev sim.SlotEvent) sim.SlotEvent {
	cp := ev
	cp.Transmitters = append([]int(nil), ev.Transmitters...)
	cp.MassDeliverers = append([]int(nil), ev.MassDeliverers...)
	cp.Decoders = append([]int(nil), ev.Decoders...)
	return cp
}

// filterEvents is the reference implementation every query must agree with:
// decode everything, keep what the predicate accepts, in file order.
func filterEvents(events []sim.SlotEvent, pred Predicate) []sim.SlotEvent {
	var out []sim.SlotEvent
	for _, ev := range events {
		if pred.Match(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// queryPredicates derives the predicate set of the differential suites from
// a concrete event stream, so node ids and tick windows are never vacuous.
func queryPredicates(events []sim.SlotEvent) []Predicate {
	minT, maxT := events[0].Tick, events[0].Tick
	var node int
	for _, ev := range events {
		if ev.Tick < minT {
			minT = ev.Tick
		}
		if ev.Tick > maxT {
			maxT = ev.Tick
		}
		if node == 0 && len(ev.Transmitters) > 0 {
			node = ev.Transmitters[0]
		}
	}
	span := maxT - minT + 1
	window := span / 10
	if window == 0 {
		window = 1
	}
	return []Predicate{
		{}, // match everything
		{MinTick: minT + span/3, MaxTick: minT + span/3 + window},
		{Nodes: []int{node}},
		{Nodes: []int{node}, Role: RoleTx},
		{Nodes: []int{node}, Role: RoleDecoder},
		{Role: RoleMass},
		{Seized: true},
		{Decodes: true},
		{Mass: true},
		{Nodes: []int{node, node + 1}, MinTick: minT, MaxTick: minT + span/2, Decodes: true},
		{MinTick: minT, MaxTick: minT + 1}, // first tick only
		{Nodes: []int{1 << 29}},            // absent node: index prunes everything
		{MinTick: maxT + 1000},             // empty tick window past the trace
	}
}

// encodeIndexed records events through the binary writer, cutting a frame
// (and its index frame) every flushEvery events so the planner has
// boundaries to prune at.
func encodeIndexed(t testing.TB, events []sim.SlotEvent, flushEvery int) ([]byte, int64) {
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
	return buf.Bytes(), w.Frames()
}

// nonSeeker hides the Seek method of a reader, forcing the fallback path.
type nonSeeker struct{ r io.Reader }

func (n nonSeeker) Read(p []byte) (int, error) { return n.r.Read(p) }

// checkQuery runs one predicate through the indexed planner and pins it to
// the reference filter: identical events, identical binary and JSONL
// sub-trace bytes, and stats that add up.
func checkQuery(t *testing.T, data []byte, frames int64, all []sim.SlotEvent, pred Predicate) QueryStats {
	t.Helper()
	want := filterEvents(all, pred)

	got, st, err := QueryAll(bytes.NewReader(data), pred)
	if err != nil {
		t.Fatalf("query %q: %v", pred.String(), err)
	}
	if st.FullScan {
		t.Fatalf("query %q: indexed trace fell back to full scan", pred.String())
	}
	if st.Truncated {
		t.Fatalf("query %q: clean trace reported truncated", pred.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("query %q: %d events, reference filter %d", pred.String(), len(got), len(want))
	}
	if st.FramesScanned+st.FramesSkipped != frames {
		t.Fatalf("query %q: scanned %d + skipped %d frames, trace has %d",
			pred.String(), st.FramesScanned, st.FramesSkipped, frames)
	}
	if st.EventsMatched != int64(len(want)) {
		t.Fatalf("query %q: EventsMatched=%d, want %d", pred.String(), st.EventsMatched, len(want))
	}

	// The emitted sub-trace must be byte-identical to one written from the
	// reference filter, in both formats.
	for _, mk := range []func(io.Writer) Writer{
		func(w io.Writer) Writer { return NewBinary(w) },
		func(w io.Writer) Writer { return NewJSONL(w) },
	} {
		var viaQuery, viaFilter bytes.Buffer
		if _, err := Slice(bytes.NewReader(data), pred, mk(&viaQuery)); err != nil {
			t.Fatalf("slice %q: %v", pred.String(), err)
		}
		ref := mk(&viaFilter)
		for _, ev := range want {
			ref.Record(ev)
		}
		if err := ref.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaQuery.Bytes(), viaFilter.Bytes()) {
			t.Fatalf("slice %q: sub-trace diverges from reference filter (%d vs %d bytes)",
				pred.String(), viaQuery.Len(), viaFilter.Len())
		}
	}
	return st
}

// TestQueryScanEquivalence is the differential gate of the query engine:
// across the dual-format scenario matrix, every predicate must return — via
// the index-pruning planner — exactly the events of a predicate filter over
// the full decode, and the sub-traces it emits must be byte-identical to
// ones written from that reference filter.
func TestQueryScanEquivalence(t *testing.T) {
	for _, sc := range dualScenarioMatrix() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			var events []sim.SlotEvent
			runDualScenario(t, sc, func(ev sim.SlotEvent) {
				// Drop silent slots as LockedObserver does; the event's
				// slices alias sim scratch, so keep a deep copy.
				if len(ev.Transmitters) == 0 && ev.Decodes == 0 {
					return
				}
				events = append(events, cloneEvent(ev))
			})
			if len(events) == 0 {
				t.Fatal("scenario produced no events; the comparison is vacuous")
			}
			data, frames := encodeIndexed(t, events, 64)
			if frames < 3 {
				t.Fatalf("want >=3 frames for pruning to mean anything, got %d", frames)
			}
			all, _, err := ReadEvents(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			anySkipped := false
			for _, pred := range queryPredicates(all) {
				st := checkQuery(t, data, frames, all, pred)
				if st.FramesSkipped > 0 {
					anySkipped = true
				}

				// The fallback full scan answers identically.
				got, fst, err := QueryAll(nonSeeker{bytes.NewReader(data)}, pred)
				if err != nil {
					t.Fatalf("fallback %q: %v", pred.String(), err)
				}
				if !fst.FullScan {
					t.Fatalf("fallback %q: non-seekable stream did not full-scan", pred.String())
				}
				if !reflect.DeepEqual(got, filterEvents(all, pred)) {
					t.Fatalf("fallback %q diverges from reference filter", pred.String())
				}
			}
			if !anySkipped {
				t.Fatal("no predicate pruned a single frame; the index is dead weight")
			}
		})
	}
}

// dropIndexFrames rewrites an indexed binary trace into the pre-index
// layout: the header followed by its data frames alone.
func dropIndexFrames(data []byte) []byte {
	out := append([]byte(nil), data[:headerSize]...)
	for off := headerSize; off < len(data); {
		end := off + frameHeaderSize + int(binary.LittleEndian.Uint32(data[off+4:]))
		if !bytes.Equal(data[off:off+4], indexMagic[:]) {
			out = append(out, data[off:end]...)
		}
		off = end
	}
	return out
}

// TestQueryIndexlessFallback: a binary trace in the pre-index layout must
// answer every query identically through the full scan, flagged as such in
// the stats.
func TestQueryIndexlessFallback(t *testing.T) {
	events := Canonicalize(randomEvents(97, 400))
	indexed, _ := encodeIndexed(t, events, 50)
	data := dropIndexFrames(indexed)
	if bytes.Contains(data, indexMagic[:]) {
		t.Fatal("pre-index trace contains an index frame magic")
	}
	for _, pred := range queryPredicates(events) {
		got, st, err := QueryAll(bytes.NewReader(data), pred)
		if err != nil {
			t.Fatalf("query %q: %v", pred.String(), err)
		}
		if !st.FullScan {
			t.Fatalf("query %q: indexless trace not flagged as full scan", pred.String())
		}
		if st.FramesSkipped != 0 || st.BytesSkipped != 0 {
			t.Fatalf("query %q: indexless trace skipped %d frames / %d bytes",
				pred.String(), st.FramesSkipped, st.BytesSkipped)
		}
		if !reflect.DeepEqual(got, filterEvents(events, pred)) {
			t.Fatalf("query %q diverges from reference filter", pred.String())
		}
	}

	// JSONL answers the same queries through the same fallback.
	var jb bytes.Buffer
	jw := NewJSONL(&jb)
	for _, ev := range events {
		jw.Record(ev)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	jall, _, err := ReadEvents(bytes.NewReader(jb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	pred := queryPredicates(events)[2] // single-node query
	got, st, err := QueryAll(bytes.NewReader(jb.Bytes()), pred)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullScan {
		t.Fatal("JSONL query not flagged as full scan")
	}
	if !reflect.DeepEqual(Canonicalize(got), filterEvents(Canonicalize(jall), pred)) {
		t.Fatal("JSONL query diverges from reference filter")
	}
}

// localityEvents builds the node-locality-blocked trace the selectivity
// claims are measured on: frame f (cut every eventsPerFrame) covers ticks
// [f*tickStride, ...) and nodes [f*nodeStride, f*nodeStride+nodeStride), the
// shape of a grid sweep where cells finish in order.
func localityEvents(frames, eventsPerFrame, nodeStride int) []sim.SlotEvent {
	var events []sim.SlotEvent
	for f := 0; f < frames; f++ {
		for i := 0; i < eventsPerFrame; i++ {
			base := f * nodeStride
			ev := sim.SlotEvent{
				Tick:    f*eventsPerFrame + i,
				Decodes: 1 + i%3,
			}
			for j := 0; j < 8; j++ {
				ev.Transmitters = append(ev.Transmitters, base+(i+j)%nodeStride)
			}
			for j := 0; j < 4; j++ {
				ev.Decoders = append(ev.Decoders, base+(i+j*5)%nodeStride)
			}
			events = append(events, ev)
		}
	}
	return events
}

// TestQuerySelectivity pins the acceptance criterion: on a large dense
// trace, a single-node query and a ≤10% tick-window query must decode at
// least 10x fewer payload bytes than the full scan, proven by the planner's
// own counters.
func TestQuerySelectivity(t *testing.T) {
	const frames = 64
	events := localityEvents(frames, 100, 16)
	data, nframes := encodeIndexed(t, events, 100)
	if nframes != frames {
		t.Fatalf("encoded %d frames, want %d", nframes, frames)
	}
	full := filterEvents(events, Predicate{})

	for _, tc := range []struct {
		name string
		pred Predicate
	}{
		{"single-node", Predicate{Nodes: []int{3}}},              // lives in frame 0 only
		{"tick-window", Predicate{MinTick: 2000, MaxTick: 2500}}, // ~8% of ticks
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, st, err := QueryAll(bytes.NewReader(data), tc.pred)
			if err != nil {
				t.Fatal(err)
			}
			want := filterEvents(events, tc.pred)
			if !reflect.DeepEqual(Canonicalize(got), Canonicalize(want)) {
				t.Fatalf("selective query diverges from filter (%d vs %d events)", len(got), len(want))
			}
			if len(want) == 0 || len(want) == len(full) {
				t.Fatalf("degenerate selectivity: %d of %d events", len(want), len(full))
			}
			if st.BytesScanned == 0 {
				t.Fatal("no bytes scanned")
			}
			if st.BytesSkipped < 10*st.BytesScanned {
				t.Fatalf("decoded %d payload bytes, skipped only %d — want >=10x reduction",
					st.BytesScanned, st.BytesSkipped)
			}
		})
	}
}

// TestQueryTornTail truncates an indexed trace at every byte offset: the
// query must recover exactly the matching events of the longest valid
// prefix — the same prefix the streaming Reader recovers — and never error.
func TestQueryTornTail(t *testing.T) {
	events := Canonicalize(randomEvents(23, 90))
	data, _ := encodeIndexed(t, events, 30)
	pred := Predicate{} // match everything: sharpest prefix comparison
	for off := headerSize + 1; off <= len(data); off++ {
		prefix := data[:off]
		want, torn := decodeTorn(t, prefix)
		got, st, err := QueryAll(bytes.NewReader(prefix), pred)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("offset %d: query recovered %d events, reader %d", off, len(got), len(want))
		}
		// The query's torn-tail report must agree with the streaming
		// Reader's: a prefix ending on a clean pair boundary is a valid
		// shorter trace, anything else is torn.
		if st.Truncated != torn {
			t.Fatalf("offset %d: query Truncated=%v, reader %v", off, st.Truncated, torn)
		}
	}
}

// decodeTorn reads a possibly-torn binary trace through the streaming
// Reader, returning its recovered prefix and truncation report.
func decodeTorn(t testing.TB, data []byte) ([]sim.SlotEvent, bool) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var events []sim.SlotEvent
	for {
		ev, err := r.Next()
		if err == io.EOF {
			return events, r.Truncated()
		}
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
}

// TestQueryTypedErrors pins the degenerate-input contract of Query, Open and
// ReadEvents: empty, header-only and header-torn traces fail with their
// typed errors on every path.
func TestQueryTypedErrors(t *testing.T) {
	headerOnly := encodeBinary(t, nil, 0)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrEmptyTrace},
		{"header-only", headerOnly, ErrHeaderOnly},
		{"torn-header", headerOnly[:7], ErrTruncatedHeader},
	}
	for _, c := range cases {
		if _, _, err := QueryAll(bytes.NewReader(c.data), Predicate{}); !errors.Is(err, c.want) {
			t.Fatalf("query %s: got %v, want %v", c.name, err, c.want)
		}
		if _, _, err := QueryAll(nonSeeker{bytes.NewReader(c.data)}, Predicate{}); !errors.Is(err, c.want) {
			t.Fatalf("fallback query %s: got %v, want %v", c.name, err, c.want)
		}
		if _, _, err := Open(bytes.NewReader(c.data)); !errors.Is(err, c.want) {
			t.Fatalf("open %s: got %v, want %v", c.name, err, c.want)
		}
		if _, _, err := ReadEvents(bytes.NewReader(c.data)); !errors.Is(err, c.want) {
			t.Fatalf("read %s: got %v, want %v", c.name, err, c.want)
		}
	}
	// NewReader reports empty and torn headers with the same typed errors
	// (header-only is a valid empty trace at this layer, pinned elsewhere).
	if _, err := NewReader(bytes.NewReader(nil)); !errors.Is(err, ErrEmptyTrace) {
		t.Fatalf("NewReader(empty): %v", err)
	}
	if _, err := NewReader(bytes.NewReader(headerOnly[:5])); !errors.Is(err, ErrTruncatedHeader) {
		t.Fatalf("NewReader(torn header): %v", err)
	}
	// A short non-binary stream is still ErrNotBinary, not "torn header".
	if _, err := NewReader(bytes.NewReader([]byte("{\"t"))); !errors.Is(err, ErrNotBinary) {
		t.Fatalf("NewReader(short jsonl): %v", err)
	}
}

// TestParseQuery covers the compact grammar: accepted forms round-trip
// through Predicate.String, rejected forms name the offending term.
func TestParseQuery(t *testing.T) {
	good := []struct {
		in   string
		want Predicate
	}{
		{"", Predicate{}},
		{"node=4711", Predicate{Nodes: []int{4711}}},
		{"node=5,3,9", Predicate{Nodes: []int{3, 5, 9}}},
		{"nodes=1,2", Predicate{Nodes: []int{1, 2}}},
		{"role=tx", Predicate{Role: RoleTx}},
		{"role=decoder", Predicate{Role: RoleDecoder}},
		{"role=mass", Predicate{Role: RoleMass}},
		{"role=any", Predicate{}},
		{"tick=2000-2400", Predicate{MinTick: 2000, MaxTick: 2401}},
		{"tick=2000-", Predicate{MinTick: 2000}},
		{"tick=-2400", Predicate{MaxTick: 2401}},
		{"tick=7", Predicate{MinTick: 7, MaxTick: 8}},
		{"tick=0", Predicate{MinTick: 0, MaxTick: 1}},
		{"seized", Predicate{Seized: true}},
		{"decodes", Predicate{Decodes: true}},
		{"mass", Predicate{Mass: true}},
		{" node=1 & role=tx & tick=10-20 & seized & decodes ",
			Predicate{Nodes: []int{1}, Role: RoleTx, MinTick: 10, MaxTick: 21, Seized: true, Decodes: true}},
	}
	for _, c := range good {
		got, err := ParseQuery(c.in)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("ParseQuery(%q) = %+v, want %+v", c.in, got, c.want)
		}
		back, err := ParseQuery(got.String())
		if err != nil || !reflect.DeepEqual(back, got) {
			t.Fatalf("ParseQuery(%q).String()=%q did not round-trip: %+v, %v", c.in, got.String(), back, err)
		}
	}
	bad := []string{
		"node=", "node=x", "node=-3", "role=boss", "tick=", "tick=b-9",
		"tick=9-3", "seized=true", "decodes=1", "mass=yes", "color=red",
	}
	for _, in := range bad {
		if _, err := ParseQuery(in); err == nil {
			t.Fatalf("ParseQuery(%q) accepted", in)
		}
	}
}

// TestQueryStatsAddTo pins the metrics surface the planner counters flow
// through (traceinfo -counters, the daemon's /metricsz).
func TestQueryStatsAddTo(t *testing.T) {
	events := localityEvents(8, 50, 16)
	data, _ := encodeIndexed(t, events, 50)
	_, st, err := QueryAll(bytes.NewReader(data), Predicate{Nodes: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesSkipped == 0 {
		t.Fatal("selective query skipped nothing")
	}
	reg := metrics.NewRegistry()
	st.AddTo(reg)
	for name, want := range map[string]int64{
		"trace/query/queries":        1,
		"trace/query/frames_scanned": st.FramesScanned,
		"trace/query/frames_skipped": st.FramesSkipped,
		"trace/query/bytes_scanned":  st.BytesScanned,
		"trace/query/bytes_skipped":  st.BytesSkipped,
		"trace/query/events_matched": st.EventsMatched,
	} {
		if got := reg.CounterValue(name); got != want {
			t.Fatalf("counter %s = %d, want %d", name, got, want)
		}
	}
}
