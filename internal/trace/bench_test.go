package trace

import (
	"bytes"
	"io"
	"testing"

	"udwn/internal/sim"
)

// denseEvents models a full-scale regeneration trace: high contention (many
// transmitters and decoders per slot), the scenario where trace size and
// write throughput actually matter.
func denseEvents() []sim.SlotEvent {
	events := randomEvents(101, 2000)
	for i := range events {
		for len(events[i].Transmitters) < 24 {
			events[i].Transmitters = append(events[i].Transmitters, (i*17+len(events[i].Transmitters)*31)%4096)
		}
		for len(events[i].Decoders) < 48 {
			events[i].Decoders = append(events[i].Decoders, (i*13+len(events[i].Decoders)*7)%4096)
		}
	}
	return events
}

// TestBinarySizeRatio pins the size claim of the binary trace format: on
// denseEvents it takes at most 1/2.5 of JSONL's bytes (353,201 against
// 907,662 bytes for the 2,000 events when this was written: 2.57×).
func TestBinarySizeRatio(t *testing.T) {
	size := func(format Format) int {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, format)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range denseEvents() {
			w.Record(ev)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	jsonl, binary := size(FormatJSONL), size(FormatBinary)
	if 2*jsonl < 5*binary {
		t.Fatalf("binary %d bytes against JSONL %d: want JSONL at least 2.5× larger", binary, jsonl)
	}
}

// benchWrite reports encode throughput (events/s, MB/s) and size
// (bytes/event) for one trace writer over the dense scenario. The JSONL and
// binary results side by side are the format comparison of the trace layer:
// bytes/event is the on-disk cost, MB/s the encode ceiling.
func benchWrite(b *testing.B, mk func(io.Writer) Writer) {
	events := denseEvents()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w := mk(&buf)
		for _, ev := range events {
			w.Record(ev)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(buf.Len())/float64(len(events)), "bytes/event")
	b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkTraceWriteJSONL(b *testing.B) {
	benchWrite(b, func(w io.Writer) Writer { return NewJSONL(w) })
}

func BenchmarkTraceWriteBinary(b *testing.B) {
	benchWrite(b, func(w io.Writer) Writer { return NewBinary(w) })
}

// benchRead reports decode throughput over the same dense trace.
func benchRead(b *testing.B, format Format) {
	events := denseEvents()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, format)
	if err != nil {
		b.Fatal(err)
	}
	for _, ev := range events {
		w.Record(ev)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(events) {
			b.Fatalf("decoded %d of %d events", len(got), len(events))
		}
	}
}

func BenchmarkTraceReadJSONL(b *testing.B) {
	benchRead(b, FormatJSONL)
}

func BenchmarkTraceReadBinary(b *testing.B) {
	benchRead(b, FormatBinary)
}

// benchQuery measures the query planner over a large indexed trace with the
// locality structure indexes exploit (each frame covers its own tick range
// and node neighbourhood). bytes_scanned/bytes_skipped expose how much of
// the file the planner actually decoded — the prune_x metric is the
// selective-query speedup claim in checkable form.
func benchQuery(b *testing.B, pred Predicate) {
	events := localityEvents(64, 100, 16)
	data, _ := encodeIndexed(b, events, 100)
	want := len(filterEvents(events, pred))
	var last QueryStats
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, st, err := QueryAll(bytes.NewReader(data), pred)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != want {
			b.Fatalf("query matched %d of %d expected events", len(got), want)
		}
		last = st
	}
	b.StopTimer()
	b.ReportMetric(float64(last.BytesScanned), "bytes_scanned")
	b.ReportMetric(float64(last.BytesSkipped), "bytes_skipped")
	if last.BytesScanned > 0 {
		b.ReportMetric(float64(last.BytesSkipped+last.BytesScanned)/float64(last.BytesScanned), "prune_x")
	}
}

func BenchmarkTraceQueryFullMatch(b *testing.B) {
	benchQuery(b, Predicate{})
}

func BenchmarkTraceQuerySingleNode(b *testing.B) {
	benchQuery(b, Predicate{Nodes: []int{3}})
}

func BenchmarkTraceQueryTickWindow(b *testing.B) {
	benchQuery(b, Predicate{MinTick: 2000, MaxTick: 2500})
}
