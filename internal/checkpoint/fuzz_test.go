package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointDecode throws arbitrary bytes at both layers of journal
// reading. decodeFrame must never panic or over-read, and any frame it
// accepts must re-encode to one it accepts again with the same identity.
// Resume on the same bytes must recover a coherent store — every indexed
// record servable, the content hash computable — and its torn-tail
// truncation must leave a journal that resumes cleanly a second time.
func FuzzCheckpointDecode(f *testing.F) {
	valid, err := encodeFrame(&Record{
		Experiment: "table1", Label: "row=0 seed=0", Schema: "v1|s",
		Value:   []byte{1, 2, 3},
		Metrics: []byte(`{"counters":[{"name":"c","value":1}]}`),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("UCP1 but not a frame at all"))
	f.Add(bytes.Repeat(valid, 3))
	// A frame claiming a huge payload: the length cap must reject it
	// without allocating.
	f.Add([]byte{'U', 'C', 'P', '1', 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, ok := decodeFrame(data)
		if ok {
			if n <= 0 || n > int64(len(data)) {
				t.Fatalf("accepted frame with length %d of %d input bytes", n, len(data))
			}
			enc, err := encodeFrame(rec)
			if err != nil {
				t.Fatalf("re-encode of accepted frame failed: %v", err)
			}
			rec2, n2, ok2 := decodeFrame(enc)
			if !ok2 || n2 != int64(len(enc)) {
				t.Fatalf("re-encoded frame rejected (ok=%v n=%d len=%d)", ok2, n2, len(enc))
			}
			if rec2.Key() != rec.Key() || !bytes.Equal(rec2.Value, rec.Value) {
				t.Fatalf("record changed across re-encode: %+v vs %+v", rec, rec2)
			}
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Resume(dir)
		if err != nil {
			return // I/O-level refusal is fine; panics are the bug
		}
		s.Each(func(r *Record) {
			if _, ok := s.Lookup(r.Key()); !ok {
				t.Fatalf("recovered record %v not servable", r.Key())
			}
		})
		_ = s.Hash()
		recovered := s.Len()
		s.Close()

		s2, err := Resume(dir)
		if err != nil {
			t.Fatalf("re-resume after recovery: %v", err)
		}
		defer s2.Close()
		if s2.Len() != recovered {
			t.Fatalf("second resume found %d records, first found %d", s2.Len(), recovered)
		}
		if torn := s2.Stats().TornBytes; torn != 0 {
			t.Fatalf("journal still torn (%d bytes) after recovery truncated it", torn)
		}
	})
}
