package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointDecode throws arbitrary bytes at the journal as recovery
// reads it. Resume must never panic or over-read, and must recover a
// coherent store — every indexed record servable, the content hash
// computable. Every record it recovered must survive a round trip through
// the production codec: Put into a fresh store, which then resumes to the
// same record count and hash with no torn bytes. And the torn-tail
// truncation must leave a journal that resumes cleanly a second time.
func FuzzCheckpointDecode(f *testing.F) {
	payload, err := encodeRecord(&Record{
		Experiment: "table1", Label: "row=0 seed=0", Schema: "v1|s",
		Value:   []byte{1, 2, 3},
		Metrics: []byte(`{"counters":[{"name":"c","value":1}]}`),
	})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := encodePayloadFrame(payload)
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
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Resume(dir)
		if err != nil {
			return // I/O-level refusal is fine; panics are the bug
		}
		var recs []*Record
		s.Each(func(r *Record) {
			if _, ok := s.Lookup(r.Key()); !ok {
				t.Fatalf("recovered record %v not servable", r.Key())
			}
			recs = append(recs, r)
		})
		hash := s.Hash()
		recovered := s.Len()
		s.Close()

		fresh := t.TempDir()
		w, err := Create(fresh)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Put(*r); err != nil {
				t.Fatalf("re-storing recovered record %v: %v", r.Key(), err)
			}
		}
		w.Close()
		re, err := Resume(fresh)
		if err != nil {
			t.Fatalf("resume of re-stored records: %v", err)
		}
		if re.Len() != recovered || re.Hash() != hash {
			t.Fatalf("re-stored store resumed %d records hash %s, recovered %d hash %s",
				re.Len(), re.Hash(), recovered, hash)
		}
		if torn := re.Stats().TornBytes; torn != 0 {
			t.Fatalf("re-stored journal resumed with %d torn bytes", torn)
		}
		re.Close()

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
