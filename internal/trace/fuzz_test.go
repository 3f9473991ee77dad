package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"udwn/internal/sim"
)

// update rewrites the analytics golden files and the seeded fuzz corpus
// under testdata/ (shared by analyze_test.go).
var update = flag.Bool("update", false, "rewrite golden files and the seeded fuzz corpus")

// fuzzSeeds builds the deterministic seed inputs of FuzzTraceDecode: one
// representative per failure class the decoder must survive. The same bytes
// are committed under testdata/fuzz/FuzzTraceDecode (regenerate with
// `go test ./internal/trace -run TestFuzzCorpusSeeds -update`), so `go test`
// replays them even without -fuzz and the fuzzer starts from meaningful
// structure instead of random bytes.
func fuzzSeeds(t testing.TB) map[string][]byte {
	valid := encodeBinary(t, randomEvents(41, 25), 10)

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40

	badSchema := append([]byte(nil), valid...)
	badSchema[len(fileMagic)+2] ^= 0xff

	var empty bytes.Buffer
	if err := NewBinary(&empty).Flush(); err != nil {
		t.Fatal(err)
	}

	// A frame whose header claims a payload far beyond the cap: the reader
	// must refuse it without allocating the claimed size.
	huge := append([]byte(nil), empty.Bytes()...)
	huge = append(huge, frameMagic[:]...)
	huge = binary.LittleEndian.AppendUint32(huge, 0xffffff00)
	huge = binary.LittleEndian.AppendUint32(huge, 0)

	// A CRC-valid frame whose event count over-claims its payload bytes:
	// only the count check stands between the reader and a giant make().
	over := append([]byte(nil), empty.Bytes()...)
	payload := binary.AppendUvarint(nil, 1<<40)
	over = append(over, frameMagic[:]...)
	over = binary.LittleEndian.AppendUint32(over, uint32(len(payload)))
	over = binary.LittleEndian.AppendUint32(over, crc32.Checksum(payload, traceCRC))
	over = append(over, payload...)

	return map[string][]byte{
		"seed_valid_3frames": valid,
		"seed_torn_tail":     valid[:len(valid)-7],
		"seed_payload_flip":  flipped,
		"seed_bad_schema":    badSchema,
		"seed_header_only":   empty.Bytes(),
		"seed_huge_len":      huge,
		"seed_count_claim":   over,
		"seed_jsonl":         []byte("{\"tick\":3,\"transmitters\":[1,2]}\n{\"tick\":4}\n"),
		// Valid JSONL shorter than the binary header: Query must still
		// read it as JSONL, as Open does.
		"seed_jsonl_short": []byte("{\"tick\":1}\n"),
		"seed_magic_only":  append([]byte(nil), fileMagic[:]...),
	}
}

// TestFuzzCorpusSeeds keeps the committed corpus in sync with fuzzSeeds:
// with -update it rewrites testdata/fuzz/FuzzTraceDecode, otherwise it
// verifies every seed file is present with the expected bytes.
func TestFuzzCorpusSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzTraceDecode")
	seeds := fuzzSeeds(t)
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, data := range seeds {
		body, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("corpus seed missing (regenerate with -update): %v", err)
		}
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if string(body) != want {
			t.Fatalf("corpus seed %s is stale; regenerate with -update", name)
		}
	}
}

// FuzzTraceDecode throws arbitrary bytes at the binary trace reader and the
// format auto-detector. The reader must never panic or over-allocate, its
// truncation report must match how the stream actually ended, and any event
// sequence it accepts must survive a re-encode/decode round trip unchanged —
// the decoder defines the format, so whatever it accepts must be expressible.
// A match-everything query must agree with Open + Next: the same events,
// truncation flag and typed error, and an error whenever Next fails.
func FuzzTraceDecode(f *testing.F) {
	for _, data := range fuzzSeeds(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err == nil {
			var got []sim.SlotEvent
			for {
				ev, nerr := r.Next()
				if nerr == io.EOF {
					break
				}
				if nerr != nil {
					t.Fatalf("Next: %v", nerr)
				}
				got = append(got, ev)
			}
			// Every event costs at least one payload byte, so the decode
			// count is bounded by the input size.
			if len(got) > len(data) {
				t.Fatalf("decoded %d events from %d bytes", len(got), len(data))
			}
			if r.Decoded() != len(got) {
				t.Fatalf("Decoded()=%d, got %d events", r.Decoded(), len(got))
			}

			// Round trip: re-encode the accepted sequence and decode it
			// back.
			var buf bytes.Buffer
			w := NewBinary(&buf)
			for _, ev := range got {
				w.Record(ev)
			}
			if err := w.Flush(); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			r2, err := NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("re-encoded stream rejected: %v", err)
			}
			var back []sim.SlotEvent
			for {
				ev, nerr := r2.Next()
				if nerr == io.EOF {
					break
				}
				if nerr != nil {
					t.Fatalf("re-encoded stream torn: %v", nerr)
				}
				back = append(back, ev)
			}
			if r2.Truncated() {
				t.Fatal("re-encoded stream reported truncated")
			}
			if !reflect.DeepEqual(Canonicalize(back), Canonicalize(got)) {
				t.Fatalf("round trip changed the event sequence (%d vs %d events)", len(back), len(got))
			}
		}

		// The auto-detector must classify or reject without panicking, and
		// a stream it hands to the JSONL reader must fail cleanly at worst.
		events, _, oerr := Open(bytes.NewReader(data))
		qgot, st, qerr := QueryAll(bytes.NewReader(data), Predicate{})
		if oerr != nil {
			for _, typed := range []error{ErrEmptyTrace, ErrHeaderOnly, ErrTruncatedHeader, ErrNotBinary} {
				if errors.Is(qerr, typed) != errors.Is(oerr, typed) {
					t.Fatalf("Open: %v, Query: %v", oerr, qerr)
				}
			}
			var osm, qsm *SchemaMismatchError
			if errors.As(qerr, &qsm) != errors.As(oerr, &osm) || qerr == nil {
				t.Fatalf("Open: %v, Query: %v", oerr, qerr)
			}
			return
		}
		var want []sim.SlotEvent
		for {
			ev, nerr := events.Next()
			if nerr == io.EOF {
				break
			}
			if nerr != nil {
				if qerr == nil {
					t.Fatalf("Next: %v, but Query returned no error", nerr)
				}
				return
			}
			want = append(want, ev)
		}
		if qerr != nil {
			t.Fatalf("Query: %v, but Next reached the end", qerr)
		}
		if !reflect.DeepEqual(Canonicalize(qgot), Canonicalize(want)) {
			t.Fatalf("Query returned %d events, Next %d", len(qgot), len(want))
		}
		br, _ := events.(*Reader)
		if torn := br != nil && br.Truncated(); st.Truncated != torn {
			t.Fatalf("Query Truncated=%v, Reader %v", st.Truncated, torn)
		}
	})
}
