package checkpoint

import (
	"bytes"
	"context"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func testRecord(exp, label string, value []byte) Record {
	return Record{
		Experiment: exp,
		Label:      label,
		Schema:     "v1|test",
		Value:      value,
		Metrics:    []byte(`{"counters":[{"name":"sim/tx","value":3}]}`),
	}
}

func mustPut(t *testing.T, s *Store, rec Record) {
	t.Helper()
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		testRecord("table1", "row=0 seed=0", []byte{1, 2, 3}),
		testRecord("table1", "row=0 seed=1", []byte{4, 5}),
		testRecord("figure3", "row=1 seed=0", []byte{6}),
	}
	for _, r := range recs {
		mustPut(t, s, r)
	}
	hash := s.Hash()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(recs) {
		t.Fatalf("resumed store has %d records, want %d", r.Len(), len(recs))
	}
	for _, want := range recs {
		got, ok := r.Lookup(want.Key())
		if !ok {
			t.Fatalf("record %s/%s missing after resume", want.Experiment, want.Label)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("record drifted through the journal:\ngot  %+v\nwant %+v", *got, want)
		}
	}
	if r.Hash() != hash {
		t.Fatalf("store hash changed across resume: %s != %s", r.Hash(), hash)
	}
	st := r.Stats()
	if !st.Resumed || st.TornBytes != 0 || st.Records != len(recs) || st.Hits != int64(len(recs)) {
		t.Fatalf("unexpected resume stats: %+v", st)
	}
}

// TestResumeReplaysRecordWithAttempts: stores written while Record still
// carried an Attempts field keep replaying. gob matches struct fields by
// name and skips the ones the destination lacks, so the old frame resumes
// intact, serves JoinFlight without making the caller leader, and hashes
// like a record of the same content written today.
func TestResumeReplaysRecordWithAttempts(t *testing.T) {
	type oldRecord struct {
		Experiment, Label, Schema string
		Attempts                  int
		Value, Metrics            []byte
	}
	want := testRecord("table1", "row=0 seed=0", []byte{1, 2, 3})
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(oldRecord{
		Experiment: want.Experiment, Label: want.Label, Schema: want.Schema,
		Attempts: 2, Value: want.Value, Metrics: want.Metrics,
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j, err := CreateJournal(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := Resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.TornBytes != 0 || st.Records != 1 {
		t.Fatalf("old record not recovered whole: %+v", st)
	}
	rec, leader := s.JoinFlight(context.Background(), want.Key())
	if leader || rec == nil || !reflect.DeepEqual(*rec, want) {
		t.Fatalf("JoinFlight = (%+v, leader=%v), want the old record replayed", rec, leader)
	}
	fresh, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	mustPut(t, fresh, want)
	if s.Hash() != fresh.Hash() {
		t.Fatalf("old record hashes %s, the same content written now %s", s.Hash(), fresh.Hash())
	}
}

func TestCreateDiscardsExistingJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, testRecord("table1", "row=0 seed=0", []byte{1}))
	s.Close()

	fresh, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.Len() != 0 {
		t.Fatalf("Create kept %d records from the old journal", fresh.Len())
	}
}

func TestResumeMissingJournal(t *testing.T) {
	s, err := Resume(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 0 {
		t.Fatalf("empty dir resumed with %d records", s.Len())
	}
	mustPut(t, s, testRecord("table1", "row=0 seed=0", []byte{1}))
}

// TestTornWriteRecovery is the atomicity contract: truncating the journal
// at *every* byte offset inside the final record must recover exactly the
// records before it — the torn tail is dropped, nothing else is lost, and
// the recovered store accepts new appends.
func TestTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	kept := []Record{
		testRecord("table1", "row=0 seed=0", []byte{1, 2, 3}),
		testRecord("table1", "row=0 seed=1", []byte{4, 5, 6}),
	}
	for _, r := range kept {
		mustPut(t, s, r)
	}
	path := filepath.Join(dir, journalName)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	victim := testRecord("table1", "row=1 seed=0", []byte{7, 8, 9})
	mustPut(t, s, victim)
	s.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= len(clean) {
		t.Fatal("third record added no journal bytes")
	}

	for cut := len(clean); cut < len(full); cut++ {
		tdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(tdir, journalName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Resume(tdir)
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		if r.Len() != len(kept) {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, r.Len(), len(kept))
		}
		for _, want := range kept {
			if _, ok := r.Lookup(want.Key()); !ok {
				t.Fatalf("cut=%d: intact record %s lost", cut, want.Label)
			}
		}
		if _, ok := r.Lookup(victim.Key()); ok {
			t.Fatalf("cut=%d: torn record survived recovery", cut)
		}
		st := r.Stats()
		if want := int64(cut - len(clean)); st.TornBytes != want {
			t.Fatalf("cut=%d: TornBytes=%d, want %d", cut, st.TornBytes, want)
		}
		// The truncated store must be append-able and re-resumable.
		mustPut(t, r, victim)
		r.Close()
		again, err := Resume(tdir)
		if err != nil {
			t.Fatalf("cut=%d: re-resume failed: %v", cut, err)
		}
		if again.Len() != len(kept)+1 {
			t.Fatalf("cut=%d: re-appended store has %d records", cut, again.Len())
		}
		again.Close()
	}
}

// TestCorruptMiddleDropsTail pins the recovery discipline for corruption
// that is not at the end: the journal is append-only, so nothing after the
// first invalid frame can be trusted, and recovery keeps only the prefix.
func TestCorruptMiddleDropsTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := testRecord("table1", "row=0 seed=0", []byte{1})
	mustPut(t, s, first)
	path := filepath.Join(dir, journalName)
	prefix, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second := testRecord("table1", "row=0 seed=1", []byte{2})
	mustPut(t, s, second)
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(prefix)+13] ^= 0xff // flip a payload byte of the second frame
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("recovered %d records, want 1", r.Len())
	}
	if _, ok := r.Lookup(first.Key()); !ok {
		t.Fatal("record before the corruption lost")
	}
	if st := r.Stats(); st.TornBytes != int64(len(data)-len(prefix)) {
		t.Fatalf("TornBytes=%d, want %d", st.TornBytes, len(data)-len(prefix))
	}
}

func TestConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec := testRecord("table1", labelFor(w, i), []byte{byte(w), byte(i)})
				if err := s.Put(rec); err != nil {
					t.Error(err)
					return
				}
				if _, ok := s.Lookup(rec.Key()); !ok {
					t.Errorf("writer %d: record %d invisible after Put", w, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != writers*per {
		t.Fatalf("store has %d records, want %d", s.Len(), writers*per)
	}
	hash := s.Hash()
	s.Close()
	r, err := Resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != writers*per || r.Hash() != hash {
		t.Fatalf("concurrent journal did not round-trip: %d records, hash match=%t",
			r.Len(), r.Hash() == hash)
	}
}

func labelFor(w, i int) string { return "row=" + string(rune('a'+w)) + " seed=" + string(rune('a'+i)) }

func TestKeyOfSeparatesFields(t *testing.T) {
	// Length prefixing must keep ("ab","c") and ("a","bc") apart.
	if KeyOf("ab", "c", "s") == KeyOf("a", "bc", "s") {
		t.Fatal("field boundaries not separated in key derivation")
	}
	if KeyOf("e", "l", "s1") == KeyOf("e", "l", "s2") {
		t.Fatal("schema not part of the key")
	}
	if KeyOf("e", "l", "s") != KeyOf("e", "l", "s") {
		t.Fatal("key derivation is not deterministic")
	}
}

func TestSchemaOf(t *testing.T) {
	type inner struct{ A float64 }
	type outer struct {
		X, Y   float64
		S      []inner
		hidden int //nolint:unused — exercises the exported-only rule
	}
	got := SchemaOf(reflect.TypeOf(outer{}))
	want := "struct{X float64;Y float64;S []struct{A float64}}"
	if got != want {
		t.Fatalf("SchemaOf = %q, want %q", got, want)
	}
	if SchemaOf(reflect.TypeOf([]float64{})) != "[]float64" {
		t.Fatalf("slice schema wrong: %q", SchemaOf(reflect.TypeOf([]float64{})))
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	type cell struct {
		LB, Dec float64
		Ticks   []float64
		Done    bool
	}
	in := cell{LB: 3.25, Dec: -1, Ticks: []float64{1, 2.5}, Done: true}
	b, err := EncodeValue(in)
	if err != nil {
		t.Fatal(err)
	}
	var out cell
	if err := DecodeValue(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip drifted: %+v != %+v", out, in)
	}
	// Determinism: the same value must encode to the same bytes (the store
	// hash depends on it).
	b2, err := EncodeValue(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatal("gob encoding of identical values differs")
	}
	if err := DecodeValue([]byte{0xff, 0x01, 0x02}, &out); err == nil {
		t.Fatal("garbage decoded without error")
	}
}

func TestPutAfterCloseFails(t *testing.T) {
	s, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Put(testRecord("t", "l", nil)); err == nil {
		t.Fatal("Put after Close must fail")
	}
	if st := s.Stats(); st.Errors != 1 {
		t.Fatalf("Errors=%d, want 1", st.Errors)
	}
}

func TestStoreAccessors(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", s.Dir(), dir)
	}
	s.NoteError()
	if got := s.Stats().Errors; got != 1 {
		t.Fatalf("Errors = %d after NoteError, want 1", got)
	}
	k := KeyOf("e", "l", "s")
	if len(k.String()) != 64 {
		t.Fatalf("Key.String() = %q, want 64 hex digits", k.String())
	}
}

// Opening a store whose directory path is occupied by a regular file must
// fail cleanly instead of panicking.
func TestOpenDirIsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(path); err == nil {
		t.Fatal("Create over a regular file must fail")
	}
	if _, err := Resume(path); err == nil {
		t.Fatal("Resume over a regular file must fail")
	}
}

// A record whose payload exceeds the frame limit must be rejected by Put
// (and counted), never half-written.
func TestPutOversizedPayload(t *testing.T) {
	s, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := testRecord("e", "big", make([]byte, maxPayload+1))
	if err := s.Put(rec); err == nil {
		t.Fatal("oversized record must be rejected")
	}
	if s.Stats().Errors != 1 || s.Len() != 0 {
		t.Fatalf("oversized Put: errors=%d len=%d", s.Stats().Errors, s.Len())
	}
}

func TestSchemaOfKinds(t *testing.T) {
	type inner struct{ A float64 }
	type outer struct {
		M      map[string]int
		P      *inner
		Ar     [3]int8
		hidden int //nolint:unused — exercises the unexported-field skip
	}
	got := SchemaOf(reflect.TypeOf(outer{}))
	want := "struct{M map[string]int;P *struct{A float64};Ar [3]int8}"
	if got != want {
		t.Fatalf("SchemaOf = %q, want %q", got, want)
	}
	if s := SchemaOf(reflect.TypeOf(3.14)); s != "float64" {
		t.Fatalf("SchemaOf(float64) = %q", s)
	}
	// Self-referential type: the depth cap must terminate the recursion.
	type node struct{ Next *node }
	if s := SchemaOf(reflect.TypeOf(node{})); !strings.Contains(s, "...") {
		t.Fatalf("recursive SchemaOf did not hit the depth cap: %q", s)
	}
}

// Channels are not gob-encodable: EncodeValue must surface the error.
func TestEncodeValueError(t *testing.T) {
	ch := make(chan int)
	if _, err := EncodeValue(&ch); err == nil {
		t.Fatal("encoding a channel must fail")
	}
}
