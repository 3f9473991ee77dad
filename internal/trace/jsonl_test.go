package trace

import (
	"bytes"
	"strings"
	"testing"

	"udwn/internal/sim"
)

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Record(sim.SlotEvent{Tick: 1, Slot: 0, Transmitters: []int{3, 5}, Decodes: 2,
		MassDeliverers: []int{3}})
	j.Record(sim.SlotEvent{Tick: 2, Slot: 1, Transmitters: []int{7}, Decodes: 1})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if j.Events() != 2 {
		t.Fatalf("Events = %d", j.Events())
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("read %d events", len(events))
	}
	if events[0].Tick != 1 || len(events[0].Transmitters) != 2 ||
		events[0].MassDeliverers[0] != 3 {
		t.Fatalf("event 0 = %+v", events[0])
	}
	if events[1].Decodes != 1 || events[1].Slot != 1 {
		t.Fatalf("event 1 = %+v", events[1])
	}
}

// TestJSONLSkipsSilentSlots: a JSONL trace recorded through LockedObserver
// holds no silent slot.
func TestJSONLSkipsSilentSlots(t *testing.T) {
	checkSkipsSilentSlots(t, FormatJSONL)
}

func TestReadJSONLBadInput(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader("{\"tick\":1}\nnot json\n"))
	if err == nil {
		t.Fatal("expected decode error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "disk full" }

func TestJSONLStickyError(t *testing.T) {
	j := NewJSONL(failWriter{})
	// Force enough volume to defeat the bufio buffer.
	big := make([]int, 2000)
	for i := 0; i < 100; i++ {
		j.Record(sim.SlotEvent{Tick: i, Transmitters: big})
	}
	if err := j.Flush(); err == nil {
		t.Fatal("expected flush error")
	}
}
