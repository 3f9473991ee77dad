package checkpoint

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSingleFlightOneLeaderFansOut races N goroutines for one key: exactly
// one becomes leader and computes; every other goroutine gets the leader's
// committed record without recomputing.
func TestSingleFlightOneLeaderFansOut(t *testing.T) {
	s, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rec := testRecord("table1", "row=0 seed=0", []byte{42})
	k := rec.Key()
	const n = 8
	var leaders, served atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, leader := s.JoinFlight(context.Background(), k)
			if leader {
				leaders.Add(1)
				defer s.LeaveFlight(k)
				time.Sleep(10 * time.Millisecond) // let waiters pile up
				mustPutConcurrent(t, s, rec)
				return
			}
			if got == nil {
				t.Error("non-leader got nil record with live context")
				return
			}
			if got.Value[0] != 42 {
				t.Errorf("fanned-out record has value %v", got.Value)
			}
			served.Add(1)
		}()
	}
	wg.Wait()
	if leaders.Load() != 1 {
		t.Fatalf("%d leaders, want exactly 1", leaders.Load())
	}
	if served.Load() != n-1 {
		t.Fatalf("%d waiters served, want %d", served.Load(), n-1)
	}
	st := s.Stats()
	if st.DedupHits == 0 || st.DedupWaits == 0 {
		t.Fatalf("dedup counters not bumped: waits=%d hits=%d", st.DedupWaits, st.DedupHits)
	}
	if st.DedupHits > st.DedupWaits {
		t.Fatalf("hits %d exceed waits %d", st.DedupHits, st.DedupWaits)
	}
}

// TestSingleFlightLeaderFailurePromotesWaiter: a leader that leaves without
// committing (failed or cancelled cell) must hand leadership to a waiter
// rather than wedging or losing the work.
func TestSingleFlightLeaderFailurePromotesWaiter(t *testing.T) {
	s, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	k := KeyOf("table1", "row=0 seed=0", "v1|test")
	if _, leader := s.JoinFlight(nil, k); !leader {
		t.Fatal("first joiner not leader")
	}
	promoted := make(chan bool, 1)
	go func() {
		_, leader := s.JoinFlight(nil, k)
		promoted <- leader
		if leader {
			s.LeaveFlight(k)
		}
	}()
	time.Sleep(10 * time.Millisecond) // waiter parks on the flight channel
	s.LeaveFlight(k)                  // leader abandons without a Put
	select {
	case leader := <-promoted:
		if !leader {
			t.Fatal("waiter not promoted to leader after leader abandoned")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter wedged after leader abandoned")
	}
}

func TestSingleFlightContextCancel(t *testing.T) {
	s, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	k := KeyOf("table1", "row=0 seed=0", "v1|test")
	if _, leader := s.JoinFlight(nil, k); !leader {
		t.Fatal("first joiner not leader")
	}
	defer s.LeaveFlight(k)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		rec, leader := s.JoinFlight(ctx, k)
		if rec != nil || leader {
			t.Errorf("cancelled join returned rec=%v leader=%v, want nil/false", rec, leader)
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled JoinFlight did not return")
	}
}

// TestSingleFlightCommittedRecordShortCircuits: a key already in the store
// never creates a flight — the record comes back immediately.
func TestSingleFlightCommittedRecordShortCircuits(t *testing.T) {
	s, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rec := testRecord("table1", "row=0 seed=0", []byte{7})
	mustPut(t, s, rec)
	got, leader := s.JoinFlight(context.Background(), rec.Key())
	if leader || got == nil {
		t.Fatalf("JoinFlight on committed key: rec=%v leader=%v, want record/false", got, leader)
	}
	if st := s.Stats(); st.DedupWaits != 0 {
		t.Fatalf("short-circuit counted a wait: %d", st.DedupWaits)
	}
}
