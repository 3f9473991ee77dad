package sim

// This file maintains the Phase 2 interference field incrementally.
//
// Every receiver v carries the interference on its tuned channel: for each
// same-channel transmitter w in ascending id order, add Power(w,v)·scale(w).
// That accumulation order — ascending transmitters, per receiver, restricted
// to the receiver's channel — is the *canonical sum*. The engine never
// produces anything else: instead of adding and subtracting deltas (whose
// result bits would depend on history), it tracks which receivers'
// accumulators are still the canonical sum of the current slot's
// transmission composition and re-runs the canonical sum for exactly the
// receivers that are not. Equal compositions summed in the canonical order
// give equal bits, so a reused accumulator is byte-identical to a sum from
// scratch — there is no approximation to bound, and the periodic epoch
// rebuild (defaultFieldEpoch) is a defense-in-depth rail, not a correctness
// requirement. The sum from scratch exists only as the test oracle of the
// differential suites.
//
// Validity is tracked with slot stamps rather than per-receiver dirty bits
// so that clearing costs nothing: accSlot[v] is the slot whose composition
// totalPower[v] reflects, chanDirty[c] is the last slot at which channel c's
// transmission composition changed, and vDirty[v] is the last slot at which
// receiver v itself was invalidated (it moved, or retuned to another
// channel). totalPower[v] is valid iff accSlot[v] is at least as new as both
// stamps that govern it.
//
// fieldAdvance rematerializes every invalid receiver eagerly — either by the
// canonical sum over the invalid set, or, when the composition only
// *appended* transmitters (each with an id above its channel's previous
// maximum, no removals, scale or channel changes, moves or retunes), by
// extending every accumulator with the new transmitters' terms, which is
// exactly the canonical sum continued. Every receiver is therefore valid at
// the end of fieldAdvance: the rest of the slot reads totalPower directly,
// and the next slot's append starts from accumulators that all equal the
// canonical sum of the previous composition.

// FieldStats counts the incremental field engine's per-slot outcomes, for
// run diagnostics and the opt-in "sim/field/*" metrics. All zeros when the
// run never builds a field.
type FieldStats struct {
	// ReusedSlots counts slots whose entire field carried over unchanged.
	ReusedSlots int64
	// DeltaSlots counts slots resolved by the append fast path (new
	// transmitters' terms extended onto every accumulator).
	DeltaSlots int64
	// RebuildSlots counts slots that re-summed some invalidated subset of
	// receivers (possibly all of them).
	RebuildSlots int64
	// EpochRebuilds counts forced full rebuilds on the epoch rail.
	EpochRebuilds int64
}

// FieldStats returns the cumulative incremental-field work counters.
func (s *Sim) FieldStats() FieldStats { return s.fstat }

// fieldInit allocates the incremental engine's state; called from New only
// when the run reads the field. A nil accSlot elsewhere means "no engine":
// fieldAdvance is never called and totalPower stays zero.
func (s *Sim) fieldInit() {
	n := s.n
	s.accSlot = make([]int64, n)
	s.vDirty = make([]int64, n)
	s.chanDirty = make([]int64, s.cfg.Channels)
	s.chanLastPrev = make([]int32, s.cfg.Channels)
	if s.cfg.Channels > 1 {
		s.chanPrev = make([]int8, n)
	}
	s.fieldEpoch = defaultFieldEpoch
}

// defaultFieldEpoch is the forced-rebuild period in slots: every
// defaultFieldEpoch-th slot recomputes the whole field from scratch
// regardless of what changed.
const defaultFieldEpoch = 256

// fieldValidAt reports whether totalPower[v] is the canonical sum of the
// current slot's composition on v's channel.
func (s *Sim) fieldValidAt(v int) bool {
	a := s.accSlot[v]
	return a >= s.chanDirty[s.chanBuf[v]] && a >= s.vDirty[v]
}

// fieldAdvance diffs this slot's transmission composition against the
// previous slot's, stamps the channels and receivers the changes invalidate,
// and rematerializes exactly the invalid receivers by the canonical sum.
// Called once per slot, after Phase 1 filled txBuf/scaleBuf/chanBuf, with
// tick not yet advanced.
func (s *Sim) fieldAdvance() {
	S := int64(s.tick) + 1 // stamps must be positive: zero marks "clean"

	// Whether the composition change is a pure per-channel append — the only
	// shape whose delta application is itself a canonical-sum continuation.
	appendOK := true

	// A moved node invalidates itself as a receiver, and — if it transmits
	// this slot — every receiver on its channel, since its distance terms
	// changed. A mover that transmitted last slot but not this one, or on
	// another channel, dirties its old channel in the merge walk below.
	if len(s.movedBuf) > 0 {
		appendOK = false
		for _, v := range s.movedBuf {
			s.vDirty[v] = S
			if s.isTxBuf[v] {
				s.chanDirty[s.chanBuf[v]] = S
			}
		}
		s.movedBuf = s.movedBuf[:0]
	}
	// Channel retunes invalidate the retuned receiver (its accumulator
	// belongs to the old channel). Only possible in multi-channel runs.
	if s.chanPrev != nil {
		for v := 0; v < s.n; v++ {
			if c := s.chanBuf[v]; c != s.chanPrev[v] {
				s.vDirty[v] = S
				s.chanPrev[v] = c
				appendOK = false
			}
		}
	}

	// Merge-walk the previous and current transmitter lists (both ascending)
	// to stamp the channels whose composition changed and collect the added
	// transmitters for the append path.
	prev, cur := s.prevTx, s.txBuf
	for c := range s.chanLastPrev {
		s.chanLastPrev[c] = -1
	}
	for i := range prev {
		s.chanLastPrev[s.prevChan[i]] = int32(prev[i])
	}
	s.addedBuf = s.addedBuf[:0]
	i, j := 0, 0
	for i < len(prev) || j < len(cur) {
		switch {
		case j >= len(cur) || (i < len(prev) && prev[i] < cur[j]):
			// w stopped transmitting: its old channel loses a term.
			s.chanDirty[s.prevChan[i]] = S
			appendOK = false
			i++
		case i >= len(prev) || cur[j] < prev[i]:
			// w started transmitting: its channel gains a term. The append
			// path stays open only if w's id extends the channel's ascending
			// sum past its previous maximum.
			w := cur[j]
			c := s.chanBuf[w]
			s.chanDirty[c] = S
			if int32(w) <= s.chanLastPrev[c] {
				appendOK = false
			}
			s.addedBuf = append(s.addedBuf, w)
			j++
		default:
			// w transmits in both slots; scale or channel changes alter its
			// term (on both channels for a retune).
			w := cur[j]
			if s.scaleBuf[w] != s.prevScale[i] || s.chanBuf[w] != s.prevChan[i] {
				s.chanDirty[s.prevChan[i]] = S
				s.chanDirty[s.chanBuf[w]] = S
				appendOK = false
			}
			i++
			j++
		}
	}

	// Refresh the baseline composition for the next slot's diff.
	s.prevTx = append(s.prevTx[:0], cur...)
	s.prevScale = s.prevScale[:0]
	s.prevChan = s.prevChan[:0]
	for _, w := range cur {
		s.prevScale = append(s.prevScale, s.scaleBuf[w])
		s.prevChan = append(s.prevChan, s.chanBuf[w])
	}

	// Epoch rail: a forced full canonical rebuild every fieldEpoch slots.
	// Structurally the result bits cannot drift, but a cheap periodic
	// re-anchoring makes that a local argument instead of a global one.
	if S%int64(s.fieldEpoch) == 0 {
		for v := 0; v < s.n; v++ {
			s.totalPower[v] = 0
		}
		s.fieldAddAll(s.txBuf, S)
		s.fstat.EpochRebuilds++
		return
	}

	if appendOK {
		if len(s.addedBuf) == 0 {
			// Identical composition, no receiver invalidations: every
			// accumulator carries over bit-for-bit.
			s.fstat.ReusedSlots++
			return
		}
		// Pure append: extend every accumulator with the new transmitters'
		// terms in ascending order — the canonical sum, continued. Valid
		// because the previous fieldAdvance left every receiver valid for the
		// previous composition and each added id exceeds its channel's
		// previous maximum.
		s.fieldAddAll(s.addedBuf, S)
		s.fstat.DeltaSlots++
		return
	}

	// General case: canonical re-summation of exactly the invalid receivers.
	s.invalBuf = s.invalBuf[:0]
	for v := 0; v < s.n; v++ {
		if !s.fieldValidAt(v) {
			s.totalPower[v] = 0
			s.accSlot[v] = S
			s.invalBuf = append(s.invalBuf, v)
		}
	}
	if len(s.invalBuf) == 0 {
		s.fstat.ReusedSlots++
		return
	}
	inval := s.invalBuf
	for _, w := range s.txBuf {
		sc := s.scaleBuf[w]
		wc := s.chanBuf[w]
		if row := s.field.Row(w); row != nil {
			for _, v := range inval {
				if s.chanBuf[v] == wc {
					s.totalPower[v] += row[v] * sc
				}
			}
		} else {
			for _, v := range inval {
				if s.chanBuf[v] == wc {
					s.totalPower[v] += s.field.Power(w, v) * sc
				}
			}
		}
	}
	s.fstat.RebuildSlots++
}

// fieldAddAll extends every receiver's accumulator with the terms of the
// same-channel transmitters ws, in order, and stamps every receiver valid
// for slot S. Over zeroed accumulators and ws = txBuf it is the canonical
// sum from scratch.
func (s *Sim) fieldAddAll(ws []int, S int64) {
	for _, w := range ws {
		sc := s.scaleBuf[w]
		wc := s.chanBuf[w]
		if row := s.field.Row(w); row != nil {
			for v := 0; v < s.n; v++ {
				if s.chanBuf[v] == wc {
					s.totalPower[v] += row[v] * sc
				}
			}
		} else {
			for v := 0; v < s.n; v++ {
				if s.chanBuf[v] == wc {
					s.totalPower[v] += s.field.Power(w, v) * sc
				}
			}
		}
	}
	for v := range s.accSlot {
		s.accSlot[v] = S
	}
}

// fieldNoteMove records that node v moved, for the next fieldAdvance; the
// mark is cheap and unconditional so mutators stay simple.
func (s *Sim) fieldNoteMove(v int) {
	if s.accSlot != nil {
		s.movedBuf = append(s.movedBuf, v)
	}
}
