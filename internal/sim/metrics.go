package sim

import "udwn/internal/metrics"

// stepMetrics holds the tick loop's metric handles, resolved once at
// construction so the per-slot cost is plain atomic adds — no map lookups.
// All instruments live under the "sim/" prefix; when several simulations
// share one registry (the experiment grid aggregates every cell into the
// run registry) the get-or-create lookups return the shared instruments and
// the commutative updates merge deterministically.
type stepMetrics struct {
	slots, tx, decodes, mass          *metrics.Counter
	cdBusy, cdIdle, ack, ackMiss, ntd *metrics.Counter
	txPerSlot                         *metrics.Histogram
	contention                        *metrics.Histogram

	// Spatial-index and interference-engine work counters.
	idxTx, idxCand, idxNbr           *metrics.Counter
	fldRebuild, fldSubset, fldSummed *metrics.Counter
}

// Contention histogram bucket bounds. Declaration-fixed (see the metrics
// package determinism contract): txPerSlotBounds spans one transmitter to a
// dense collision storm; contentionBounds brackets the Try&Adjust
// equilibrium band, which the paper drives to a constant (Prop. 3.1) — most
// mass should land in the low single-digit buckets once converged.
var (
	txPerSlotBounds  = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
	contentionBounds = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64}
)

func newStepMetrics(r *metrics.Registry) *stepMetrics {
	return &stepMetrics{
		slots:      r.Counter("sim/slots"),
		tx:         r.Counter("sim/tx"),
		decodes:    r.Counter("sim/decodes"),
		mass:       r.Counter("sim/mass_deliveries"),
		cdBusy:     r.Counter("sim/cd_busy"),
		cdIdle:     r.Counter("sim/cd_idle"),
		ack:        r.Counter("sim/ack"),
		ackMiss:    r.Counter("sim/ack_miss"),
		ntd:        r.Counter("sim/ntd"),
		txPerSlot:  r.Histogram("sim/tx_per_slot", txPerSlotBounds...),
		contention: r.Histogram("sim/contention", contentionBounds...),
		idxTx:      r.Counter("sim/index/tx_queries"),
		idxCand:    r.Counter("sim/index/candidates"),
		idxNbr:     r.Counter("sim/index/neighbor_queries"),
		fldRebuild: r.Counter("sim/field/rebuild_slots"),
		fldSubset:  r.Counter("sim/field/subset_slots"),
		fldSummed:  r.Counter("sim/field/summed"),
	}
}

// flushIndexStats exports the spatial-index counter deltas accumulated since
// the last flush. Only instrumented slots call it.
func (s *Sim) flushIndexStats() {
	m := s.met
	cur, prev := s.idx, s.idxFlushed
	m.idxTx.Add(cur.TxQueries - prev.TxQueries)
	m.idxCand.Add(cur.Candidates - prev.Candidates)
	m.idxNbr.Add(cur.NeighborQueries - prev.NeighborQueries)
	s.idxFlushed = cur
}

// flushFieldStats exports the interference-engine counter deltas accumulated
// since the last flush. Only instrumented slots call it.
func (s *Sim) flushFieldStats() {
	m := s.met
	f, fp := s.fstat, s.fstatFlushed
	m.fldRebuild.Add(f.RebuildSlots - fp.RebuildSlots)
	m.fldSubset.Add(f.SubsetSlots - fp.SubsetSlots)
	m.fldSummed.Add(f.SummedReceivers - fp.SummedReceivers)
	s.fstatFlushed = f
}

// probMass sums the current transmission probabilities of alive protocols
// implementing ProbReporter — the global probability mass whose vicinity
// restriction is the paper's contention P^ρ_t(v). O(n); only run on
// instrumented slots.
func (s *Sim) probMass() float64 {
	total := 0.0
	for v, pr := range s.reporters {
		if pr != nil && s.alive[v] {
			total += pr.TransmitProb()
		}
	}
	return total
}
