package sim

import "math"

// This file computes the Phase 2 interference field on demand.
//
// Receiver v's interference is the canonical sum: for each transmitter w on
// v's tuned channel, in ascending id order, add Power(w,v)·scale(w). Every
// reader of that sum compares it with a threshold — CD busy, ACK clear, the
// SINR decode test — so fieldAdvance sums it only over the slot's demand
// set, marked through the spatial index:
//
//   - every transmitter, whose ACK outcome reads its own sum;
//   - every same-channel listener inside a transmitter's decode cutoff,
//     whose decode test may read it;
//   - when CD is granted, every same-channel listener within the
//     certified-idle radius ρ_w of a transmitter w (idleRadius).
//
// Every other alive listener reads Idle without a sum. Let k_c be its
// channel's transmitter count. Each of its at most k_c terms comes from a
// transmitter farther than ρ_w = (scale_w·P·k_c·(1+δ)/BusyRSS)^{1/ζ}, so the
// exact term is below BusyRSS/(k_c(1+δ)). Rounding is monotone, and the
// distance, power, scale product and ρ_w itself each round by a few ulps.
// The float sum of k_c terms, each at most t, is at most k_c·t·(1+2⁻⁵³)^{k_c}.
// All of this sits far inside δ = idleDelta, so the canonical sum stays
// below BusyRSS and the receiver is idle. slotView.TotalPower computes the
// canonical sum on the spot for a receiver outside the set, so a model
// never reads a stale value.
//
// The demand set is not always the cheaper path. fieldAdvance sums every
// receiver when there is no index or no decode cutoff, and when the
// transmitters' query boxes would cover at least as many grid cells as
// the grid holds.

// idleDelta is δ of the certified-idle radius: the relative margin that
// absorbs the rounding argued in the file comment.
const idleDelta = 1e-6

// FieldStats counts the interference engine's per-slot outcomes, for run
// diagnostics and the "sim/field/*" metrics. All zeros when the run never
// builds a field.
type FieldStats struct {
	// RebuildSlots counts slots that summed every receiver.
	RebuildSlots int64
	// SubsetSlots counts slots that summed only the demand set.
	SubsetSlots int64
	// SummedReceivers counts receiver sums over all slots of both kinds.
	SummedReceivers int64
}

// FieldStats returns the cumulative interference-engine work counters.
func (s *Sim) FieldStats() FieldStats { return s.fstat }

// fieldAdvance computes this slot's field over its demand set, or over every
// receiver when the demand queries would cost more than that. Called once
// per slot, after Phase 1 filled txBuf, chanTx, scaleBuf and chanBuf.
func (s *Sim) fieldAdvance() {
	for _, v := range s.demandList {
		s.demand[v] = false
	}
	s.demandList = s.demandList[:0]
	s.fieldAll = !s.demandRadii()
	if s.fieldAll {
		s.fieldSumAll()
		return
	}
	for i, u := range s.txBuf {
		uc := s.chanBuf[u]
		s.markDemand(u)
		it := s.grid.IterWithin(s.euclid.Point(u), s.radBuf[i]*indexSlack)
		for {
			v, ok := it.Next()
			if !ok {
				break
			}
			if s.chanBuf[v] == uc {
				s.markDemand(v)
			}
		}
	}
	for _, v := range s.demandList {
		s.totalPower[v] = s.fieldSum(v)
	}
	s.fstat.SubsetSlots++
	s.fstat.SummedReceivers += int64(len(s.demandList))
}

// demandRadii fills radBuf with each transmitter's demand radius — its
// decode cutoff, widened to its certified-idle radius when CD is granted —
// and reports whether querying those discs beats summing every receiver.
func (s *Sim) demandRadii() bool {
	if !s.indexedRecv() {
		return false
	}
	cd := s.cfg.Primitives.Has(CD)
	s.radBuf = s.radBuf[:0]
	cells := 0
	for _, u := range s.txBuf {
		r := s.decodeCutoff(u)
		if cd {
			r = math.Max(r, s.idleRadius(u))
		}
		box, total := s.grid.BoxCells(s.euclid.Point(u), r*indexSlack)
		if cells += box; cells >= total {
			return false
		}
		s.radBuf = append(s.radBuf, r)
	}
	return true
}

// idleRadius is transmitter u's certified-idle radius ρ_u: a listener on
// u's channel farther than ρ_u from every transmitter there senses Idle.
func (s *Sim) idleRadius(u int) float64 {
	k := float64(len(s.chanTx[s.chanBuf[u]]))
	return math.Pow(s.scaleBuf[u]*s.cfg.P*k*(1+idleDelta)/s.th.BusyRSS, 1/s.cfg.Zeta)
}

func (s *Sim) markDemand(v int) {
	if !s.demand[v] {
		s.demand[v] = true
		s.demandList = append(s.demandList, v)
	}
}

// fieldSumAll runs the canonical sum at every receiver, transmitter-major
// over power rows (pathloss.Field.Row): each transmitter's row streams in
// order into one accumulation loop. A single-channel run skips the channel
// test, which every receiver passes there (chanBuf is all zero).
func (s *Sim) fieldSumAll() {
	tp := s.totalPower
	for v := range tp {
		tp[v] = 0
	}
	ch := s.chanBuf[:len(tp)]
	multi := s.cfg.Channels > 1
	for _, w := range s.txBuf {
		row := s.field.Row(w, s.rowBuf)[:len(tp)]
		sc := s.scaleBuf[w]
		if multi {
			wc := ch[w]
			for v, p := range row {
				if ch[v] == wc {
					tp[v] += p * sc
				}
			}
			continue
		}
		for v, p := range row {
			tp[v] += p * sc
		}
	}
	s.fstat.RebuildSlots++
	s.fstat.SummedReceivers += int64(s.n)
}

// fieldSum is receiver v's canonical sum.
func (s *Sim) fieldSum(v int) float64 {
	total := 0.0
	for _, w := range s.chanTx[s.chanBuf[v]] {
		total += s.field.Power(w, v) * s.scaleBuf[w]
	}
	return total
}

// demanded reports whether fieldAdvance summed receiver v this slot.
func (s *Sim) demanded(v int) bool { return s.fieldAll || s.demand[v] }

// fieldAt returns receiver v's interference: the engine's sum when v is in
// the slot's demand set, the canonical sum computed now otherwise.
func (s *Sim) fieldAt(v int) float64 {
	if s.demanded(v) {
		return s.totalPower[v]
	}
	return s.fieldSum(v)
}

// decodeCutoff returns the distance beyond which u's transmission this slot
// cannot decode: the model's MaxDecodeRange, widened by scale^{1/ζ} for a
// boosted transmission and narrowed to scale^{1/ζ}·R for an attenuated one.
func (s *Sim) decodeCutoff(u int) float64 {
	sc := s.scaleBuf[u]
	cutoff := s.maxDecode
	if sc > 1 {
		cutoff *= math.Pow(sc, 1/s.cfg.Zeta)
	} else if sc < 1 {
		if r := math.Pow(sc, 1/s.cfg.Zeta) * s.cfg.Model.R(); r < cutoff {
			cutoff = r
		}
	}
	return cutoff
}
