package sim

import "math"

// slotView implements model.View over one channel of the current slot: tx
// lists the channel's transmitters in ascending id order.
type slotView struct {
	s  *Sim
	tx []int
}

func (vw *slotView) Transmitters() []int { return vw.tx }
func (vw *slotView) Power(w, v int) float64 {
	return vw.s.field.Power(w, v) * vw.s.scaleBuf[w]
}
func (vw *slotView) Dist(u, v int) float64    { return vw.s.cfg.Space.Dist(u, v) }
func (vw *slotView) TotalPower(v int) float64 { return vw.s.fieldAt(v) }
func (vw *slotView) Tick() int                { return vw.s.tick }

// TransmittersWithin counts the channel's transmitters w ∉ {v, excluding}
// with d(w, v) ≤ r. One pass over tx is the whole cost: the graph-based
// models ask it once per decode candidate, and a slot holds few
// transmitters per channel.
func (vw *slotView) TransmittersWithin(v int, r float64, excluding int) int {
	n := 0
	for _, w := range vw.tx {
		if w != v && w != excluding && vw.s.cfg.Space.Dist(w, v) <= r {
			n++
		}
	}
	return n
}

// Step advances the simulation by one tick (one slot). With Config.Cancel
// set, a step that observes cancellation panics with a Cancelled sentinel
// before doing any slot work (see Cancelled).
func (s *Sim) Step() {
	if s.cfg.Cancel != nil && s.cfg.Cancel() {
		panic(Cancelled{Tick: s.tick})
	}
	slot := s.tick % s.slots
	inj := s.cfg.Injector
	if inj != nil {
		// Phase 0: fault injection opens the tick (crash/restart schedules
		// and stall bookkeeping run before any action is collected).
		inj.BeginTick(s, s.tick)
	}

	// Phase 1: collect actions from acting nodes. A seized node (stuck
	// transmitter, stalled clock) contributes the injector's forced action
	// instead of consulting its protocol.
	nChan := s.cfg.Channels
	s.actedBuf = s.actedBuf[:0]
	s.txBuf = s.txBuf[:0]
	for c := range s.chanTx {
		s.chanTx[c] = s.chanTx[c][:0]
	}
	for v := 0; v < s.n; v++ {
		s.scaleBuf[v] = 1
		s.chanBuf[v] = 0
		s.seizedBuf[v] = false
		s.isTxBuf[v] = false
		if !s.alive[v] {
			continue
		}
		var act Action
		if inj != nil {
			act, s.seizedBuf[v] = inj.Seized(v, s.tick)
		}
		if !s.seizedBuf[v] {
			if !s.actsThisTick(v) {
				continue
			}
			s.actedBuf = append(s.actedBuf, v)
			act = s.protos[v].Act(&s.nodes[v], slot)
		}
		if nChan > 1 && act.Channel > 0 {
			if act.Channel >= nChan {
				act.Channel = nChan - 1
			}
			s.chanBuf[v] = int8(act.Channel)
		}
		if act.Transmit {
			act.Msg.Src = v
			s.msgBuf[v] = act.Msg
			s.isTxBuf[v] = true
			s.txBuf = append(s.txBuf, v)
			s.chanTx[s.chanBuf[v]] = append(s.chanTx[s.chanBuf[v]], v)
			s.txCount[v]++
			s.totalTx++
			if act.PowerScale > 0 && act.PowerScale != 1 {
				s.scaleBuf[v] = act.PowerScale
			}
		}
	}

	// Phase 2: interference field (power scales applied). totalPower[v] is
	// the interference on v's tuned channel: only same-channel
	// transmissions reach a tuned radio. The engine (field.go) sums the
	// receivers a later phase reads and certifies the rest idle.
	s.fieldAdvance()
	for c := range s.views {
		s.views[c].tx = s.chanTx[c]
	}

	s.receive() // Phase 3

	// Phase 4: delivery tally per transmitter. Its ground-truth flags, at
	// the measurement radius R_B(Eps) and the ACK radius R_B(SenseEps), come
	// from the indexed walk, or from scanDelivery on the scan driver.
	for _, u := range s.txBuf {
		if !s.indexedRecv() {
			s.scanDelivery(u)
		}
		if s.massBuf[u] {
			s.massCount[u]++
			s.totalMass++
			if s.firstMass[u] < 0 {
				s.firstMass[u] = int32(s.tick)
			}
			// An atomic mass delivery covers the whole neighbourhood by
			// itself — including the vacuous case of a node with no alive
			// neighbours, which produces no receipt records.
			if s.firstCover != nil && s.firstCover[u] < 0 {
				s.firstCover[u] = int32(s.tick)
			}
		}
	}

	// Phase 5: observations for acting nodes; a passive decode reaches no
	// protocol. Sensing outcomes are tallied (post-corruption, i.e. what the
	// protocols actually observed) only when a trace observer or a metrics
	// registry is attached, so the uninstrumented path pays one branch per
	// observation. The Observation is a reused scratch value: it and its
	// slices are only valid for the duration of the Observe call.
	prim := s.cfg.Primitives
	tally := s.met != nil || s.cfg.Observer != nil
	var cdBusy, cdIdle, acks, ackMiss, ntds int
	for _, v := range s.actedBuf {
		if !s.alive[v] {
			continue // killed mid-tick by nothing today, but stay safe
		}
		isTx := s.isTxBuf[v]
		obs := &s.obsBuf
		*obs = Observation{
			Tick:        s.tick,
			Slot:        slot,
			Transmitted: isTx,
		}
		if s.heard[v] {
			// Capped, so a protocol that appends cannot overwrite v+1's frame.
			obs.Received = s.recvBuf[v : v+1 : v+1]
		}
		if prim.Has(CD) {
			// A receiver outside the demand set is certified idle.
			obs.Busy = s.demanded(v) && s.th.Busy(s.totalPower[v])
		}
		if isTx {
			switch {
			case prim.Has(FreeAck):
				obs.Acked = s.massAckBuf[v]
			case prim.Has(ACK):
				obs.Acked = s.ackOutcome(v)
			}
		}
		if prim.Has(NTD) && s.heard[v] {
			obs.NTD = s.th.Near(s.recvBuf[v].RSS)
		}
		if inj != nil {
			inj.Observation(v, s.tick, obs)
		}
		if tally {
			if prim.Has(CD) {
				if obs.Busy {
					cdBusy++
				} else {
					cdIdle++
				}
			}
			if isTx && prim.Has(ACK|FreeAck) {
				if obs.Acked {
					acks++
				} else {
					ackMiss++
				}
			}
			if obs.NTD {
				ntds++
			}
		}
		s.protos[v].Observe(&s.nodes[v], slot, obs)
	}

	if tally {
		decodes, mass := len(s.decoders), 0
		for _, u := range s.txBuf {
			if s.massBuf[u] {
				mass++
			}
		}
		if s.cfg.Observer != nil {
			s.massDelBuf = s.massDelBuf[:0]
			seized := 0
			for _, u := range s.txBuf {
				if s.massBuf[u] {
					s.massDelBuf = append(s.massDelBuf, u)
				}
				if len(s.seizedBuf) > 0 && s.seizedBuf[u] {
					seized++
				}
			}
			s.decodersBuf = s.decodersBuf[:0]
			for v := 0; v < s.n; v++ {
				if s.heard[v] {
					s.decodersBuf = append(s.decodersBuf, v)
				}
			}
			ev := SlotEvent{
				Tick: s.tick, Slot: slot, Transmitters: s.txBuf,
				Decodes: decodes, MassDeliverers: s.massDelBuf,
				CDBusy: cdBusy, CDIdle: cdIdle, Acks: acks, NTDs: ntds,
				Decoders: s.decodersBuf, Seized: seized,
			}
			s.cfg.Observer(ev)
		}
		if m := s.met; m != nil {
			m.slots.Inc()
			m.tx.Add(int64(len(s.txBuf)))
			m.decodes.Add(int64(decodes))
			m.mass.Add(int64(mass))
			m.cdBusy.Add(int64(cdBusy))
			m.cdIdle.Add(int64(cdIdle))
			m.ack.Add(int64(acks))
			m.ackMiss.Add(int64(ackMiss))
			m.ntd.Add(int64(ntds))
			m.txPerSlot.Observe(float64(len(s.txBuf)))
			m.contention.Observe(s.probMass())
			s.flushIndexStats()
			s.flushFieldStats()
		}
	}

	s.tick++
}

// receive is Phase 3: receptions and delivery flags. Two drivers enumerate
// the same candidate pairs in ascending transmitter order and apply recv,
// and neither asks a listener again once it holds a frame, so each listener
// keeps the lowest-id transmitter it decodes whose frame the injector keeps
// (under model.Model's one-frame contract, its only decodable one):
//
//   - indexed (indexedWalk): each transmitter pushes to the listeners the
//     spatial index finds inside its decodeCutoff, beyond which Decodes is
//     guaranteed false, so skipping those pairs changes nothing, not even
//     injector calls;
//   - scan: every alive non-transmitting listener checks its channel's
//     transmitters, when there is no index or no cutoff (see indexedRecv).
//
// First-decode and coverage bookkeeping then walk the slot's decoders. They
// only set marks to the slot's tick, so decode order does not show.
func (s *Sim) receive() {
	for _, v := range s.decoders {
		s.heard[v] = false
	}
	s.decoders = s.decoders[:0]
	if s.indexedRecv() {
		if s.sinr != nil && len(s.txBuf) > 0 {
			s.floorReaches()
		}
		for _, u := range s.txBuf {
			s.indexedWalk(u)
		}
	} else {
		for v := 0; v < s.n; v++ {
			if !s.alive[v] || s.isTxBuf[v] {
				continue // half-duplex
			}
			vw := &s.views[s.chanBuf[v]]
			for _, u := range vw.tx {
				if s.recv(vw, u, v) {
					break
				}
			}
		}
	}
	for _, v := range s.decoders {
		if s.firstDecode[v] < 0 {
			s.firstDecode[v] = int32(s.tick)
		}
		s.recordCoverage(s.recvBuf[v].From, v)
	}
}

// recv applies the reception rule to listener v of same-channel transmitter
// u: a power-scaled transmission is decodable only within the reduced range
// scale^{1/ζ}·R (exact for SINR, and the defining cutoff for models without
// a power notion); otherwise the model decides, and a frame that would
// decode may still be lost to the injector. The loss is ground truth: the
// frame never reaches v's protocol, so u's mass delivery and coverage miss v
// this slot too. It reports whether v decoded u, which becomes v's frame.
func (s *Sim) recv(vw *slotView, u, v int) bool {
	sc := s.scaleBuf[u]
	if sc < 1 && s.cfg.Space.Dist(u, v) > math.Pow(sc, 1/s.cfg.Zeta)*s.cfg.Model.R() {
		return false
	}
	if !s.cfg.Model.Decodes(vw, u, v) {
		return false
	}
	if inj := s.cfg.Injector; inj != nil && inj.DropRecv(u, v, s.tick) {
		return false
	}
	s.recvBuf[v] = Recv{From: u, Msg: s.msgBuf[u], RSS: s.field.Power(u, v) * sc}
	s.heard[v] = true
	s.decoders = append(s.decoders, v)
	return true
}

// indexedWalk is the indexed driver's Phase 3 for transmitter u, over the
// nodes inside decodeRadius(u). A listener that already holds a frame goes
// straight to the delivery check, and so does one whose own sum certifies
// that it cannot decode u: under SINR, u's power there is at most the
// listener's DecodeFloor, so Decodes would reject the pair. The walk sets
// u's delivery flags as it goes: each alive neighbour that did not decode u
// may clear them (missed). A walk narrower than rNeigh that leaves a flag
// set hands the rest of the neighbourhood to deliveryWalk.
func (s *Sim) indexedWalk(u int) {
	r := s.decodeRadius(u)
	n2 := s.rNeigh * indexSlack * (s.rNeigh * indexSlack)
	uc := s.chanBuf[u]
	vw := &s.views[uc]
	sc := s.scaleBuf[u]
	s.massBuf[u], s.massAckBuf[u] = true, true
	open := true // a delivery flag of u is still set
	s.idx.TxQueries++
	it := s.grid.IterWithin(s.euclid.Point(u), r*indexSlack)
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		s.idx.Candidates++
		if v == u || !s.alive[v] {
			continue
		}
		if !s.isTxBuf[v] && s.chanBuf[v] == uc && !s.heard[v] {
			if s.sinr != nil && s.field.Power(u, v)*sc <= s.sinr.DecodeFloor(s.totalPower[v]) {
				s.fstat.CertifiedNoDecode++
			} else if s.recv(vw, u, v) {
				continue
			}
		}
		if open && it.Dist2() <= n2 {
			open = s.missed(u, v)
		}
	}
	if open && r < s.rNeigh {
		s.deliveryWalk(u)
	}
}

// deliveryWalk finishes u's delivery flags after a reception walk narrower
// than rNeigh, by scanDelivery's rule over the grid: an alive neighbour
// whose frame is not u's clears them. It stops once both are clear.
func (s *Sim) deliveryWalk(u int) {
	it := s.grid.IterWithin(s.euclid.Point(u), s.rNeigh*indexSlack)
	for {
		v, ok := it.Next()
		if !ok {
			return
		}
		if v != u && s.alive[v] && !s.heardFrom(v, u) && !s.missed(u, v) {
			return
		}
	}
}

// missed clears u's delivery flags for an alive neighbour v ≠ u that did not
// decode u (mass within rb, ACK within rbAck); it reports whether one is set.
func (s *Sim) missed(u, v int) bool {
	d := s.cfg.Space.Dist(u, v)
	if d <= s.rb {
		s.massBuf[u] = false
	}
	if d <= s.rbAck {
		s.massAckBuf[u] = false
	}
	return s.massBuf[u] || s.massAckBuf[u]
}

// scanDelivery sets u's delivery flags on the scan driver, in one walk of
// u's neighbourhood at rNeigh for neighbours whose frame is not u's.
func (s *Sim) scanDelivery(u int) {
	s.massBuf[u], s.massAckBuf[u] = true, true
	s.forEachNeighbor(u, s.rNeigh, func(v int) {
		if !s.heardFrom(v, u) {
			s.missed(u, v)
		}
	})
}

// heardFrom reports whether listener v holds u's frame this slot.
func (s *Sim) heardFrom(v, u int) bool { return s.heard[v] && s.recvBuf[v].From == u }

// ackOutcome applies Def. ACK for transmitter u: sensed interference within
// the threshold and full delivery yields 1; a missed neighbour yields 0;
// the remaining case is adversarial.
func (s *Sim) ackOutcome(u int) bool {
	if !s.massAckBuf[u] {
		return false
	}
	if s.th.AckClear(s.totalPower[u]) {
		return true
	}
	return s.adv.AckAmbiguous(u, s.tick)
}

func (s *Sim) actsThisTick(v int) bool {
	if !s.cfg.Async {
		return true
	}
	return (s.tick-s.phase[v])%s.period[v] == 0 && s.tick >= s.phase[v]
}

// Run advances the simulation by ticks ticks.
func (s *Sim) Run(ticks int) {
	for i := 0; i < ticks; i++ {
		s.Step()
	}
}

// RunUntil steps the simulation until pred returns true or maxTicks elapse,
// returning the number of ticks executed and whether pred was satisfied.
// pred is evaluated after every tick.
func (s *Sim) RunUntil(pred func(*Sim) bool, maxTicks int) (int, bool) {
	for i := 0; i < maxTicks; i++ {
		s.Step()
		if pred(s) {
			return i + 1, true
		}
	}
	return maxTicks, false
}
