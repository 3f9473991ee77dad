package sim

import "math"

// slotView implements model.View over the current slot with the engine's
// interference sums and lazily resolved within-radius transmitter counts.
//
// Two count paths exist. The scan path builds a full per-node count vector
// per queried radius in one O(|tx|·n) pass — the only option for opaque
// (non-Euclidean) spaces. The grid path answers each (node, radius) query
// from the simulation's spatial index in O(local density), memoized per node
// for the slot; Step enables it (useGrid) whenever the sim has a live grid.
// Hand-built views (tests) leave useGrid false and exercise the scan path.
// Both paths apply the exact Space.Dist comparison, so their counts are
// identical.
type slotView struct {
	s  *Sim
	tx []int
	// scale holds per-node transmission power scales (1 for unscaled).
	scale []float64
	// ch is the channel this view covers; transmitter-membership tests
	// filter by it.
	ch int8
	// useGrid selects the spatial-index count path.
	useGrid bool
	// epoch is tick+1 while the view is live inside Step, 0 in hand-built
	// views; it validates the per-node grid-count memo across slots.
	epoch int64

	// cntRadii registers the radii queried this slot; models use at most
	// two distinct radii, so a tiny linear store beats a map.
	cntRadii [2]float64
	cntN     int
	// vec holds the scan path's full count vectors, rebuilt in place.
	vec [2][]int16
	// cnt/cntTick memoize grid-path per-node counts; cntTick[i][v] == epoch
	// marks cnt[i][v] valid for the current slot.
	cnt     [2][]int32
	cntTick [2][]int64
}

// reset re-arms a persistent view for the current slot.
func (vw *slotView) reset(s *Sim, tx []int, ch int8, epoch int64) {
	vw.s = s
	vw.tx = tx
	vw.scale = s.scaleBuf
	vw.ch = ch
	vw.useGrid = s.grid != nil
	vw.epoch = epoch
	vw.cntN = 0
}

func (vw *slotView) Transmitters() []int { return vw.tx }
func (vw *slotView) Power(w, v int) float64 {
	p := vw.s.field.Power(w, v)
	if vw.scale != nil {
		p *= vw.scale[w]
	}
	return p
}
func (vw *slotView) Dist(u, v int) float64    { return vw.s.cfg.Space.Dist(u, v) }
func (vw *slotView) TotalPower(v int) float64 { return vw.s.fieldAt(v) }

func (vw *slotView) TransmittersWithin(v int, r float64, excluding int) int {
	for i := 0; i < vw.cntN; i++ {
		if vw.cntRadii[i] == r {
			return vw.adjust(vw.countAt(i, v, r), v, r, excluding)
		}
	}
	if vw.cntN < len(vw.cntRadii) {
		i := vw.cntN
		vw.cntRadii[i] = r
		vw.cntN++
		if !vw.useGrid {
			vw.buildVec(i, r)
		}
		return vw.adjust(vw.countAt(i, v, r), v, r, excluding)
	}
	// Fallback: direct count. No shipped model queries a third radius, so
	// hitting this is flagged (see ViewRadiusFallbacks).
	vw.s.noteRadiusFallback()
	n := 0
	for _, w := range vw.tx {
		if w == v || w == excluding {
			continue
		}
		if vw.s.cfg.Space.Dist(w, v) <= r {
			n++
		}
	}
	return n
}

// countAt resolves the count of transmitters within registered radius slot i
// of node v (self excluded).
func (vw *slotView) countAt(i, v int, r float64) int {
	if !vw.useGrid {
		return int(vw.vec[i][v])
	}
	if vw.cnt[i] == nil {
		vw.cnt[i] = make([]int32, vw.s.n)
		vw.cntTick[i] = make([]int64, vw.s.n)
	}
	if vw.cntTick[i][v] == vw.epoch {
		return int(vw.cnt[i][v])
	}
	c := vw.gridCount(v, r)
	vw.cnt[i][v] = int32(c)
	vw.cntTick[i][v] = vw.epoch
	return c
}

// gridCount counts this channel's transmitters within r of v from the
// spatial index: the index enumerates a superset (radius inflated by
// indexSlack), the exact Dist comparison — the same one the scan path
// evaluates — decides membership.
func (vw *slotView) gridCount(v int, r float64) int {
	s := vw.s
	s.idx.CountQueries++
	n := 0
	it := s.grid.IterWithin(s.euclid.Point(v), r*indexSlack)
	for {
		w, ok := it.Next()
		if !ok {
			return n
		}
		if w != v && s.isTxBuf[w] && s.chanBuf[w] == vw.ch && s.cfg.Space.Dist(w, v) <= r {
			n++
		}
	}
}

// buildVec rebuilds the scan path's count vector for radius slot i in place.
func (vw *slotView) buildVec(i int, r float64) {
	n := vw.s.n
	if cap(vw.vec[i]) < n {
		vw.vec[i] = make([]int16, n)
	} else {
		vw.vec[i] = vw.vec[i][:n]
		for j := range vw.vec[i] {
			vw.vec[i][j] = 0
		}
	}
	counts := vw.vec[i]
	for _, w := range vw.tx {
		for v2 := 0; v2 < n; v2++ {
			if v2 != w && vw.s.cfg.Space.Dist(w, v2) <= r {
				counts[v2]++
			}
		}
	}
}

func (vw *slotView) adjust(count, v int, r float64, excluding int) int {
	if excluding >= 0 && excluding != v && vw.s.cfg.Space.Dist(excluding, v) <= r {
		// Only subtract if the excluded node is actually transmitting.
		if vw.isTransmitter(excluding) {
			count--
		}
	}
	return count
}

// isTransmitter reports whether w transmits on this view's channel. Inside
// Step the per-slot flags answer in O(1); hand-built views scan their tx.
func (vw *slotView) isTransmitter(w int) bool {
	if vw.epoch != 0 {
		return vw.s.isTxBuf[w] && vw.s.chanBuf[w] == vw.ch
	}
	for _, x := range vw.tx {
		if x == w {
			return true
		}
	}
	return false
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
	if s.scaleBuf == nil {
		s.scaleBuf = make([]float64, s.n)
		s.chanBuf = make([]int8, s.n)
		s.chanTx = make([][]int, nChan)
		s.seizedBuf = make([]bool, s.n)
		s.msgBuf = make([]Message, s.n)
		s.isTxBuf = make([]bool, s.n)
	}
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
	// transmissions reach a tuned radio. Skipped entirely for
	// field-oblivious models running without power-sensing primitives —
	// nothing in the slot reads the field then. Otherwise the engine
	// (field.go) sums the receivers a later phase reads and certifies the
	// rest idle.
	if s.needPower {
		s.fieldAdvance()
	}
	// One persistent view per channel; with a single channel this is the
	// old single view.
	if len(s.views) != nChan {
		s.views = make([]slotView, nChan)
	}
	epoch := int64(s.tick) + 1
	for c := 0; c < nChan; c++ {
		tx := s.txBuf
		if nChan > 1 {
			tx = s.chanTx[c]
		}
		s.views[c].reset(s, tx, int8(c), epoch)
	}

	// Phase 3: receptions. Two equivalent drivers enumerate the same
	// candidate pairs and apply the same reception rule (recv):
	//
	// Indexed (transmitter-outward): each transmitter pushes to the
	// listeners the spatial index finds inside its decodeCutoff. Beyond the
	// cutoff Decodes is guaranteed false, so skipping those pairs changes
	// nothing — not even injector calls, which only happen for pairs that
	// decode. Iterating transmitters in ascending id keeps every recvBuf[v]
	// in the same ascending-transmitter order the listener scan produces.
	//
	// Scan (listener-oriented): every alive non-transmitting listener
	// checks every same-channel transmitter. Used only when there is no
	// index or no declared cutoff (see indexedRecv).
	for v := 0; v < s.n; v++ {
		s.recvBuf[v] = s.recvBuf[v][:0]
	}
	if s.indexedRecv() {
		for _, u := range s.txBuf {
			cutoff := s.decodeCutoff(u)
			uc := s.chanBuf[u]
			vw := &s.views[uc]
			s.idx.TxQueries++
			it := s.grid.IterWithin(s.euclid.Point(u), cutoff*indexSlack)
			for {
				v, ok := it.Next()
				if !ok {
					break
				}
				s.idx.Candidates++
				if v == u || s.isTxBuf[v] || s.chanBuf[v] != uc || !s.alive[v] {
					continue
				}
				s.recv(vw, u, v)
			}
		}
	} else {
		for v := 0; v < s.n; v++ {
			if !s.alive[v] || s.isTxBuf[v] {
				continue // half-duplex
			}
			vw := &s.views[s.chanBuf[v]]
			for _, u := range vw.tx {
				s.recv(vw, u, v)
			}
		}
	}
	// First-decode and coverage bookkeeping, in ascending listener order and
	// ascending transmitter order within each listener — the same sequence
	// for both reception drivers.
	for v := 0; v < s.n; v++ {
		if len(s.recvBuf[v]) == 0 {
			continue
		}
		if s.firstDecode[v] < 0 {
			s.firstDecode[v] = int32(s.tick)
		}
		for _, rc := range s.recvBuf[v] {
			s.recordCoverage(rc.From, v)
		}
	}

	// Phase 4: ground-truth delivery per transmitter, at both the
	// measurement radius R_B(Eps) and the ACK radius R_B(SenseEps).
	for _, u := range s.txBuf {
		mass, massAck := true, true
		s.forEachNeighbor(u, s.rbAck, func(v int) {
			got := false
			for _, rc := range s.recvBuf[v] {
				if rc.From == u {
					got = true
					break
				}
			}
			if !got {
				massAck = false
				if s.cfg.Space.Dist(u, v) <= s.rb {
					mass = false
				}
			}
		})
		// If rb > rbAck (never with SenseEps <= Eps, but be safe), fall back
		// to an explicit check at rb.
		if s.rb > s.rbAck {
			mass = true
			s.forEachNeighbor(u, s.rb, func(v int) {
				ok := false
				for _, rc := range s.recvBuf[v] {
					if rc.From == u {
						ok = true
						break
					}
				}
				if !ok {
					mass = false
				}
			})
		}
		s.massBuf[u] = mass
		s.massAckBuf[u] = massAck
		if mass {
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

	// Phase 5: observations for acting nodes, passive receipts for others.
	// Sensing outcomes are tallied (post-corruption, i.e. what the
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
		if !isTx {
			obs.Received = s.recvBuf[v]
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
		if prim.Has(NTD) && !isTx {
			for _, rc := range obs.Received {
				if s.th.Near(rc.RSS) {
					obs.NTD = true
					break
				}
			}
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
	if s.cfg.Async {
		for v := 0; v < s.n; v++ {
			if !s.alive[v] || len(s.recvBuf[v]) == 0 || s.actedThisTick(v) || s.seizedBuf[v] {
				continue
			}
			if h, ok := s.protos[v].(Hearer); ok {
				h.Hear(&s.nodes[v], s.recvBuf[v])
			}
		}
	}

	if tally {
		decodes, mass := 0, 0
		for v := 0; v < s.n; v++ {
			decodes += len(s.recvBuf[v])
		}
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
				if len(s.recvBuf[v]) > 0 {
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

// recv applies the reception rule to listener v of same-channel transmitter
// u: a power-scaled transmission is decodable only within the reduced range
// scale^{1/ζ}·R (exact for SINR, and the defining cutoff for models without
// a power notion); otherwise the model decides, and a frame that would
// decode may still be lost to the injector. The loss is ground truth: the
// frame never reaches v's protocol, so u's mass delivery and coverage miss v
// this slot too.
func (s *Sim) recv(vw *slotView, u, v int) {
	sc := s.scaleBuf[u]
	if sc < 1 && s.cfg.Space.Dist(u, v) > math.Pow(sc, 1/s.cfg.Zeta)*s.cfg.Model.R() {
		return
	}
	if !s.cfg.Model.Decodes(vw, u, v) {
		return
	}
	if inj := s.cfg.Injector; inj != nil && inj.DropRecv(u, v, s.tick) {
		return
	}
	s.recvBuf[v] = append(s.recvBuf[v], Recv{
		From: u,
		Msg:  s.msgBuf[u],
		RSS:  s.field.Power(u, v) * sc,
	})
}

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

func (s *Sim) actedThisTick(v int) bool { return s.actsThisTick(v) }

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
