// Query is the predicate-pushdown engine over recorded traces: filter a
// trace by node set, tick window and event-kind predicates, decoding — and
// for seekable indexed binary traces, even *reading* — only the frames that
// can possibly match. The planner is a mode of the binary Reader, not a
// second parser: Query hands the Reader its predicate's index test
// (Predicate.candidate), and the Reader seeks past every data frame whose
// index entry (index.go) rules the predicate out. Everything it does decode
// is CRC-checked and re-filtered event by event, so a wrong or hostile index
// can only cost speed, never correctness. JSONL traces, non-seekable streams
// and pre-index binary files answer the same queries by a full scan with
// identical results.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"udwn/internal/metrics"
	"udwn/internal/sim"
)

// Role restricts which id list of an event a node predicate matches against.
type Role int

const (
	// RoleAny matches a node appearing as transmitter, mass deliverer or
	// decoder; with no node set it places no constraint at all.
	RoleAny Role = iota
	// RoleTx matches transmitters (an empty node set means "any event with
	// at least one transmitter").
	RoleTx
	// RoleDecoder matches decoder ids.
	RoleDecoder
	// RoleMass matches mass deliverers.
	RoleMass
)

func (ro Role) String() string {
	switch ro {
	case RoleTx:
		return "tx"
	case RoleDecoder:
		return "decoder"
	case RoleMass:
		return "mass"
	}
	return "any"
}

// Predicate selects slot events. The zero value matches every event. All
// set constraints must hold (AND); the node set itself is an OR — any listed
// node appearing in the role's id lists matches.
type Predicate struct {
	// Nodes is the node id set; empty means any node.
	Nodes []int
	// Role restricts which id lists Nodes (or, with no nodes, "some node")
	// must appear in.
	Role Role
	// MinTick is the inclusive lower tick bound.
	MinTick int
	// MaxTick is the exclusive upper tick bound; 0 means unbounded. (Tick 0
	// alone is selectable as MinTick=0, MaxTick=1.)
	MaxTick int
	// Seized requires the event to have injector-seized transmitters.
	Seized bool
	// Decodes requires at least one successful decode in the event.
	Decodes bool
	// Mass requires at least one mass delivery in the event.
	Mass bool
}

// Match reports whether the event satisfies the predicate.
func (p *Predicate) Match(ev sim.SlotEvent) bool {
	if ev.Tick < p.MinTick {
		return false
	}
	if p.MaxTick > 0 && ev.Tick >= p.MaxTick {
		return false
	}
	if p.Seized && ev.Seized == 0 {
		return false
	}
	if p.Decodes && ev.Decodes == 0 {
		return false
	}
	if p.Mass && len(ev.MassDeliverers) == 0 {
		return false
	}
	switch p.Role {
	case RoleAny:
		if len(p.Nodes) == 0 {
			return true
		}
		return p.anyNode(ev.Transmitters) || p.anyNode(ev.MassDeliverers) || p.anyNode(ev.Decoders)
	case RoleTx:
		return p.roleMatch(ev.Transmitters)
	case RoleDecoder:
		return p.roleMatch(ev.Decoders)
	case RoleMass:
		return p.roleMatch(ev.MassDeliverers)
	}
	return false
}

func (p *Predicate) roleMatch(ids []int) bool {
	if len(p.Nodes) == 0 {
		return len(ids) > 0
	}
	return p.anyNode(ids)
}

func (p *Predicate) anyNode(ids []int) bool {
	for _, id := range ids {
		for _, want := range p.Nodes {
			if id == want {
				return true
			}
		}
	}
	return false
}

// candidate reports whether a data frame summarised by e can hold a matching
// event. Conservative by construction: a false here is a proof of absence, a
// true just means "decode and check".
func (p *Predicate) candidate(e *indexEntry) bool {
	if !e.overlapsTicks(p.MinTick, p.MaxTick) {
		return false
	}
	if p.Seized && e.flags&flagSeized == 0 {
		return false
	}
	if p.Decodes && e.flags&flagDecodes == 0 {
		return false
	}
	if (p.Mass || p.Role == RoleMass) && e.flags&flagMass == 0 {
		return false
	}
	if len(p.Nodes) > 0 {
		// The summary covers all three id lists, so for role-restricted
		// queries it is still a sound (if looser) over-approximation.
		any := false
		for _, id := range p.Nodes {
			if e.mayContainNode(id) {
				any = true
				break
			}
		}
		if !any {
			return false
		}
	}
	return true
}

// String renders the predicate in the compact query grammar ParseQuery
// accepts; the zero predicate renders as "".
func (p *Predicate) String() string {
	var parts []string
	if len(p.Nodes) > 0 {
		ids := make([]string, len(p.Nodes))
		for i, id := range p.Nodes {
			ids[i] = strconv.Itoa(id)
		}
		parts = append(parts, "node="+strings.Join(ids, ","))
	}
	if p.Role != RoleAny {
		parts = append(parts, "role="+p.Role.String())
	}
	switch {
	case p.MinTick > 0 && p.MaxTick > 0:
		parts = append(parts, fmt.Sprintf("tick=%d-%d", p.MinTick, p.MaxTick-1))
	case p.MinTick > 0:
		parts = append(parts, fmt.Sprintf("tick=%d-", p.MinTick))
	case p.MaxTick > 0:
		parts = append(parts, fmt.Sprintf("tick=-%d", p.MaxTick-1))
	}
	if p.Seized {
		parts = append(parts, "seized")
	}
	if p.Decodes {
		parts = append(parts, "decodes")
	}
	if p.Mass {
		parts = append(parts, "mass")
	}
	return strings.Join(parts, "&")
}

// ParseQuery parses the compact query grammar shared by `traceinfo -query`
// and the daemon's trace endpoint:
//
//	node=4711,42 & role=tx|decoder|mass|any & tick=2000-2400 & seized & decodes & mass
//
// Terms are joined with '&' (whitespace around terms is ignored) and AND
// together. Tick windows are inclusive on both ends and accept open forms:
// "tick=2000-" (from 2000), "tick=-2400" (through 2400), "tick=2000" (that
// tick only). An empty string parses to the match-everything predicate.
func ParseQuery(s string) (Predicate, error) {
	var p Predicate
	for _, term := range strings.Split(s, "&") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		key, val, hasVal := strings.Cut(term, "=")
		switch key {
		case "node", "nodes":
			if !hasVal || val == "" {
				return p, fmt.Errorf("trace: query term %q: want node=<id>[,<id>...]", term)
			}
			for _, f := range strings.Split(val, ",") {
				id, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil || id < 0 {
					return p, fmt.Errorf("trace: query term %q: bad node id %q", term, f)
				}
				p.Nodes = append(p.Nodes, id)
			}
		case "role":
			switch val {
			case "any":
				p.Role = RoleAny
			case "tx":
				p.Role = RoleTx
			case "decoder":
				p.Role = RoleDecoder
			case "mass":
				p.Role = RoleMass
			default:
				return p, fmt.Errorf("trace: query term %q: want role=any|tx|decoder|mass", term)
			}
		case "tick", "ticks":
			if !hasVal || val == "" {
				return p, fmt.Errorf("trace: query term %q: want tick=<min>[-[<max>]]", term)
			}
			lo, hi, ranged := strings.Cut(val, "-")
			min, max := -1, -1
			var err error
			if lo != "" {
				if min, err = strconv.Atoi(lo); err != nil || min < 0 {
					return p, fmt.Errorf("trace: query term %q: bad tick %q", term, lo)
				}
			}
			if ranged && hi != "" {
				if max, err = strconv.Atoi(hi); err != nil || max < 0 {
					return p, fmt.Errorf("trace: query term %q: bad tick %q", term, hi)
				}
			}
			if !ranged {
				max = min // tick=N selects exactly tick N
			}
			if min >= 0 {
				p.MinTick = min
			}
			if max >= 0 {
				p.MaxTick = max + 1 // inclusive input, exclusive predicate
			}
			if p.MaxTick > 0 && p.MinTick >= p.MaxTick {
				return p, fmt.Errorf("trace: query term %q: empty tick window", term)
			}
		case "seized", "decodes", "mass":
			if hasVal {
				return p, fmt.Errorf("trace: query term %q: %s is a bare flag", term, key)
			}
			switch key {
			case "seized":
				p.Seized = true
			case "decodes":
				p.Decodes = true
			case "mass":
				p.Mass = true
			}
		default:
			return p, fmt.Errorf("trace: unknown query term %q (want node=, role=, tick=, seized, decodes, mass)", term)
		}
	}
	sort.Ints(p.Nodes)
	return p, nil
}

// QueryStats reports what a query cost and what the planner saved. Byte
// figures count data-frame payloads (the dominant term); frame-header and
// index-frame bytes ride along in BytesIndex.
type QueryStats struct {
	// FramesScanned and FramesSkipped partition the data frames seen:
	// skipped frames were proven irrelevant by the index and their payloads
	// were never read or decoded.
	FramesScanned int64 `json:"frames_scanned"`
	FramesSkipped int64 `json:"frames_skipped"`
	// BytesScanned / BytesSkipped are the payload bytes of those frames.
	BytesScanned int64 `json:"bytes_scanned"`
	BytesSkipped int64 `json:"bytes_skipped"`
	// BytesIndex counts index-frame payload bytes read by the planner.
	BytesIndex int64 `json:"bytes_index"`
	// EventsScanned counts events decoded and tested; EventsMatched counts
	// those the predicate accepted.
	EventsScanned int64 `json:"events_scanned"`
	EventsMatched int64 `json:"events_matched"`
	// FullScan is set when the query ran without index support (JSONL,
	// non-seekable stream, or an indexless binary trace).
	FullScan bool `json:"full_scan"`
	// Truncated is set when the trace ended on a torn or corrupt tail; the
	// results cover the longest valid prefix, as with Reader.
	Truncated bool `json:"truncated"`
}

// AddTo accumulates the stats into the registry under trace/query/*, the
// counters surfaced by traceinfo -counters and the daemon's /metricsz.
func (st *QueryStats) AddTo(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("trace/query/queries").Inc()
	reg.Counter("trace/query/frames_scanned").Add(st.FramesScanned)
	reg.Counter("trace/query/frames_skipped").Add(st.FramesSkipped)
	reg.Counter("trace/query/bytes_scanned").Add(st.BytesScanned)
	reg.Counter("trace/query/bytes_skipped").Add(st.BytesSkipped)
	reg.Counter("trace/query/bytes_index").Add(st.BytesIndex)
	reg.Counter("trace/query/events_matched").Add(st.EventsMatched)
	if st.FullScan {
		reg.Counter("trace/query/full_scans").Inc()
	}
}

// Query streams the events matching pred, in file order, to yield. It is
// one loop over the reader Open returns: when r can seek, a binary trace's
// Reader seeks past the data frames its index rules out; otherwise (JSONL,
// pipes, pre-index files) every frame is decoded, with identical results. A
// torn tail ends the query at the longest valid prefix
// (QueryStats.Truncated) rather than erroring; a yield error aborts the
// query and is returned as-is.
func Query(r io.Reader, pred Predicate, yield func(sim.SlotEvent) error) (QueryStats, error) {
	er, _, err := Open(r)
	if err != nil {
		return QueryStats{}, err
	}
	st := QueryStats{FullScan: true}
	br, _ := er.(*Reader)
	if br != nil && br.seeker != nil {
		br.keep, br.st = pred.candidate, &st
	}
	for {
		ev, err := er.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, err
		}
		st.EventsScanned++
		if pred.Match(ev) {
			st.EventsMatched++
			if err := yield(ev); err != nil {
				return st, err
			}
		}
	}
	if br != nil {
		st.Truncated = br.Truncated()
	}
	return st, nil
}

// QueryAll collects the matching events of a trace into memory — the
// convenience form of Query for tests and small slices.
func QueryAll(r io.Reader, pred Predicate) ([]sim.SlotEvent, QueryStats, error) {
	var events []sim.SlotEvent
	st, err := Query(r, pred, func(ev sim.SlotEvent) error {
		events = append(events, ev)
		return nil
	})
	return events, st, err
}

// Slice copies the events matching pred into w in file order, producing a
// valid standalone sub-trace in w's format; Slice flushes w before
// returning.
func Slice(r io.Reader, pred Predicate, w Writer) (QueryStats, error) {
	st, err := Query(r, pred, func(ev sim.SlotEvent) error {
		w.Record(ev)
		return nil
	})
	if err != nil {
		return st, err
	}
	return st, w.Flush()
}
