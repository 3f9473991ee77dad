package metrics

import (
	"fmt"
	"strings"
)

// Counters is a dynamically named counter set with the rendering contract
// the repository has relied on since the fault-injection layer: String and
// Names order counters alphabetically, so rendered counter lines are
// deterministic regardless of registration (and hence scheduling) order.
//
// It is a thin view over a Registry, so fault-engine counts, grid failure
// counters and CLI run manifests all share one metrics spine.
type Counters struct {
	r *Registry
}

// NewCounters returns an empty counter set backed by its own registry.
func NewCounters() *Counters {
	return &Counters{r: NewRegistry()}
}

// Add increments name by delta, registering the counter on first use.
func (c *Counters) Add(name string, delta int64) {
	c.r.Counter(name).Add(delta)
}

// Get returns the current value of name (0 when never added; reading does
// not register the name).
func (c *Counters) Get(name string) int64 {
	return c.r.CounterValue(name)
}

// Total sums every counter.
func (c *Counters) Total() int64 {
	var t int64
	for _, cs := range c.r.Snapshot().Counters {
		t += cs.Value
	}
	return t
}

// Names returns the registered counter names in sorted order.
func (c *Counters) Names() []string {
	snap := c.r.Snapshot()
	names := make([]string, len(snap.Counters))
	for i, cs := range snap.Counters {
		names[i] = cs.Name
	}
	return names
}

// Map returns a name → value copy of the set, for embedding in manifests.
func (c *Counters) Map() map[string]int64 {
	snap := c.r.Snapshot()
	m := make(map[string]int64, len(snap.Counters))
	for _, cs := range snap.Counters {
		m[cs.Name] = cs.Value
	}
	return m
}

// String renders "name=value" pairs in sorted name order, space separated;
// an empty counter set renders "".
func (c *Counters) String() string {
	snap := c.r.Snapshot()
	var b strings.Builder
	for i, cs := range snap.Counters {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", cs.Name, cs.Value)
	}
	return b.String()
}
