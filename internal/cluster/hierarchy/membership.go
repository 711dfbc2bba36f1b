package hierarchy

import (
	"context"
	"fmt"
	"io"
	"maps"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/powerapi"
	"repro/internal/units"
)

// Membership is a tier whose children come and go while it runs, all on
// the tier's clock (TierConfig.Clock):
//
//   - a registry of child addresses: the nodes it starts with, and every
//     node that registers through its cluster endpoints;
//   - a round every Interval, which first brings the tier's children in
//     line with a registry that changed (Tier.SetChildren). A child that
//     stays keeps its transport, and with it the lease IDs it was granted
//     and the status frames it follows;
//   - under a parent (Join), a heartbeat every Interval, which registers
//     the tier there again whenever the parent does not know it: at first
//     contact, and after the parent restarts.
//
// Close stops both.
type Membership struct {
	cfg    TierConfig
	budget units.Watts // what the tier starts at
	clk    clock.Clock
	log    io.Writer

	// kids are the tier's children with their transports, by name. Only
	// the rounds, which run one at a time, touch them.
	kids map[string]child

	mu     sync.Mutex
	addrs  map[string]string // the registry: node name → address
	dirty  bool              // the registry changed since the last update
	tier   *Tier             // nil until the registry first holds a node
	uplink http.Handler      // the tier's agent
	closed bool
	timers [2]clock.Timer // the round's and the heartbeat's
	busy   sync.WaitGroup // rounds and heartbeats running
}

// child is one child's address and the transport that reaches it there.
type child struct {
	addr string
	t    *cluster.HTTPNode
}

// NewMembership starts a tier's membership over the nodes it starts with
// (name → address), with its first round due at once; log takes a line
// per change. The tier itself is built at the first round with a node
// registered.
func NewMembership(cfg TierConfig, nodes map[string]string, log io.Writer) (*Membership, error) {
	budget, err := cfg.start()
	if err != nil {
		return nil, err
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("hierarchy: tier %s needs an interval to run its rounds on", cfg.Name)
	}
	m := &Membership{
		cfg: cfg, budget: budget, clk: cfg.Clock, log: log,
		kids: map[string]child{}, addrs: maps.Clone(nodes), dirty: len(nodes) > 0,
	}
	if m.clk == nil {
		m.clk = clock.Wall{}
	}
	if m.addrs == nil {
		m.addrs = map[string]string{}
	}
	m.every(0, m.round)
	return m, nil
}

// Register adds a node to the registry, or moves it to a new address; the
// next round builds the tier over it.
func (m *Membership) Register(node, addr string) {
	m.mu.Lock()
	changed := m.addrs[node] != addr
	if changed {
		m.addrs[node], m.dirty = addr, true
	}
	m.mu.Unlock()
	if changed {
		m.logf("node %s registered at %s", node, addr)
	}
}

// Known reports whether a node is in the registry.
func (m *Membership) Known(node string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.addrs[node]
	return ok
}

// ClusterStatus reports the tier's budget, power and children; before the
// tier is built, only the budget it will start at.
func (m *Membership) ClusterStatus() *powerapi.ClusterStatus {
	st := &powerapi.ClusterStatus{BudgetWatts: float64(m.budget), Nodes: []powerapi.ClusterNode{}}
	m.mu.Lock()
	t, addrs := m.tier, maps.Clone(m.addrs)
	m.mu.Unlock()
	if t == nil {
		return st
	}
	c := t.coord
	agg := c.Aggregate()
	st.BudgetWatts = float64(c.Budget())
	st.TotalPowerWatts = float64(c.TotalPower())
	st.Reallocations = c.Reallocations()
	st.Tier, st.Children, st.Leaves, st.Depth = t.Level(), agg.Children, agg.Leaves, agg.Depth
	st.Nodes = c.Nodes()
	for i := range st.Nodes {
		st.Nodes[i].Addr = addrs[st.Nodes[i].Name]
	}
	return st
}

// Handler serves the cluster endpoints under powerapi.ClusterPrefix and,
// once the tier is built, its agent under powerapi.PathPrefix: the tier
// as one node, for a parent to poll and lease.
func (m *Membership) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle(powerapi.ClusterPrefix, powerapi.CoordHandler(m))
	mux.HandleFunc(powerapi.PathPrefix, func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		up := m.uplink
		m.mu.Unlock()
		if up == nil {
			http.Error(w, "tier not assembled yet: no children", http.StatusServiceUnavailable)
			return
		}
		up.ServeHTTP(w, r)
	})
	return mux
}

// Join heartbeats the coordinator at parent every interval, the first
// time at once, and registers the tier there, under its name and at
// addr, whenever the parent does not know it.
func (m *Membership) Join(parent, addr string) {
	pc := powerapi.NewCoordClient(parent)
	m.every(1, func() {
		ctx, cancel := m.clk.WithTimeout(context.Background(), m.cfg.Interval)
		defer cancel()
		if ack, err := pc.Heartbeat(ctx, m.cfg.Name); err == nil && ack.Known {
			return
		}
		ack, err := pc.Register(ctx, m.cfg.Name, addr)
		if err == nil && !ack.Accepted {
			err = fmt.Errorf("refused: %s", ack.Reason)
		}
		if err != nil {
			m.logf("register with parent: %v", err)
			return
		}
		m.logf("registered %s tier with parent %s", m.cfg.Level, parent)
	})
}

// Close stops the rounds and the heartbeat, waits for those running, and
// closes the tier.
func (m *Membership) Close() {
	m.mu.Lock()
	m.closed = true
	for _, t := range m.timers {
		if t != nil {
			t.Stop()
		}
	}
	m.mu.Unlock()
	m.busy.Wait()
	if m.tier != nil {
		m.tier.Close()
	}
}

// every runs fn on the clock as timer i: at once, then an interval after
// each run ends, until Close.
func (m *Membership) every(i int, fn func()) {
	var run func()
	arm := func(d time.Duration) {
		m.mu.Lock()
		defer m.mu.Unlock()
		if !m.closed {
			m.timers[i] = m.clk.AfterFunc(d, run)
		}
	}
	run = func() {
		m.mu.Lock()
		closed := m.closed
		if !closed {
			m.busy.Add(1)
		}
		m.mu.Unlock()
		if closed {
			return
		}
		defer m.busy.Done()
		fn()
		arm(m.cfg.Interval)
	}
	arm(0)
}

// round brings the tier over the registry if it changed, then steps it.
func (m *Membership) round() {
	t := m.update()
	if t == nil {
		return
	}
	ctx, cancel := m.clk.WithTimeout(context.Background(), m.cfg.Interval)
	defer cancel()
	if err := t.Step(ctx); err != nil {
		m.logf("step: %v", err)
	}
}

// update brings the tier over the registry when it changed since the
// last round, and returns the tier, nil while there is none.
func (m *Membership) update() *Tier {
	m.mu.Lock()
	t, dirty, addrs := m.tier, m.dirty, maps.Clone(m.addrs)
	m.dirty = false
	m.mu.Unlock()
	if !dirty {
		return t
	}
	names := make([]string, 0, len(addrs))
	for n := range addrs {
		names = append(names, n)
	}
	sort.Strings(names)
	kids := make(map[string]child, len(names))
	ts := make([]cluster.Transport, len(names))
	for i, n := range names {
		k, ok := m.kids[n]
		if !ok || k.addr != addrs[n] {
			k = child{addrs[n], cluster.NewHTTPNode(n, addrs[n], m.cfg.Name).CollectMetrics()}
		}
		kids[n], ts[i] = k, k.t
	}
	if t == nil {
		nt, err := NewTier(m.cfg, ts)
		if err != nil {
			m.logf("building the tier: %v", err)
			return nil
		}
		m.mu.Lock()
		m.tier, m.uplink, t = nt, nt.Agent().Handler(), nt
		m.mu.Unlock()
	} else if err := t.SetChildren(ts); err != nil {
		m.logf("membership change: %v", err)
		return t
	}
	m.kids = kids
	m.logf("coordinating %d node(s): %s", len(names), strings.Join(names, ", "))
	return t
}

func (m *Membership) logf(format string, args ...any) {
	fmt.Fprintf(m.log, "%s: "+format+"\n", append([]any{m.cfg.Name}, args...)...)
}
