package hierarchy

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/powerapi"
	"repro/internal/units"
)

// swappable serves whatever handler it holds: one address for a process
// that restarts.
type swappable struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swappable) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

// TestMembershipSurvivesParentRestart: a building and a row over four
// agent-fronted leaves, all reached over loopback HTTP and all on one
// virtual clock, are joined by registration alone — the leaves register
// with the row, the row's heartbeat registers it with the building. Then
// the building restarts: a fresh membership and a fresh tier behind the
// same address, which know nothing. The row's next heartbeat finds it
// unknown and registers again, within one interval of the restart. The
// fresh building's lease IDs start over, so the row refuses them as stale
// until the lease it holds lapses, one TTL at most, and then takes them.
// The leaves' enforced caps never sum past the building's budget.
func TestMembershipSurvivesParentRestart(t *testing.T) {
	vc := clock.NewVirtual(epoch)
	const interval = 100 * time.Millisecond
	const ttl = 3 * interval // the cluster.Config default
	budget := units.Watts(400)
	rowFallback := budget * floorFraction / 2

	buildingCfg := TierConfig{
		Name: "building", Level: "building", Budget: budget, Fallback: budget,
		Interval: interval, Clock: vc,
	}
	building, err := NewMembership(buildingCfg, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	front := &swappable{h: building.Handler()}
	buildingAddr := serve(t, front)

	row, err := NewMembership(TierConfig{
		Name: "row", Level: "row", StartAtFallback: true, Fallback: rowFallback,
		Interval: interval, Clock: vc,
	}, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer row.Close()
	rowAddr := serve(t, row.Handler())
	var leaves []*Leaf
	for i := range 4 {
		leaves = append(leaves, joinLeaf(t, vc, rowAddr, fmt.Sprintf("n%d", i), rowFallback*floorFraction/4))
	}
	row.Join(buildingAddr, rowAddr)

	// step advances the clock a quarter interval and checks the caps.
	step := func() {
		t.Helper()
		vc.Advance(interval / 4)
		var sum units.Watts
		for _, l := range leaves {
			sum += l.Limit()
		}
		if sum > budget {
			t.Fatalf("at %v the leaves enforce %v, over the building's %v", since(vc), sum, budget)
		}
	}
	// leased reports whether the row holds a lease and has passed more than
	// their fallback caps on to its leaves.
	leased := func() bool {
		st := row.tier.Agent().Status()
		return st.Lease != nil && leaves[0].Limit() > rowFallback*floorFraction/4
	}

	for range 24 {
		step()
	}
	if !building.Known("row") || !leased() {
		t.Fatalf("after %v the building knows the row: %v; the row holds a lease: %v", since(vc), building.Known("row"), leased())
	}
	if st := building.ClusterStatus(); len(st.Nodes) != 1 || st.Nodes[0].Addr != rowAddr || st.Leaves != 4 || st.Depth != 2 {
		t.Fatalf("building status %+v, want the row at %s over 4 leaves", st, rowAddr)
	}

	building.Close()
	fresh, err := NewMembership(buildingCfg, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	front.set(fresh.Handler())
	restart := since(vc)

	for !fresh.Known("row") {
		step()
		if since(vc)-restart > interval {
			t.Fatalf("the row has not registered again %v after the building restarted", since(vc)-restart)
		}
	}
	for !leased() || fresh.tier == nil || fresh.tier.Coordinator().LeaseLedger()["row"].Granted == 0 {
		step()
		if since(vc)-restart > ttl+interval {
			t.Fatalf("%v after the restart the row holds no lease from the fresh building", since(vc)-restart)
		}
	}
	for range 8 {
		step()
	}
}

// serve serves h on loopback for the rest of the test.
func serve(t *testing.T, h http.Handler) string {
	s := httptest.NewServer(h)
	t.Cleanup(s.Close)
	return s.URL
}

// joinLeaf starts a leaf, serves its agent and registers it with the tier
// at addr.
func joinLeaf(t *testing.T, vc *clock.Virtual, addr, name string, fallback units.Watts) *Leaf {
	t.Helper()
	leaf, err := NewLeaf(LeafConfig{Name: name, Max: 200, Fallback: fallback, Demand: 200, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leaf.Close)
	if _, err := powerapi.NewCoordClient(addr).Register(context.Background(), name, serve(t, leaf.agent.Handler())); err != nil {
		t.Fatal(err)
	}
	return leaf
}

// TestMembershipJoinKeepsLeases: when a fifth leaf registers, the row
// rebuilds over five, and the four that stay keep their transports, so
// the row goes on renewing the leases they hold. A fresh transport's
// lease IDs would start over, below the ones they hold, and be refused
// as stale until those lapsed.
func TestMembershipJoinKeepsLeases(t *testing.T) {
	vc := clock.NewVirtual(epoch)
	const interval = 100 * time.Millisecond
	budget := units.Watts(400)
	row, err := NewMembership(TierConfig{Name: "row", Budget: budget, Fallback: budget, Interval: interval, Clock: vc}, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer row.Close()
	addr := serve(t, row.Handler())
	var leaves []*Leaf
	for i := range 4 {
		leaves = append(leaves, joinLeaf(t, vc, addr, fmt.Sprintf("n%d", i), budget*floorFraction/4))
	}
	for range 10 {
		vc.Advance(interval)
	}
	held := make([]uint64, len(leaves))
	for i, l := range leaves {
		held[i] = l.agent.Status().Lease.ID
	}
	joinLeaf(t, vc, addr, "n4", budget*floorFraction/5)
	for range 3 { // one TTL
		vc.Advance(interval)
	}
	for i, l := range leaves {
		if st := l.agent.Status(); st.Lease == nil || st.Lease.ID <= held[i] {
			t.Errorf("%s holds lease %+v one TTL after a fifth leaf joined, was #%d", l.Name(), st.Lease, held[i])
		}
	}
	if st := row.ClusterStatus(); len(st.Nodes) != 5 || st.Nodes[4].Name != "n4" || st.Nodes[4].Addr == "" {
		t.Fatalf("row status %+v, want five leaves", st)
	}
}
