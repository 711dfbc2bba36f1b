package cluster

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/units"
)

// probeTransport is a Transport whose Report and Grant are test hooks; a
// nil grant hook acknowledges every grant.
type probeTransport struct {
	name   string
	local  bool
	report func(ctx context.Context) (Report, error)
	grant  func(ctx context.Context, g Grant) error
}

func (p *probeTransport) Name() string { return p.name }
func (p *probeTransport) Local() bool  { return p.local }
func (p *probeTransport) Report(ctx context.Context) (Report, error) {
	return p.report(ctx)
}
func (p *probeTransport) Grant(ctx context.Context, g Grant) error {
	if p.grant == nil {
		return nil
	}
	return p.grant(ctx, g)
}

var okReport = Report{Power: 40, Limit: 50, Max: 85}

// goid names the calling goroutine, from the first line of its stack
// ("goroutine 7 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestLocalPolledInlineRemoteFannedOut pins what the coordinator does with
// Transport.Local inside one round: local children are polled on the
// stepping goroutine, one at a time, in index order; the non-local
// children of the same coordinator still overlap — each of theirs returns
// only once all of them are in flight.
func TestLocalPolledInlineRemoteFannedOut(t *testing.T) {
	const n = 12 // even indices local, odd remote
	var (
		stepper  string
		inflight atomic.Int32
		mu       sync.Mutex
		order    []int
		arrived  atomic.Int32
		all      = make(chan struct{})
	)
	ts := make([]Transport, n)
	for i := range ts {
		i := i
		p := &probeTransport{name: fmt.Sprintf("n%d", i), local: i%2 == 0}
		if p.local {
			p.report = func(context.Context) (Report, error) {
				if got := inflight.Add(1); got > 1 {
					t.Errorf("local child %d polled with %d local reports in flight", i, got)
				}
				defer inflight.Add(-1)
				if g := goid(); g != stepper {
					t.Errorf("local child %d polled on goroutine %s, Step runs on %s", i, g, stepper)
				}
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				runtime.Gosched() // give an overlapping poll the chance to show
				return okReport, nil
			}
		} else {
			p.report = func(ctx context.Context) (Report, error) {
				if arrived.Add(1) == n/2 {
					close(all)
				}
				select {
				case <-all:
					return okReport, nil
				case <-ctx.Done():
					return Report{}, fmt.Errorf("remote child %d: siblings never arrived: %w", i, ctx.Err())
				}
			}
		}
		ts[i] = p
	}
	c, err := NewOverTransports(ts, Config{Budget: n * 50, NodeTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stepper = goid()
	if err := c.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if c.fails[i] != 0 {
			t.Errorf("child %d failed its report", i)
		}
	}
	if len(order) != n/2 {
		t.Fatalf("%d local polls, want %d", len(order), n/2)
	}
	for j, i := range order {
		if i != 2*j {
			t.Fatalf("local children polled in order %v, want index order", order)
		}
	}
}

// TestWaveDeadline pins the one-deadline-per-wave contract: every child
// of a round is called once under the wave's one deadline, a child that
// hangs costs the round that one timeout and nothing more, and its healthy
// siblings report normally meanwhile.
func TestWaveDeadline(t *testing.T) {
	const (
		n       = 4
		timeout = 50 * time.Millisecond
	)
	var mu sync.Mutex
	deadlines := make([][]time.Time, n) // per child, per attempt
	ts := make([]Transport, n)
	for i := range ts {
		i := i
		ts[i] = &probeTransport{name: fmt.Sprintf("n%d", i), report: func(ctx context.Context) (Report, error) {
			d, ok := ctx.Deadline()
			if !ok {
				t.Errorf("child %d polled without a deadline", i)
			}
			mu.Lock()
			deadlines[i] = append(deadlines[i], d)
			mu.Unlock()
			if i == 0 {
				<-ctx.Done()
				return Report{}, ctx.Err()
			}
			return okReport, nil
		}}
	}
	c, err := NewOverTransports(ts, Config{Budget: n * 50, NodeTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	for i := 0; i < n; i++ {
		if len(deadlines[i]) != 1 {
			t.Fatalf("child %d saw %d attempts, want 1", i, len(deadlines[i]))
		}
		if !deadlines[i][0].Equal(deadlines[0][0]) {
			t.Errorf("child %d deadline %v, the wave's is %v", i, deadlines[i][0], deadlines[0][0])
		}
	}
	for i := 1; i < n; i++ {
		if c.fails[i] != 0 || c.lastPower[i] != okReport.Power {
			t.Errorf("healthy child %d: fails %d, power %v", i, c.fails[i], c.lastPower[i])
		}
	}
	if c.fails[0] != 1 {
		t.Errorf("hung child: %d failed steps recorded, want 1", c.fails[0])
	}
	// Generous above (a loaded box), exact below: the wave's one timeout
	// cannot take less.
	if elapsed < timeout || elapsed > timeout+time.Second {
		t.Errorf("Step took %v, want about %v", elapsed, timeout)
	}
}

// TestGrantPhaseDeadline pins one deadline per grant phase. Two pressed
// children grow and four idle ones shrink; one child in each phase hangs on
// its grant. Every grant of a phase sees the phase's one deadline, each
// hung child costs its phase that one timeout, the healthy siblings
// commit, and the acknowledged ledger stays within the budget.
func TestGrantPhaseDeadline(t *testing.T) {
	const (
		n       = 6
		timeout = 50 * time.Millisecond
		budget  = n * 50
	)
	type call struct {
		limit    units.Watts
		deadline time.Time
	}
	var (
		mu    sync.Mutex
		armed bool // set once construction's equal split is in
		calls = map[int]call{}
	)
	ts := make([]Transport, n)
	for i := range ts {
		i := i
		power := units.Watts(10)
		if i < 2 {
			power = 50 // pressed against the equal split: bids to grow
		}
		ts[i] = &probeTransport{
			name: fmt.Sprintf("n%d", i),
			report: func(context.Context) (Report, error) {
				return Report{Power: power, Limit: 50, Max: 85}, nil
			},
			grant: func(ctx context.Context, g Grant) error {
				d, ok := ctx.Deadline()
				if !ok {
					t.Errorf("child %d granted without a deadline", i)
				}
				mu.Lock()
				if !armed {
					mu.Unlock()
					return nil
				}
				if _, again := calls[i]; again {
					t.Errorf("child %d granted twice in one round", i)
				}
				calls[i] = call{g.Limit, d}
				mu.Unlock()
				if i == 0 || i == 2 { // one grower, one shrinker
					<-ctx.Done()
					return ctx.Err()
				}
				return nil
			},
		}
	}
	c, err := NewOverTransports(ts, Config{Budget: budget, NodeTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	armed = true
	mu.Unlock()
	start := time.Now()
	if err := c.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	if len(calls) != n {
		t.Fatalf("%d children granted, want %d", len(calls), n)
	}
	var shrink, grow time.Time
	for i := 0; i < n; i++ {
		phase, grows := &shrink, calls[i].limit > 50
		if grows != (i < 2) {
			t.Fatalf("child %d granted %v from 50 W", i, calls[i].limit)
		}
		if grows {
			phase = &grow
		}
		if phase.IsZero() {
			*phase = calls[i].deadline
		}
		if !calls[i].deadline.Equal(*phase) {
			t.Errorf("child %d deadline %v, its phase's is %v", i, calls[i].deadline, *phase)
		}
	}
	if grow.Sub(shrink) < timeout {
		t.Errorf("the grow phase's deadline is %v after the shrink phase's, want at least its timeout %v", grow.Sub(shrink), timeout)
	}
	for i := 0; i < n; i++ {
		hung := i == 0 || i == 2
		if ok := c.fails[i] == 0 && c.granted[i] == calls[i].limit; ok == hung {
			t.Errorf("child %d (hung %v): %d failed steps, %v acknowledged of %v", i, hung, c.fails[i], c.granted[i], calls[i].limit)
		}
	}
	var held units.Watts
	for i := 0; i < n; i++ {
		held += c.effective(i, time.Now(), c.floor())
	}
	if held > budget+budgetSlack {
		t.Errorf("the ledger holds %v of a %v budget", held, units.Watts(budget))
	}
	// Generous above (a loaded box), exact below: two phases, one timeout
	// each, cannot take less.
	if elapsed < 2*timeout || elapsed > 2*timeout+time.Second {
		t.Errorf("Step took %v, want about %v", elapsed, 2*timeout)
	}
}

// TestQuietGrantAllocs: a grant pass with nothing to send, every lease
// already saying what the plan would, allocates nothing.
func TestQuietGrantAllocs(t *testing.T) {
	const n = 64
	ts := make([]Transport, n)
	for i := range ts {
		ts[i] = &probeTransport{name: fmt.Sprint("n", i), local: i%2 == 0}
	}
	c, err := NewOverTransports(ts, Config{Budget: 50 * n, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	targets, healthy := append([]units.Watts(nil), c.granted...), make([]bool, n)
	for i := range healthy {
		healthy[i] = true
	}
	sent := 0
	for _, tr := range ts {
		tr.(*probeTransport).grant = func(context.Context, Grant) error { sent++; return nil }
	}
	if allocs := testing.AllocsPerRun(100, func() { c.issueGrants(context.Background(), targets, healthy, nil) }); allocs != 0 {
		t.Errorf("a quiet issueGrants: %v allocs, want 0", allocs)
	}
	if sent != 0 {
		t.Errorf("a quiet issueGrants sent %d grants", sent)
	}
}

// TestLocalAnswers pins which transports of this package claim Local.
func TestLocalAnswers(t *testing.T) {
	if !(&AgentTransport{}).Local() {
		t.Error("AgentTransport must be Local: it reads the in-process agent's status")
	}
	if NewHTTPNode("n", "127.0.0.1:1", "").Local() {
		t.Error("HTTPNode must not be Local: every report is a round trip")
	}
	if (&flakyTransport{}).Local() {
		t.Error("flakyTransport must not be Local")
	}
}
