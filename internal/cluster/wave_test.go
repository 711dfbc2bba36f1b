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

	"repro/internal/clock"
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

// TestWaveDeadline pins the one-deadline-per-wave contract on the virtual
// clock: every child of a round is called once under the wave's one
// deadline, a child that hangs costs the round exactly that one timeout,
// and its healthy siblings report normally meanwhile. A virtual context has
// no Deadline, so "one deadline" is one Done channel.
func TestWaveDeadline(t *testing.T) {
	const (
		n       = 4
		timeout = 50 * time.Millisecond
	)
	var mu sync.Mutex
	dones := make([][]<-chan struct{}, n) // per child, per attempt
	hung := make(chan struct{})
	ts := make([]Transport, n)
	for i := range ts {
		i := i
		ts[i] = &probeTransport{name: fmt.Sprintf("n%d", i), report: func(ctx context.Context) (Report, error) {
			mu.Lock()
			dones[i] = append(dones[i], ctx.Done())
			mu.Unlock()
			if i == 0 {
				close(hung)
				<-ctx.Done()
				return Report{}, ctx.Err()
			}
			return okReport, nil
		}}
	}
	vc := clock.NewVirtual(time.Unix(0, 0))
	c, err := NewOverTransports(ts, Config{Budget: n * 50, NodeTimeout: timeout, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	stepped := make(chan error, 1)
	go func() { stepped <- c.Step(context.Background()) }()
	await(t, "the hung report", hung)
	if vc.Advance(timeout - 1); isDone(dones[0][0]) {
		t.Fatal("the wave's deadline passed before its NodeTimeout")
	}
	vc.Advance(1)
	if err := await(t, "the round", stepped); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		if len(dones[i]) != 1 {
			t.Fatalf("child %d saw %d attempts, want 1", i, len(dones[i]))
		}
		if dones[i][0] != dones[0][0] {
			t.Errorf("child %d was called under a context of its own, not the wave's", i)
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
}

// TestGrantPhaseDeadline pins one deadline per grant phase, on the virtual
// clock. Two pressed children grow and four idle ones shrink; one child in
// each phase hangs on its grant. Every grant of a phase runs under the
// phase's one context, each hung child costs its phase exactly its
// timeout, so the round takes exactly two, the healthy siblings commit, and
// the acknowledged ledger stays within the budget. The pollers' retirement,
// armed at construction, falls due at the grow phase's deadline and must
// not wait on the round.
func TestGrantPhaseDeadline(t *testing.T) {
	const (
		n       = 6
		timeout = 50 * time.Millisecond
		budget  = n * 50
	)
	type call struct {
		limit units.Watts
		done  <-chan struct{}
	}
	var (
		mu    sync.Mutex
		armed bool // set once construction's equal split is in
		calls = map[int]call{}
		hung  = map[int]chan struct{}{0: make(chan struct{}), 2: make(chan struct{})} // one grower, one shrinker
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
				mu.Lock()
				if !armed {
					mu.Unlock()
					return nil
				}
				if _, again := calls[i]; again {
					t.Errorf("child %d granted twice in one round", i)
				}
				calls[i] = call{g.Limit, ctx.Done()}
				mu.Unlock()
				if hung[i] != nil {
					close(hung[i])
					<-ctx.Done()
					return ctx.Err()
				}
				return nil
			},
		}
	}
	vc := clock.NewVirtual(time.Unix(0, 0))
	c, err := NewOverTransports(ts, Config{Budget: budget, NodeTimeout: timeout, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	armed = true
	mu.Unlock()
	stepped := make(chan error, 1)
	go func() { stepped <- c.Step(context.Background()) }()
	called := func(i int) (call, bool) {
		mu.Lock()
		defer mu.Unlock()
		c, ok := calls[i]
		return c, ok
	}
	await(t, "the hung shrink", hung[2])
	vc.Advance(timeout - 1)
	_, grew0 := called(0)
	_, grew1 := called(1)
	if c2, _ := called(2); isDone(c2.done) || grew0 || grew1 {
		t.Fatal("the shrink phase ended before its NodeTimeout")
	}
	vc.Advance(1)
	await(t, "the hung grow", hung[0])
	vc.Advance(timeout - 1)
	if c0, _ := called(0); isDone(c0.done) {
		t.Fatal("the grow phase's deadline passed before its NodeTimeout")
	}
	advanced := make(chan struct{})
	go func() { vc.Advance(1); close(advanced) }()
	await(t, "the Advance past the retirement and the grow phase's deadline", advanced)
	if err := await(t, "the round", stepped); err != nil {
		t.Fatal(err)
	}

	if len(calls) != n {
		t.Fatalf("%d children granted, want %d", len(calls), n)
	}
	var shrink, grow <-chan struct{}
	for i := 0; i < n; i++ {
		phase, grows := &shrink, calls[i].limit > 50
		if grows != (i < 2) {
			t.Fatalf("child %d granted %v from 50 W", i, calls[i].limit)
		}
		if grows {
			phase = &grow
		}
		if *phase == nil {
			*phase = calls[i].done
		}
		if calls[i].done != *phase {
			t.Errorf("child %d was granted under a context of its own, not its phase's", i)
		}
	}
	if shrink == grow {
		t.Error("the shrink and grow phases shared one deadline")
	}
	for i := 0; i < n; i++ {
		hung := i == 0 || i == 2
		if ok := c.fails[i] == 0 && c.granted[i] == calls[i].limit; ok == hung {
			t.Errorf("child %d (hung %v): %d failed steps, %v acknowledged of %v", i, hung, c.fails[i], c.granted[i], calls[i].limit)
		}
	}
	var held units.Watts
	for i := 0; i < n; i++ {
		held += c.effective(i, vc.Now(), c.floor())
	}
	if held > budget+budgetSlack {
		t.Errorf("the ledger holds %v of a %v budget", held, units.Watts(budget))
	}
}

// isDone reports whether done is closed.
func isDone(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
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
