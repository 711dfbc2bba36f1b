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
)

// probeTransport is a Transport whose Report is a test hook.
type probeTransport struct {
	name   string
	local  bool
	report func(ctx context.Context) (Report, error)
}

func (p *probeTransport) Name() string { return p.name }
func (p *probeTransport) Local() bool  { return p.local }
func (p *probeTransport) Report(ctx context.Context) (Report, error) {
	return p.report(ctx)
}
func (p *probeTransport) Grant(context.Context, Grant) error { return nil }

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
	c, err := NewOverTransports(ts, Config{Budget: n * 50, NodeTimeout: 2 * time.Second, Retries: -1})
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

// TestWaveDeadline pins the one-deadline-per-wave contract: every first
// attempt of a round shares one deadline, a retry derives a later one of
// its own, a child that hangs costs the round two timeouts and a backoff,
// and its healthy siblings report normally meanwhile.
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
	c, err := NewOverTransports(ts, Config{
		Budget: n * 50, NodeTimeout: timeout, Retries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	if got := len(deadlines[0]); got != 2 {
		t.Fatalf("hung child saw %d attempts, want 2", got)
	}
	if !deadlines[0][1].After(deadlines[0][0]) {
		t.Errorf("retry deadline %v not after the wave's %v", deadlines[0][1], deadlines[0][0])
	}
	for i := 1; i < n; i++ {
		if len(deadlines[i]) != 1 {
			t.Errorf("healthy child %d saw %d attempts, want 1", i, len(deadlines[i]))
		} else if !deadlines[i][0].Equal(deadlines[0][0]) {
			t.Errorf("child %d first attempt deadline %v, wave's is %v", i, deadlines[i][0], deadlines[0][0])
		}
		if c.fails[i] != 0 || c.lastPower[i] != okReport.Power {
			t.Errorf("healthy child %d: fails %d, power %v", i, c.fails[i], c.lastPower[i])
		}
	}
	if c.fails[0] != 1 {
		t.Errorf("hung child: %d failed steps recorded, want 1", c.fails[0])
	}
	// Generous above (a loaded box), exact below: two timeouts and the
	// backoff between them cannot take less.
	if min := 2*timeout + retryBackoff; elapsed < min || elapsed > min+time.Second {
		t.Errorf("Step took %v, want about %v", elapsed, min)
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
