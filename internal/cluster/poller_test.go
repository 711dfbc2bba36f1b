package cluster

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/powerapi"
	"repro/internal/units"
)

// newPollerCoordinator builds a coordinator over n non-Local probe
// transports that all run report, on a virtual clock it returns.
func newPollerCoordinator(t *testing.T, n int, report func(ctx context.Context, i int) (Report, error)) (*Coordinator, *clock.Virtual) {
	t.Helper()
	ts := make([]Transport, n)
	for i := range ts {
		i := i
		ts[i] = &probeTransport{name: fmt.Sprintf("n%d", i), report: func(ctx context.Context) (Report, error) { return report(ctx, i) }}
	}
	vc := clock.NewVirtual(time.Unix(0, 0))
	c, err := NewOverTransports(ts, Config{Budget: units.Watts(n) * 50, NodeTimeout: 2 * time.Second, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	return c, vc
}

// pollerIdle is how long the pollers of newPollerCoordinator outlive the
// last round.
const pollerIdle = pollerIdleTimeouts * 2 * time.Second

// waitingToStep reports whether n goroutines are inside Coordinator.Step,
// one of them waiting for the round lock.
func waitingToStep(n int) bool {
	buf := make([]byte, 1<<20)
	stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
	in, locking := 0, false
	for _, g := range stacks {
		if strings.Contains(g, "(*Coordinator).Step(") {
			in++
			locking = locking || strings.Contains(g, "sync.(*Mutex).Lock")
		}
	}
	return in == n && locking
}

// pollers counts the poller goroutines alive in this process that
// goroutine id started. Step starts pollers on its caller's goroutine, so a
// test that steps its coordinator itself counts its own pollers, not those
// of other tests' coordinators retiring meanwhile.
func pollers(id string) int {
	buf := make([]byte, 1<<20)
	created := "(*Coordinator).startPollers in goroutine " + id + "\n"
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "(*Coordinator).startPollers.func1") && strings.Contains(g+"\n", created) {
			n++
		}
	}
	return n
}

// goroutineID returns the calling goroutine's id, as stack traces print it.
func goroutineID() string {
	buf := make([]byte, 64)
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf[:runtime.Stack(buf, false)]), "goroutine "), " ")
	return id
}

// waitFor polls cond until it holds, failing the test after five seconds.
// What it waits for is other goroutines running, never a timer.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// await receives from ch, failing the test after five seconds of host time,
// so a virtual clock that deadlocks fails its test rather than hangs it.
func await[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
	}
	t.Fatalf("timed out waiting for %s", what)
	var zero T
	return zero
}

// TestPollerLifetime: the pollers that the initial grant wave started keep
// both children's reports in flight at once, retire on their own once the
// coordinator has been idle for the period — nobody calls a Close — and
// a Step after that starts new ones and polls every child again.
func TestPollerLifetime(t *testing.T) {
	var polled [2]atomic.Int32
	var inflight sync.WaitGroup
	c, vc := newPollerCoordinator(t, 2, func(ctx context.Context, i int) (Report, error) {
		// Blocks until its sibling is in flight too: the fan-out overlaps.
		inflight.Done()
		inflight.Wait()
		polled[i].Add(1)
		return okReport, nil
	})
	retired := func() bool {
		c.pollMu.Lock()
		defer c.pollMu.Unlock()
		return c.polls == nil
	}
	// Other tests' coordinators may still have pollers, and those can only
	// go away: the goroutine count is held against its value here, and the
	// pollers counted are the ones this goroutine's Steps started.
	baseline, me := runtime.NumGoroutine(), goroutineID()
	if got := pollers(me); got != 2 {
		t.Fatalf("the initial grant wave left %d pollers, want 2", got)
	}
	for round, started := range []int{0, 0, 2} { // the pollers each round has to start
		before := pollers(me)
		inflight.Add(2)
		if err := c.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		if a, b := polled[0].Load(), polled[1].Load(); int(a) != round+1 || int(b) != round+1 {
			t.Fatalf("round %d: children polled %d and %d times", round+1, a, b)
		}
		if got := pollers(me); got != before+started {
			t.Errorf("round %d: %d pollers, want %d", round+1, got, before+started)
		}
		if round == 1 {
			// Idle: one period after round 1's start the retirement timer
			// sees that round 2 ran and looks again; one period later the
			// pollers go, and round 3 has to start new ones.
			if vc.Advance(pollerIdle); retired() {
				t.Fatal("the pollers retired one period after round 1, with round 2 since")
			}
			if vc.Advance(pollerIdle); !retired() {
				t.Fatal("the pollers outlived a whole idle period")
			}
			waitFor(t, "the pollers to exit", func() bool { return pollers(me) <= before-2 })
		}
	}
	vc.Advance(2 * pollerIdle)
	waitFor(t, "the goroutine count to return to its baseline", func() bool {
		return retired() && runtime.NumGoroutine() <= baseline
	})
}

// TestPollerRetirementRace steps a coordinator at about the pollers' idle
// period, with the clock advancing as each round runs, so rounds keep
// meeting the retirement: every round must still poll every child exactly
// once, and return.
func TestPollerRetirementRace(t *testing.T) {
	const n = 3
	var polled atomic.Int32
	c, vc := newPollerCoordinator(t, n, func(context.Context, int) (Report, error) {
		polled.Add(1)
		return okReport, nil
	})
	restarts := 0
	for round := 1; round <= 300; round++ {
		c.pollMu.Lock()
		if c.polls == nil {
			restarts++
		}
		c.pollMu.Unlock()
		// Advances spread over one to two idle periods, which is when
		// retirePollers fires for a coordinator that has gone quiet, run
		// alongside the round.
		advanced := make(chan struct{})
		go func() {
			defer close(advanced)
			vc.Advance(pollerIdle + time.Duration(round%8)*pollerIdle/8)
		}()
		if err := c.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		<-advanced
		if got := polled.Load(); got != int32(round*n) {
			t.Fatalf("round %d: %d reports so far, want %d", round, got, round*n)
		}
		for i := 0; i < n; i++ {
			if c.fails[i] != 0 {
				t.Fatalf("round %d: child %d lost its report", round, i)
			}
		}
	}
	t.Logf("300 rounds, %d of them after a retirement", restarts)
}

// TestPollerRetirementNeverWaitsOnARound: a round hung on a child holds the
// round lock while one Advance passes the pollers' idle period and then the
// wave's deadline. The retirement due on the way must not wait for the
// round, or Advance never reaches the deadline that ends it.
func TestPollerRetirementNeverWaitsOnARound(t *testing.T) {
	hung := make(chan struct{})
	c, vc := newPollerCoordinator(t, 2, func(ctx context.Context, i int) (Report, error) {
		if i == 0 {
			close(hung)
			<-ctx.Done()
			return Report{}, ctx.Err()
		}
		return okReport, nil
	})
	// The retirement construction armed is due pollerIdle from its start; a
	// round begun half a NodeTimeout before that has its deadline after it.
	vc.Advance(pollerIdle - c.cfg.NodeTimeout/2)
	stepped := make(chan error, 1)
	go func() { stepped <- c.Step(context.Background()) }()
	await(t, "the hung report", hung)
	advanced := make(chan struct{})
	go func() { vc.Advance(c.cfg.NodeTimeout); close(advanced) }()
	await(t, "the Advance past the retirement and the wave's deadline", advanced)
	if err := await(t, "the round", stepped); err != nil {
		t.Fatal(err)
	}
	if c.fails[0] != 1 || c.fails[1] != 0 {
		t.Fatalf("failed steps %v, want only the hung child's one", c.fails)
	}
}

// TestPollerLateReportStaysInItsRound: a report that outlives its wave's
// deadline is still that round's report. The round waits for it, the next
// round — already asked for — does not start until it has, and each
// round's scratch holds its own report.
func TestPollerLateReportStaysInItsRound(t *testing.T) {
	var (
		c       *Coordinator
		calls   atomic.Int32
		release = make(chan struct{})
		held    units.Watts // what round 1 delivered, read as round 2 polls
	)
	c, vc := newPollerCoordinator(t, 2, func(ctx context.Context, i int) (Report, error) {
		if i == 1 {
			return okReport, nil
		}
		call := calls.Add(1)
		if call == 1 {
			<-ctx.Done() // the wave's deadline passes...
			<-release    // ...and the report still takes its time
		} else {
			c.mu.Lock()
			held = c.lastPower[0]
			c.mu.Unlock()
		}
		return Report{Power: units.Watts(10 * call), Limit: 50, Max: 85}, nil
	})

	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- c.Step(context.Background()) }()
	waitFor(t, "round 1's report", func() bool { return calls.Load() == 1 })
	vc.Advance(c.cfg.NodeTimeout) // the wave's deadline passes
	go func() { second <- c.Step(context.Background()) }()
	// Past the wave's deadline, round 2 waits for round 1's lock.
	waitFor(t, "round 2 to wait for round 1", func() bool { return waitingToStep(2) })
	if got := calls.Load(); got != 1 {
		t.Fatalf("round 2 polled (%d calls) while round 1's report was still out", got)
	}
	select {
	case <-first:
		t.Fatal("round 1 returned without its report")
	default:
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d reports from the slow child over two rounds", got)
	}
	if held != 10 {
		t.Fatalf("round 2 began holding %v from the slow child, want round 1's late 10 W", held)
	}
	if c.fails[0] != 0 || c.lastPower[0] != 20 {
		t.Fatalf("after round 2: %d failed steps, last power %v, want round 2's 20 W", c.fails[0], c.lastPower[0])
	}
	if c.Rounds() != 2 {
		t.Fatalf("%d rounds ran", c.Rounds())
	}
}

// TestSubMillisecondLeaseTTLOverHTTP: a positive lease TTL under a
// millisecond goes out as 1 ms — over HTTP as in process — not as the
// zero an agent refuses as an invalid grant.
func TestSubMillisecondLeaseTTLOverHTTP(t *testing.T) {
	for ttl, want := range map[time.Duration]int64{
		0: 0, -time.Second: -1000, time.Nanosecond: 1, 500 * time.Microsecond: 1,
		time.Millisecond: 1, 1500 * time.Microsecond: 1, time.Hour: 3_600_000,
	} {
		if got := (Grant{TTL: ttl}).TTLMillis(); got != want {
			t.Errorf("Grant{TTL: %v}.TTLMillis() = %d, want %d", ttl, got, want)
		}
	}
	node := newWireNode(t, "n0", 40, nil, 1, nil, nil)
	c, err := NewOverTransports([]Transport{NewHTTPNode("n0", node.srv.URL, "room")},
		Config{Budget: 40, LeaseTTL: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if c.fails[0] != 0 || c.granted[0] != 40 {
		t.Fatalf("initial grant refused: %d failures, %v W acknowledged", c.fails[0], c.granted[0])
	}
	if ack, err := powerapi.NewClient(node.srv.URL).Lease(context.Background(),
		&powerapi.LeaseGrant{ID: 99, LimitWatts: 40, TTLMS: 0}); err == nil {
		t.Fatalf("the agent took a zero-millisecond grant (%+v): the rounding no longer matters", ack)
	}
}
