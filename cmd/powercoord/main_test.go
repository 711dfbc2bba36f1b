package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster/hierarchy"
	"repro/internal/powerapi"
	"repro/internal/units"
)

// node is a control-plane backend that enforces whatever it is granted.
type node struct {
	mu    sync.Mutex
	limit units.Watts
}

func (n *node) FillStatus(st *powerapi.NodeStatus) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st.Policy, st.LimitWatts, st.PowerWatts, st.MaxWatts = "test", float64(n.limit), float64(n.limit), 80
}

func (n *node) SetLimit(_ context.Context, w units.Watts) error {
	n.mu.Lock()
	n.limit = w
	n.mu.Unlock()
	return nil
}

func (n *node) granted() units.Watts {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.limit
}

// syncBuffer is a bytes.Buffer the command and the test share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// counted serves h and counts the requests.
type counted struct {
	n atomic.Int64
	h http.Handler
}

func (c *counted) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.n.Add(1)
	c.h.ServeHTTP(w, r)
}

// eventually polls cond every millisecond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("gave up waiting for %s", what)
		}
	}
}

// A row powercoord over one static node, under a parent: it leases the
// node budget, registers with the parent, and, once its context is
// cancelled, returns nil and stops: neither the node nor the parent hears
// from it again, and no goroutine stays behind — not its rounds, its
// heartbeat, its pollers or its listener.
func TestRunStopsCleanly(t *testing.T) {
	n := &node{}
	agent, err := powerapi.NewAgent(powerapi.AgentConfig{Name: "n0", Backend: n, Fallback: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	polls := &counted{h: agent.Handler()}
	leaf := httptest.NewServer(polls)
	defer leaf.Close()
	// The parent runs no round within the test: it only answers the
	// heartbeat and the registration.
	parent, err := hierarchy.NewMembership(hierarchy.TierConfig{
		Name: "building", Budget: 400, Fallback: 400, Interval: time.Hour,
	}, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	beats := &counted{h: parent.Handler()}
	up := httptest.NewServer(beats)
	defer up.Close()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-name", "row0", "-tier", "row", "-budget", "100", "-nodes", "n0=" + leaf.URL,
			"-listen", "127.0.0.1:0", "-parent", up.URL, "-interval", "10ms", "-node-timeout", "10ms",
		}, &out, &out)
	}()
	eventually(t, "the row's registration with its parent", func() bool { return parent.Known("row0") })
	eventually(t, "a lease on the node", func() bool { return n.granted() > 10 })
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	// The registration may land after its caller's deadline, so stdout
	// need not say it did; the parent knowing row0 does.
	for _, line := range []string{"row0: coordinating 1 node(s): n0", "powercoord: shutting down"} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("stdout lacks %q:\n%s", line, out.String())
		}
	}

	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			var b bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&b, 1)
			t.Fatalf("%d goroutines after run returned, %d before:\n%s", runtime.NumGoroutine(), before, b.String())
		}
	}
	// No request is in flight once the goroutines are gone: a call the
	// last round gave up on may still have reached the node until then.
	p, b := polls.n.Load(), beats.n.Load()
	time.Sleep(100 * time.Millisecond) // ten intervals
	if p != polls.n.Load() || b != beats.n.Load() {
		t.Errorf("after run returned the node got %d more requests, the parent %d", polls.n.Load()-p, beats.n.Load()-b)
	}
}
