package powerapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// members is a registry with a fixed status.
type members struct {
	mu    sync.Mutex
	addrs map[string]string
}

func (m *members) Register(node, addr string) {
	m.mu.Lock()
	m.addrs[node] = addr
	m.mu.Unlock()
}

func (m *members) Known(node string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.addrs[node]
	return ok
}

func (m *members) ClusterStatus() *ClusterStatus {
	return &ClusterStatus{BudgetWatts: 200, Tier: "row", Nodes: []ClusterNode{{Name: "n0", Addr: m.addrs["n0"], LimitWatts: 100}}}
}

// CoordHandler answers CoordClient: a heartbeat from a node knows whether
// it registered, a register without a node or an address is refused as
// invalid, and the status comes back whole. The wrong method is refused
// on every endpoint.
func TestCoordHandler(t *testing.T) {
	m := &members{addrs: map[string]string{}}
	srv := httptest.NewServer(CoordHandler(m))
	defer srv.Close()
	c := NewCoordClient(srv.URL)
	ctx := context.Background()

	if ack, err := c.Heartbeat(ctx, "n0"); err != nil || ack.Known {
		t.Fatalf("heartbeat before registering: %+v, %v", ack, err)
	}
	if ack, err := c.Register(ctx, "n0", "host0:9090"); err != nil || !ack.Accepted {
		t.Fatalf("register: %+v, %v", ack, err)
	}
	if ack, err := c.Heartbeat(ctx, "n0"); err != nil || !ack.Known {
		t.Fatalf("heartbeat after registering: %+v, %v", ack, err)
	}
	var er *ErrorReply
	if _, err := c.Register(ctx, "n1", ""); !errors.As(err, &er) || er.Code != CodeInvalid {
		t.Fatalf("register without an address: %v, want a %s error", err, CodeInvalid)
	}
	st, err := c.ClusterStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, m.ClusterStatus()) {
		t.Fatalf("status %+v, want %+v", st, m.ClusterStatus())
	}
	for path, method := range map[string]string{"register": http.MethodGet, "heartbeat": http.MethodGet, "status": http.MethodPost} {
		req, err := http.NewRequest(method, srv.URL+ClusterPrefix+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %s, want 405", method, path, resp.Status)
		}
	}
}
