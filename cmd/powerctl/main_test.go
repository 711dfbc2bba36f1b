package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster/hierarchy"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/opconfig"
	"repro/internal/platform"
	"repro/internal/powerapi"
)

// powerctl runs the command line args and returns what it printed.
func powerctl(t *testing.T, args ...string) string {
	t.Helper()
	var out, errs bytes.Buffer
	if err := run(args, &out, &errs); err != nil {
		t.Fatalf("powerctl %s: %v\n%s", strings.Join(args, " "), err, errs.Bytes())
	}
	return out.String()
}

// A command line that asks for two things where only one can be done is
// refused before anything is sent: status and drain stand alone, and
// take nothing after their own argument.
func TestRefusedCommandLines(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "unexpected", http.StatusTeapot)
	}))
	defer srv.Close()
	for _, args := range [][]string{
		{"-node", srv.URL, "set-limit", "40", "drain", "on"},
		{"-node", srv.URL, "set-policy", "power", "status"},
		{"-node", srv.URL, "drain", "on", "set-limit", "40"},
		{"-node", srv.URL, "drain", "on", "off"},
		{"-node", srv.URL, "drain"},
		{"-node", srv.URL, "drain", "maybe"},
		{"-node", srv.URL, "status", "extra"},
		{"-node", srv.URL, "set-limit", "forty"},
		{"-node", srv.URL, "reboot"},
		{"-coord", srv.URL, "tree", "extra"},
		{"-coord", srv.URL, "register", "n0"},
		{"tree"},
		{"status"},
		{},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("powerctl %s: no error", strings.Join(args, " "))
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("refused command lines sent %d requests", n)
	}
}

// status, set-policy, drain and tree against a node.New node behind its
// control-plane agent, registered with a room tier through register.
func TestLoopback(t *testing.T) {
	chip := platform.Skylake()
	specs := []core.AppSpec{{Name: "gcc", Core: 0, Shares: 90}, {Name: "cam4", Core: 1, Shares: 10}}
	pol, err := opconfig.PolicyFor("frequency", chip, specs, 50)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Spec{Chip: chip, Apps: specs, Policy: pol, Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	agent, err := powerapi.NewAgent(powerapi.AgentConfig{Name: "n0", Daemon: n.Daemon, PolicyName: "frequency", Fallback: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	nodeSrv := httptest.NewServer(agent.Handler())
	defer nodeSrv.Close()

	vc := clock.NewVirtual(time.Unix(0, 0))
	room, err := hierarchy.NewMembership(hierarchy.TierConfig{
		Name: "room", Level: "room", Budget: 60, Fallback: 60, Interval: time.Second, Clock: vc,
	}, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer room.Close()
	coordSrv := httptest.NewServer(room.Handler())
	defer coordSrv.Close()

	if got := powerctl(t, "-coord", coordSrv.URL, "register", "n0", nodeSrv.URL); got != "registered n0 at "+nodeSrv.URL+"\n" {
		t.Fatalf("register printed %q", got)
	}
	vc.Advance(0) // the room's first round: it builds the tier over n0 and leases it its budget
	got := powerctl(t, "-coord", coordSrv.URL, "tree")
	for _, want := range []string{"[room] " + coordSrv.URL + "  budget 60 W", "(1 children, 1 leaves, depth 1)", "├─ n0            lease 60 W"} {
		if !strings.Contains(got, want) {
			t.Errorf("tree lacks %q:\n%s", want, got)
		}
	}

	got = powerctl(t, "-node", nodeSrv.URL, "status")
	for _, want := range []string{"node       n0\n", "policy     frequency-shares\n", "iterations 3\n", `lease      #1 from "room": 60 W`, "app        gcc        core 0   shares 90"} {
		if !strings.Contains(got, want) {
			t.Errorf("status lacks %q:\n%s", want, got)
		}
	}

	if got := powerctl(t, "-node", nodeSrv.URL, "set-policy", "performance", "set-shares", "gcc=50,cam4=50"); got != "reconfigured: policy=performance-shares limit=60W\n" {
		t.Errorf("set-policy printed %q", got)
	}
	if st := agent.Status(); st.Policy != "performance-shares" || st.Apps[0].Shares != 50 || st.Apps[1].Shares != 50 {
		t.Errorf("after set-policy the agent reports policy %s and apps %+v", st.Policy, st.Apps)
	}

	if got := powerctl(t, "-node", nodeSrv.URL, "drain", "on"); got != "draining: true\n" {
		t.Errorf("drain on printed %q", got)
	}
	if st := agent.Status(); !st.Draining || st.Lease != nil || st.LimitWatts != 30 {
		t.Errorf("after drain on the agent reports draining %v, lease %+v, limit %v W; want draining at its 30 W fallback", st.Draining, st.Lease, st.LimitWatts)
	}
}
