// Command powercoord runs one tier of the power-delivery hierarchy over
// remote children: it polls every child's control-plane agent,
// water-fills its budget over their bids, and leases each child its
// share — the networked counterpart of the in-process cluster
// experiments.
//
// Usage:
//
//	powercoord -budget 200 -nodes n0=host0:9090,n1=host1:9090 \
//	           -interval 5s -listen :9190
//
// Nodes may also register themselves at runtime by POSTing to
// /v1/cluster/register on -listen (powerctl register does this).
// Membership changes swap the child set at the next tick, carrying the
// acknowledged-grant ledger over so survivors shrink before newcomers
// grow.
//
// Stacked tiers: with -parent, this coordinator is itself a node one
// level up — it serves the standard node agent on -listen (so the
// parent polls its subtree aggregate as one status report and leases it
// one budget), registers itself with the parent, and starts at its
// -fallback cap until the first lease lands. -tier labels the level
// ("row", "building"); children may themselves be powercoord processes,
// to any depth. The same invariants hold recursively: a granted shrink
// is refused until the children's acknowledged caps fit under it, and a
// tier whose own lease expires clamps to -fallback while its children's
// leases lapse into theirs.
//
// Leases make partitions safe: every grant expires after -ttl unless
// renewed, at which point the node reverts to its fallback cap on its
// own. Nodes that keep timing out are quarantined — their reservation
// decays to the floor — and re-admitted on their first good report.
//
// Observability: every reallocation round is traced (fan-out, per-node
// RPCs, plan, grant wave) into a constant-memory ring served at
// /debug/rounds under this tier's round-ID namespace — powerdump -view
// merged joins the rings of stacked tiers into one cross-tier timeline.
// Node metrics snapshots piggyback on the status poll and aggregate
// into fleet rollups at /debug/fleet (rendered by powerctl top), and
// the tier totals are exported on /metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/hierarchy"
	"repro/internal/metrics"
	"repro/internal/powerapi"
	"repro/internal/tracing"
	"repro/internal/units"
)

// registry tracks the room's membership: the static -nodes set plus any
// node that registered over the wire.
type registry struct {
	mu    sync.Mutex
	addrs map[string]string // node name -> address
	dirty bool              // membership changed since the last build
}

func (r *registry) add(name, addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.addrs[name]; ok && prev == addr {
		return false
	}
	r.addrs[name] = addr
	r.dirty = true
	return true
}

func (r *registry) known(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.addrs[name]
	return ok
}

// snapshot returns the membership sorted by name and clears the dirty
// flag when take is set.
func (r *registry) snapshot(take bool) (names, addrs []string, changed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for n := range r.addrs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		addrs = append(addrs, r.addrs[n])
	}
	changed = r.dirty
	if take {
		r.dirty = false
	}
	return names, addrs, changed
}

func main() {
	var (
		budget    = flag.Float64("budget", 0, "tier power budget in watts (required; with -parent, the starting cap until the first lease)")
		nodesArg  = flag.String("nodes", "", "static membership, comma-separated name=addr")
		name      = flag.String("name", "powercoord", "coordinator name stamped into leases and round IDs")
		listen    = flag.String("listen", "", "serve /metrics, /v1/cluster/, and the uplink node agent on this address")
		interval  = flag.Duration("interval", 5*time.Second, "reallocation interval")
		ttl       = flag.Duration("ttl", 0, "lease TTL (0 = 3x interval)")
		floorFrac = flag.Float64("floor-fraction", 0.5, "per-node guaranteed fraction of an equal split")
		timeout   = flag.Duration("node-timeout", 2*time.Second, "per-attempt node call timeout")
		retries   = flag.Int("retries", 2, "extra attempts per failed node call")
		quarAfter = flag.Int("quarantine-after", 3, "consecutive failed steps before quarantine")
		tierLevel = flag.String("tier", "room", "this coordinator's level in the hierarchy (room, row, building)")
		parent    = flag.String("parent", "", "parent coordinator address; register there and take budget as leases")
		fallback  = flag.Float64("fallback", 0, "watts to clamp to when this tier's own lease expires (0 = budget without -parent, half of it with)")
		advertise = flag.String("advertise", "", "address the parent should dial back (default: the bound -listen address)")
	)
	flag.Parse()
	opts := options{
		budget: *budget, nodesArg: *nodesArg, name: *name, listen: *listen,
		interval: *interval, ttl: *ttl, floorFrac: *floorFrac, timeout: *timeout,
		retries: *retries, quarAfter: *quarAfter, tier: *tierLevel,
		parent: *parent, fallback: *fallback, advertise: *advertise,
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "powercoord:", err)
		os.Exit(1)
	}
}

type options struct {
	budget    float64
	nodesArg  string
	name      string
	listen    string
	interval  time.Duration
	ttl       time.Duration
	floorFrac float64
	timeout   time.Duration
	retries   int
	quarAfter int
	tier      string
	parent    string
	fallback  float64
	advertise string
}

func run(opts options) error {
	budget, nodesArg, name, listen := opts.budget, opts.nodesArg, opts.name, opts.listen
	interval := opts.interval

	if budget <= 0 {
		return fmt.Errorf("-budget must be positive")
	}
	// Without a parent this tier is a root: its "fallback" is its whole
	// budget, which keeps the floor math identical to the flat room
	// coordinator. Under a parent the budget is a revocable lease, so
	// the default clamp is the guaranteed half.
	if opts.fallback <= 0 {
		opts.fallback = budget
		if opts.parent != "" {
			opts.fallback = budget * 0.5
		}
	}
	reg := &registry{addrs: map[string]string{}}
	if nodesArg != "" {
		for _, item := range strings.Split(nodesArg, ",") {
			parts := strings.SplitN(strings.TrimSpace(item), "=", 2)
			if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
				return fmt.Errorf("node %q: want name=addr", item)
			}
			reg.add(parts[0], parts[1])
		}
	}

	if opts.parent != "" && listen == "" {
		return fmt.Errorf("-parent requires -listen: the parent needs an agent to dial back")
	}

	mreg := metrics.NewRegistry()
	metrics.RegisterBuildInfo(mreg, "powercoord")
	tracer := tracing.New(name, 0)
	fleet := cluster.NewFleet(units.Watts(budget), mreg)
	tcfg := hierarchy.TierConfig{
		Name:            name,
		Level:           opts.tier,
		Budget:          units.Watts(budget),
		StartAtFallback: opts.parent != "",
		Fallback:        units.Watts(opts.fallback),
		FloorFraction:   opts.floorFrac,
		Interval:        interval,
		LeaseTTL:        opts.ttl,
		NodeTimeout:     opts.timeout,
		Retries:         opts.retries,
		QuarantineAfter: opts.quarAfter,
		Metrics:         mreg,
		Tracer:          tracer,
		Fleet:           fleet,
	}

	// The tier is built on the first nonempty membership; later changes
	// swap the child set in place, carrying the grant ledger over.
	var (
		mu       sync.Mutex
		tier     *hierarchy.Tier
		names    []string
		addrList []string
	)
	current := func() (*hierarchy.Tier, []string, []string) {
		mu.Lock()
		defer mu.Unlock()
		return tier, append([]string(nil), names...), append([]string(nil), addrList...)
	}

	if listen != "" {
		l, err := net.Listen("tcp", listen)
		if err != nil {
			return fmt.Errorf("listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc(powerapi.ClusterPrefix+"register", func(w http.ResponseWriter, r *http.Request) {
			msg, ok := readClusterMsg(w, r, powerapi.KindRegister)
			if !ok {
				return
			}
			reg2 := msg.(*powerapi.Register)
			if reg2.Node == "" || reg2.Addr == "" {
				writeClusterErr(w, http.StatusBadRequest, powerapi.CodeInvalid, "register needs node and addr")
				return
			}
			if reg.add(reg2.Node, reg2.Addr) {
				fmt.Printf("powercoord: node %s registered at %s\n", reg2.Node, reg2.Addr)
			}
			writeClusterMsg(w, http.StatusOK, &powerapi.RegisterAck{Accepted: true})
		})
		mux.HandleFunc(powerapi.ClusterPrefix+"heartbeat", func(w http.ResponseWriter, r *http.Request) {
			msg, ok := readClusterMsg(w, r, powerapi.KindHeartbeat)
			if !ok {
				return
			}
			hb := msg.(*powerapi.Heartbeat)
			writeClusterMsg(w, http.StatusOK, &powerapi.HeartbeatAck{Known: reg.known(hb.Node)})
		})
		mux.HandleFunc(powerapi.ClusterPrefix+"status", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet {
				w.Header().Set("Allow", http.MethodGet)
				writeClusterErr(w, http.StatusMethodNotAllowed, powerapi.CodeBadRequest, "status requires GET")
				return
			}
			t, ns, as := current()
			writeRoomStatus(w, units.Watts(budget), t, ns, as)
		})
		mux.HandleFunc(powerapi.PathPrefix, func(w http.ResponseWriter, r *http.Request) {
			// The uplink: this tier served as one node, for a -parent
			// powercoord (or anything speaking the node protocol).
			t, _, _ := current()
			if t == nil {
				http.Error(w, "tier not assembled yet: no children", http.StatusServiceUnavailable)
				return
			}
			t.Agent().Handler().ServeHTTP(w, r)
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet && r.Method != http.MethodHead {
				w.Header().Set("Allow", http.MethodGet)
				http.Error(w, "GET required", http.StatusMethodNotAllowed)
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = mreg.WritePrometheus(w)
		})
		mux.HandleFunc("/debug/rounds", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet {
				w.Header().Set("Allow", http.MethodGet)
				http.Error(w, "GET required", http.StatusMethodNotAllowed)
				return
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_ = tracer.Log().Write(w)
		})
		mux.HandleFunc("/debug/fleet", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet {
				w.Header().Set("Allow", http.MethodGet)
				http.Error(w, "GET required", http.StatusMethodNotAllowed)
				return
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(fleet.Snapshot())
		})
		hsrv := &http.Server{Handler: mux}
		go func() { _ = hsrv.Serve(l) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = hsrv.Shutdown(ctx)
		}()
		fmt.Printf("powercoord: serving http://%s (/metrics, /debug/fleet, /debug/rounds, %sstatus, uplink %s)\n",
			l.Addr(), powerapi.ClusterPrefix, powerapi.PathPrefix)

		if opts.parent != "" {
			adv := opts.advertise
			if adv == "" {
				adv = l.Addr().String()
			}
			pc := powerapi.NewCoordClient(opts.parent)
			go func() {
				// Heartbeat the parent every interval; (re)register
				// whenever it does not know us — covering both first
				// contact and a parent restart.
				for {
					hctx, hcancel := context.WithTimeout(context.Background(), opts.timeout)
					ack, err := pc.Heartbeat(hctx, name)
					hcancel()
					if err != nil || !ack.Known {
						rctx, rcancel := context.WithTimeout(context.Background(), opts.timeout)
						if _, rerr := pc.Register(rctx, name, adv); rerr != nil {
							fmt.Fprintln(os.Stderr, "powercoord: register with parent:", rerr)
						} else {
							fmt.Printf("powercoord: registered %s tier %q with parent %s\n", opts.tier, name, opts.parent)
						}
						rcancel()
					}
					time.Sleep(interval)
				}
			}()
		}
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	fmt.Printf("powercoord: %v budget, %v interval\n", units.Watts(budget), interval)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		ns, addrs, changed := reg.snapshot(true)
		t, _, _ := current()
		if len(ns) == 0 {
			fmt.Println("powercoord: no nodes yet; waiting for registrations")
		} else if changed || t == nil {
			ts := make([]cluster.Transport, len(ns))
			for i := range ns {
				ts[i] = cluster.NewHTTPNode(ns[i], addrs[i], name).CollectMetrics()
			}
			if t == nil {
				nt, err := hierarchy.NewTier(tcfg, ts)
				if err != nil {
					return err
				}
				mu.Lock()
				tier, names, addrList = nt, ns, addrs
				mu.Unlock()
			} else if err := t.SetChildren(ts); err != nil {
				fmt.Fprintln(os.Stderr, "powercoord: membership change:", err)
			} else {
				mu.Lock()
				names, addrList = ns, addrs
				mu.Unlock()
			}
			fmt.Printf("powercoord: coordinating %d node(s): %s\n", len(ns), strings.Join(ns, ", "))
		}
		if t, _, _ = current(); t != nil {
			ctx, cancel := context.WithTimeout(context.Background(), interval)
			err := t.Step(ctx)
			cancel()
			if err != nil {
				fmt.Fprintln(os.Stderr, "powercoord: step:", err)
			}
		}
		select {
		case sig := <-stop:
			fmt.Printf("powercoord: %v, shutting down (leases will expire on their own)\n", sig)
			if t != nil {
				t.Close()
			}
			return nil
		case <-ticker.C:
		}
	}
}

// RoomStatus is the /v1/cluster/status payload. BudgetWatts is the
// budget the tier currently holds — under a parent it moves with the
// leases the parent grants.
type RoomStatus struct {
	BudgetWatts     float64    `json:"budget_watts"`
	TotalPowerWatts float64    `json:"total_power_watts"`
	Reallocations   int        `json:"reallocations"`
	Nodes           []RoomNode `json:"nodes"`

	// Subtree rollups for stacked tiers.
	Tier     string `json:"tier,omitempty"`
	Children int    `json:"children,omitempty"`
	Leaves   int    `json:"leaves,omitempty"`
	Depth    int    `json:"depth,omitempty"`
}

// RoomNode is one node's row in a RoomStatus. Addr lets clients walk
// the hierarchy: a child that is itself a tier serves its own cluster
// status there (powerctl tree recurses on it).
type RoomNode struct {
	Name        string  `json:"name"`
	Addr        string  `json:"addr,omitempty"`
	LimitWatts  float64 `json:"limit_watts"`
	Quarantined bool    `json:"quarantined,omitempty"`
}

func writeRoomStatus(w http.ResponseWriter, budget units.Watts, t *hierarchy.Tier, names, addrs []string) {
	st := RoomStatus{BudgetWatts: float64(budget), Nodes: []RoomNode{}}
	if t != nil {
		c := t.Coordinator()
		st.BudgetWatts = float64(c.Budget())
		st.TotalPowerWatts = float64(c.TotalPower())
		st.Reallocations = c.Reallocations()
		agg := c.Aggregate()
		st.Tier = t.Level()
		st.Children = agg.Children
		st.Leaves = agg.Leaves
		st.Depth = agg.Depth
		limits := c.Limits()
		for i, n := range names {
			rn := RoomNode{
				Name:        n,
				LimitWatts:  float64(limits[i]),
				Quarantined: c.Quarantined(i),
			}
			if i < len(addrs) {
				rn.Addr = addrs[i]
			}
			st.Nodes = append(st.Nodes, rn)
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

// writeClusterMsg, writeClusterErr, and readClusterMsg mirror the node
// agent's envelope plumbing for the coordinator's endpoints.
func writeClusterMsg(w http.ResponseWriter, status int, msg any) {
	data, err := powerapi.Marshal(msg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", powerapi.ContentType)
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

func writeClusterErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeClusterMsg(w, status, &powerapi.ErrorReply{Code: code, Message: fmt.Sprintf(format, args...)})
}

func readClusterMsg(w http.ResponseWriter, r *http.Request, want string) (any, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeClusterErr(w, http.StatusMethodNotAllowed, powerapi.CodeBadRequest, "%s requires POST", r.URL.Path)
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeClusterErr(w, http.StatusBadRequest, powerapi.CodeBadRequest, "reading body: %v", err)
		return nil, false
	}
	msg, err := powerapi.UnmarshalAs(data, want)
	if err != nil {
		writeClusterErr(w, http.StatusBadRequest, powerapi.CodeBadRequest, "%v", err)
		return nil, false
	}
	return msg, true
}
