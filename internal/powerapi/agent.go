package powerapi

import (
	"context"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/flight"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/opconfig"
	"repro/internal/tracing"
	"repro/internal/units"
)

// maxBody bounds request bodies; control-plane messages are tiny.
const maxBody = 1 << 20

// Backend is what an Agent fronts on the control plane: a leaf
// power-delivery daemon, or — in the datacenter hierarchy — a mid-tier
// coordinator presenting its whole subtree as one synthetic node.
type Backend interface {
	// FillStatus populates the backend-derived fields of a status frame:
	// policy, limit, power, max, iterations, apps, energy, tier. The
	// agent fills Node and the lease fields itself.
	FillStatus(st *NodeStatus)

	// SetLimit applies a power cap: a granted lease's limit, or the
	// fallback cap on expiry/drain. A mid-tier backend cascades the
	// budget to its children and, for a shrink, must not return success
	// until the caps it still holds fit under the new limit — that is
	// what makes Σ granted ≤ budget recursive. ctx carries the
	// coordinator round ID for cascade tracing; lease expiry and drain
	// pass a background context.
	SetLimit(ctx context.Context, limit units.Watts) error
}

// FallbackEnforcer is implemented by backends that enforce an expiry
// or drain fallback differently from a granted cap. A lease grant may
// be refused; an expiry cannot — the budget is already gone one level
// up. A mid-tier backend therefore clamps its cascaded budget
// unconditionally: reachable children shrink in the same call, and
// unreachable ones hold their old caps only until their own leases
// lapse, which is what bounds the fallback cascade to one extra TTL
// per tier. Leaf backends enforce a cap directly and don't need this.
type FallbackEnforcer interface {
	EnforceFallback(ctx context.Context, limit units.Watts)
}

// Reconfigurer is implemented by backends whose configuration can be
// changed live through the control plane (leaf daemons). policyName is
// the operator-facing policy name currently in force; the returned name
// replaces it.
type Reconfigurer interface {
	Reconfigure(rc *Reconfigure, policyName string) (*ReconfigureAck, string, error)
}

// PhaseReporter is implemented by backends that expose the phase
// breakdown of their last control interval for round tracing.
type PhaseReporter interface {
	LastPhases() daemon.PhaseLatencies
}

// AgentConfig configures a node-side control-plane agent.
type AgentConfig struct {
	// Name identifies this node to coordinators and operators.
	Name string

	// NodeID is stamped into the Core field of the agent's flight events,
	// so a room-wide recorder can tell nodes apart. -1 when unset.
	NodeID int16

	// Daemon is the running power-delivery daemon the agent fronts.
	// Exactly one of Daemon and Backend must be set; a Daemon is wrapped
	// in the standard leaf backend.
	Daemon *daemon.Daemon

	// Backend fronts something other than a local daemon — a mid-tier
	// coordinator in the room→row→building hierarchy.
	Backend Backend

	// Fallback is the safe cap the node reverts to when its lease expires
	// without renewal. Defaults to the daemon's limit at agent creation,
	// so an agent that never hears from a coordinator keeps enforcing its
	// configured limit.
	Fallback units.Watts

	// PolicyName is the operator-facing policy name currently running
	// (e.g. "frequency", "priority-shares") — the vocabulary
	// opconfig.PolicyFor accepts. Policies report display names like
	// "frequency-shares", so the agent tracks the config-facing name
	// itself to rebuild policies on live reconfiguration.
	PolicyName string

	// Metrics optionally counts control-plane traffic and lease events.
	Metrics *metrics.Registry

	// Flight optionally records every lease transition and
	// reconfiguration for post-hoc analysis; a room-wide recorder can be
	// shared across agents (NodeID tells events apart).
	Flight *flight.Recorder

	// Tracer, when set, records the node-side span tree of every
	// coordinator round that touches this agent (receive plus the
	// daemon's last sample→decide→actuate phase breakdown, linked to
	// the flight-recorder interval), for the /debug/rounds endpoint and
	// powerdump's merged cross-node timeline.
	Tracer *tracing.Tracer

	// Ledger, when set, piggybacks the node's energy-ledger summary on
	// every status reply, so fleet coordinators get per-app joules,
	// cost/carbon, and anomaly counts from the poll they already make.
	Ledger *ledger.Ledger

	// Clock sets the lease timer and stamps the lease deadline. Nil is the
	// wall clock.
	Clock clock.Clock
}

// Agent serves the node side of the control plane: it holds the lease
// state machine and translates wire messages into backend calls. Mount
// Handler() under PathPrefix on the node's observability server.
type Agent struct {
	cfg     AgentConfig
	backend Backend

	// applyMu serialises every operation that changes the enforced cap —
	// grant, expiry, drain — across its decide-and-apply window, so a
	// drain's fallback can never be overwritten by a grant that passed
	// its drain check first, and an expiry's fallback can never land on
	// top of a newer lease's cap. Always acquired before mu and held
	// across the backend call; status paths never take it, so a slow
	// cascaded SetLimit blocks other cap changes but not reads.
	applyMu sync.Mutex

	mu         sync.Mutex
	policyName string
	fallback   units.Watts
	draining   bool

	// Lease state. One expiry timer is pending while a lease is held, due
	// at timerAt, which may fall before leaseExpires: a renewal leaves it
	// alone, and when it fires early it re-arms for the rest of the lease.
	leaseID      uint64
	leaseCoord   string
	leaseLimit   units.Watts
	leaseTTL     time.Duration
	leaseExpires time.Time
	leaseActive  bool
	timer        clock.Timer // nil when none is pending
	timerAt      time.Time
	expiry       func() // a.expire, bound once

	// powerapi_requests_total by endpoint, resolved once at construction.
	mStatusReq, mLeaseReq, mReconfigReq, mDrainReq *metrics.Counter

	mLease    *metrics.CounterVec // by event: grant, renew, expire, fallback, refuse
	mReconfig *metrics.Counter
	mLeaseW   *metrics.Gauge

	// The follower baseline: the last frame served to a follower, whole,
	// metrics included. There is one for everyone: a follower that names
	// it gets a delta, any other gets the full frame, and either way the
	// frame just served becomes the baseline. Its own mutex, so a diff
	// never holds the lease lock.
	frameMu    sync.Mutex
	frameEpoch uint64 // this incarnation, fixed at construction
	frameRev   uint64
	frameBase  *NodeStatus
}

// NewAgent validates the configuration and builds an agent.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("powerapi: agent needs a node name")
	}
	var be Backend
	switch {
	case cfg.Daemon != nil && cfg.Backend != nil:
		return nil, fmt.Errorf("powerapi: agent wants a daemon or a backend, not both")
	case cfg.Daemon != nil:
		if cfg.PolicyName != "" {
			if _, err := opconfig.PolicyFor(cfg.PolicyName, cfg.Daemon.Chip(), cfg.Daemon.Apps(),
				cfg.Daemon.Limit(), cfg.Daemon.SLOTargets()...); err != nil {
				return nil, fmt.Errorf("powerapi: agent policy name: %w", err)
			}
		}
		be = daemonBackend{d: cfg.Daemon, ledger: cfg.Ledger}
	case cfg.Backend != nil:
		be = cfg.Backend
	default:
		return nil, fmt.Errorf("powerapi: agent needs a daemon or a backend")
	}
	if cfg.Fallback < 0 {
		return nil, fmt.Errorf("powerapi: negative fallback cap %v", cfg.Fallback)
	}
	if cfg.Fallback == 0 {
		// Default to whatever limit the backend is enforcing right now,
		// so an agent that never hears from a coordinator keeps it.
		var st NodeStatus
		be.FillStatus(&st)
		cfg.Fallback = units.Watts(st.LimitWatts)
	}
	if cfg.NodeID == 0 {
		cfg.NodeID = -1
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	a := &Agent{
		cfg:        cfg,
		backend:    be,
		policyName: cfg.PolicyName,
		fallback:   cfg.Fallback,
		// The host clock at construction distinguishes agent incarnations,
		// so a follower that was tracking a restarted agent names an epoch
		// this one never served. A virtual clock would repeat one.
		frameEpoch: uint64(time.Now().UnixNano()),
	}
	a.expiry = a.expire
	if reg := cfg.Metrics; reg != nil {
		requests := reg.CounterVec("powerapi_requests_total", "Control-plane requests served, by endpoint.", "endpoint")
		a.mStatusReq, a.mLeaseReq = requests.With("status"), requests.With("lease")
		a.mReconfigReq, a.mDrainReq = requests.With("reconfigure"), requests.With("drain")
		a.mLease = reg.CounterVec("powerapi_lease_events_total", "Lease state-machine transitions, by event.", "event")
		a.mReconfig = reg.Counter("powerapi_reconfigures_total", "Live reconfigurations applied through the control plane.")
		a.mLeaseW = reg.Gauge("powerapi_lease_limit_watts", "Power cap of the currently-held lease (0 when none).")
	}
	return a, nil
}

// Name reports the node name the agent identifies itself with.
func (a *Agent) Name() string { return a.cfg.Name }

// record emits one lease/reconfigure flight event stamped with the node id.
func (a *Agent) record(kind flight.Kind, arg uint32, value, aux uint64) {
	a.cfg.Flight.Record(flight.Event{
		Kind: kind, Source: flight.SourceControl, Core: a.cfg.NodeID,
		Arg: arg, Value: value, Aux: aux,
	})
}

func microwatts(w units.Watts) uint64 {
	if w <= 0 {
		return 0
	}
	return uint64(float64(w) * 1e6)
}

// Handler returns the agent's HTTP handler. Mount it under PathPrefix.
func (a *Agent) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathPrefix+"status", a.serveStatus)
	mux.HandleFunc(PathPrefix+"lease", a.serveLease)
	mux.HandleFunc(PathPrefix+"reconfigure", a.serveReconfigure)
	mux.HandleFunc(PathPrefix+"drain", a.serveDrain)
	return mux
}

// writeMsg frames msg in an envelope and writes it with the protocol
// media type.
func writeMsg(w http.ResponseWriter, status int, msg any) {
	writeMsgRound(w, status, msg, 0)
}

// writeMsgRound is writeMsg echoing the control-round ID the request
// carried, so both directions of a round's traffic join on it.
func writeMsgRound(w http.ResponseWriter, status int, msg any, round uint64) {
	data, err := MarshalRound(msg, round)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// writeErr writes a structured protocol error.
func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeMsg(w, status, &ErrorReply{Code: code, Message: fmt.Sprintf(format, args...)})
}

// readMsg decodes a request body expecting one message kind, enforcing
// method, media type, and size. It also returns the control-round ID
// the envelope carried, zero if none.
func readMsg(w http.ResponseWriter, r *http.Request, want string) (any, uint64, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErr(w, http.StatusMethodNotAllowed, CodeBadRequest, "%s requires POST", r.URL.Path)
		return nil, 0, false
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || mt != ContentType {
			writeErr(w, http.StatusUnsupportedMediaType, CodeBadRequest, "content type %q, want %s", ct, ContentType)
			return nil, 0, false
		}
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "reading body: %v", err)
		return nil, 0, false
	}
	if len(data) > maxBody {
		writeErr(w, http.StatusRequestEntityTooLarge, CodeBadRequest, "body over %d bytes", maxBody)
		return nil, 0, false
	}
	env, msg, err := UnmarshalEnvelope(data)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return nil, 0, false
	}
	if env.Kind == KindError {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", msg.(*ErrorReply))
		return nil, 0, false
	}
	if env.Kind != want {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "got %s, want %s", env.Kind, want)
		return nil, 0, false
	}
	return msg, env.Round, true
}

// daemonBackend is the standard leaf backend: a local power-delivery
// daemon, optionally paired with its energy ledger.
type daemonBackend struct {
	d      *daemon.Daemon
	ledger *ledger.Ledger
}

// FillStatus snapshots the daemon's control-plane state. The daemon
// fields come from one StatusView — a single lock acquisition on the
// control loop — so the reported policy, limit, apps, and snapshot
// always belong to the same interval even while a reconfiguration is
// applied.
func (b daemonBackend) FillStatus(st *NodeStatus) {
	view := b.d.StatusView()
	st.Policy = view.Policy
	st.LimitWatts = float64(view.Limit)
	st.PowerWatts = float64(view.Snapshot.PackagePower)
	st.MaxWatts = float64(b.d.Chip().RAPLMax)
	st.Iterations = view.Iterations
	coreWatts := make(map[int]float64, len(view.Snapshot.Apps))
	for _, as := range view.Snapshot.Apps {
		coreWatts[as.Spec.Core] = float64(as.Power)
	}
	for _, s := range view.Apps {
		as := AppShare{Name: s.Name, Core: s.Core, Shares: int(s.Shares), Watts: coreWatts[s.Core]}
		if s.HighPriority {
			as.Priority = "hp"
		} else {
			as.Priority = "lp"
		}
		st.Apps = append(st.Apps, as)
	}
	if b.ledger != nil {
		st.Energy = energyStatus(b.ledger)
	}
	if len(view.Snapshot.Services) > 0 {
		st.SLO = sloStatus(view.Snapshot.Services)
	}
}

// sloStatus converts a snapshot's service telemetry into its wire form.
func sloStatus(svcs []core.ServiceSLO) *SLOStatus {
	ss := &SLOStatus{Services: make([]ServiceSLOStatus, len(svcs))}
	for i, s := range svcs {
		ss.Services[i] = ServiceSLOStatus{
			Name:     s.Name,
			P50MS:    s.P50 * 1e3,
			P90MS:    s.P90 * 1e3,
			P99MS:    s.P99 * 1e3,
			TargetMS: s.Target * 1e3,
			Rate:     s.Rate,
			QueueLen: s.QueueLen,
			Dropped:  s.Dropped,
			Timeouts: s.Timeouts,
			Met:      s.Met(),
		}
	}
	return ss
}

func (b daemonBackend) SetLimit(_ context.Context, limit units.Watts) error {
	return b.d.SetLimit(limit)
}

func (b daemonBackend) LastPhases() daemon.PhaseLatencies {
	return b.d.LastPhases()
}

// Status snapshots the node's control-plane state into a fresh frame:
// the backend view plus the agent's own lease state.
func (a *Agent) Status() *NodeStatus {
	st := new(NodeStatus)
	a.StatusInto(st, new(LeaseInfo))
	return st
}

// StatusInto is Status into a frame the caller owns: it overwrites *st
// whole and, while a lease is held, fills *lease and points st.Lease at it.
// What the backend hangs off the frame is fresh on every fill.
func (a *Agent) StatusInto(st *NodeStatus, lease *LeaseInfo) {
	*st = NodeStatus{Node: a.cfg.Name}
	a.backend.FillStatus(st)
	a.mu.Lock()
	st.FallbackWatts = float64(a.fallback)
	st.Draining = a.draining
	if a.leaseActive {
		rem := max(a.cfg.Clock.Until(a.leaseExpires), 0)
		*lease = LeaseInfo{
			ID:          a.leaseID,
			Coordinator: a.leaseCoord,
			LimitWatts:  float64(a.leaseLimit),
			TTLMS:       a.leaseTTL.Milliseconds(),
			RemainingMS: rem.Milliseconds(),
		}
		st.Lease = lease
	}
	a.mu.Unlock()
}

// energyStatus converts a ledger summary into its wire form.
func energyStatus(l *ledger.Ledger) *EnergyStatus {
	s := l.Summarize()
	es := &EnergyStatus{
		ElapsedSeconds:  s.ElapsedSeconds,
		Intervals:       s.Intervals,
		OverIntervals:   s.OverIntervals,
		TotalUJ:         s.TotalUJ,
		UnattributedUJ:  s.UnattributedUJ,
		ExcludedUJ:      s.ExcludedUJ,
		OvershootUJ:     s.OvershootUJ,
		TotalJoules:     s.TotalJoules,
		OvershootJoules: s.OvershootJoules,
		CostUSD:         s.CostUSD,
		CarbonGrams:     s.CarbonGrams,
		Anomalies:       s.Anomalies,
	}
	for _, a := range s.Apps {
		es.Apps = append(es.Apps, AppEnergy{
			Name:       a.Name,
			Core:       a.Core,
			TotalUJ:    a.TotalUJ,
			Joules:     a.Joules,
			EnergyFrac: a.EnergyFrac,
			ShareFrac:  a.ShareFrac,
		})
	}
	return es
}

// traceRound records this agent's span tree for one coordinator round:
// the request handling span plus the daemon's last completed
// sample→decide→actuate breakdown, anchored after it and linked to the
// flight-recorder interval id. No-op without a tracer or outside a
// round.
func (a *Agent) traceRound(round uint64, name string, start time.Duration) {
	tr := a.cfg.Tracer
	if tr == nil || round == 0 {
		return
	}
	b := tr.Begin(round)
	// Begin stamps Start at "now"; rewind it to when handling began.
	b.SetStart(start)
	end := tr.Now()
	b.Span(name, "", start, end, nil)
	if pr, ok := a.backend.(PhaseReporter); ok {
		if ph := pr.LastPhases(); ph.Interval != 0 {
			b.SetInterval(ph.Interval)
			// The phases ran asynchronously inside the control loop; they
			// are laid out back-to-back after the handling span so the
			// merged timeline shows the pipeline the round observed.
			t := end
			b.Span("sample", "", t, t+ph.Sample, nil)
			t += ph.Sample
			b.Span("decide", "", t, t+ph.Decide, nil)
			t += ph.Decide
			b.Span("actuate", "", t, t+ph.Actuate, nil)
		}
	}
	b.End()
}

// statusQuery is what a status request asks: each parameter's first value.
type statusQuery struct {
	metrics, follow, round string
	hasFollow              bool
}

// parseStatusQuery reads a status request's parameters as url.ParseQuery
// would, without building its map: a query with nothing escaped and no ';'
// (every query a Client sends) is scanned in place, any other is handed to
// url.ParseQuery.
func parseStatusQuery(raw string) (q statusQuery) {
	if strings.ContainsAny(raw, "%+;") {
		v, _ := url.ParseQuery(raw)
		q.metrics, q.round = v.Get("metrics"), v.Get("round")
		q.follow, q.hasFollow = v.Get("follow"), v.Has("follow")
		return q
	}
	var hasMetrics, hasRound bool
	for raw != "" {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		k, v, _ := strings.Cut(kv, "=")
		switch {
		case k == "metrics" && !hasMetrics:
			q.metrics, hasMetrics = v, true
		case k == "follow" && !q.hasFollow:
			q.follow, q.hasFollow = v, true
		case k == "round" && !hasRound:
			q.round, hasRound = v, true
		}
	}
	return q
}

func (a *Agent) serveStatus(w http.ResponseWriter, r *http.Request) {
	a.mStatusReq.Inc()
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeErr(w, http.StatusMethodNotAllowed, CodeBadRequest, "status requires GET")
		return
	}
	q := parseStatusQuery(r.URL.RawQuery)
	if q.metrics != "" && q.metrics != "1" {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "metrics=%q, want 1 or unset", q.metrics)
		return
	}
	var epoch, rev uint64
	if q.hasFollow {
		e, v, _ := strings.Cut(q.follow, ".")
		var errE, errV error
		epoch, errE = strconv.ParseUint(e, 10, 64)
		rev, errV = strconv.ParseUint(v, 10, 64)
		if errE != nil || errV != nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, "follow=%q, want <epoch>.<rev>", q.follow)
			return
		}
	}
	// Body-less requests carry their round ID as a query parameter.
	round, _ := strconv.ParseUint(q.round, 10, 64)
	start := a.cfg.Tracer.Now()
	st := a.Status()
	if q.metrics != "" {
		st.Metrics = a.cfg.Metrics.Values()
	}
	if q.hasFollow {
		st = a.frame(st, epoch, rev)
	}
	a.traceRound(round, "receive", start)
	// The hot reply: encoded into one pooled buffer and written once.
	buf := bufPool.Get().(*[]byte)
	defer bufPool.Put(buf)
	data, ok := appendStatus((*buf)[:0], st, round)
	if !ok {
		writeMsgRound(w, http.StatusOK, st, round)
		return
	}
	*buf = append(data, '\n')
	w.Header()["Content-Type"] = jsonHeader
	w.WriteHeader(http.StatusOK)
	w.Write(*buf)
}

// frame makes st the next frame of the agent's chain and encodes it for
// a follower that holds frame epoch.rev: a delta when that is exactly
// the baseline, the full frame otherwise — which is all of resync, so
// neither a lost reply nor a second follower needs another request. st
// becomes the baseline and must not be modified afterwards.
func (a *Agent) frame(st *NodeStatus, epoch, rev uint64) *NodeStatus {
	a.frameMu.Lock()
	defer a.frameMu.Unlock()
	base := a.frameBase
	a.frameRev++
	st.Epoch, st.Rev = a.frameEpoch, a.frameRev
	a.frameBase = st
	if base == nil || epoch != base.Epoch || rev != base.Rev {
		return st
	}
	return diffStatus(base, st)
}

// GrantCtx applies a budget lease: enforce the granted cap now, fall back
// to the grant's fallback cap if no renewal arrives within the TTL. ctx is
// threaded into the backend's SetLimit: a round-stamped context lets a
// mid-tier backend record its cascaded child grants under the parent's
// round ID, which is what joins the cross-tier merged timeline.
func (a *Agent) GrantCtx(ctx context.Context, g *LeaseGrant) (LeaseAck, error) {
	limit := units.Watts(g.LimitWatts)
	ttl := time.Duration(g.TTLMS) * time.Millisecond

	a.applyMu.Lock()
	defer a.applyMu.Unlock()
	a.mu.Lock()
	draining, renewal, held := a.draining, a.leaseActive, a.leaseID
	a.mu.Unlock()
	switch {
	case draining:
		return a.refuse(g, "draining", CodeDraining, fmt.Sprintf("node %s is draining", a.cfg.Name))
	case limit <= 0 || ttl <= 0:
		return a.refuse(g, "invalid grant", CodeInvalid, fmt.Sprintf("grant limit %v ttl %v", limit, ttl))
	case renewal && g.ID < held:
		return a.refuse(g, "stale lease id", CodeStaleLease, fmt.Sprintf("grant %d older than held lease %d", g.ID, held))
	}
	// The cap is applied outside the lease lock: a mid-tier backend's
	// SetLimit cascades a shrink wave to its children, which may take a
	// child round-trip.
	if err := a.backend.SetLimit(ctx, limit); err != nil {
		return a.refuse(g, err.Error(), CodeInvalid, err.Error())
	}
	a.mu.Lock()
	a.leaseActive = true
	a.leaseID = g.ID
	a.leaseCoord = g.Coordinator
	a.leaseLimit = limit
	a.leaseTTL = ttl
	a.leaseExpires = a.cfg.Clock.Now().Add(ttl)
	if g.FallbackWatts > 0 {
		a.fallback = units.Watts(g.FallbackWatts)
	}
	// A pending timer due by the new deadline stays: it re-arms when it
	// fires. One due after it would expire the lease late, so it goes.
	if a.timer == nil || a.leaseExpires.Before(a.timerAt) {
		a.stopTimer()
		a.timer, a.timerAt = a.cfg.Clock.AfterFunc(ttl, a.expiry), a.leaseExpires
	}
	a.mu.Unlock()
	event, code := "grant", flight.LeaseGrant
	if renewal {
		event, code = "renew", flight.LeaseRenew
	}
	a.mLease.With(event).Inc()
	a.mLeaseW.Set(float64(limit))
	a.record(flight.KindLease, code, microwatts(limit), uint64(ttl))
	return LeaseAck{ID: g.ID, Applied: true, LimitWatts: float64(limit)}, nil
}

// refuse answers a grant the agent does not apply. A refused grant changes
// nothing the agent holds: the lease, its timer and its fallback stay those
// of the last grant applied, which is what the coordinator's ledger still
// assumes. The caller holds applyMu, which every change to them takes.
func (a *Agent) refuse(g *LeaseGrant, reason, code, msg string) (LeaseAck, error) {
	a.mLease.With("refuse").Inc()
	a.record(flight.KindLease, flight.LeaseRefuse, microwatts(units.Watts(g.LimitWatts)), 0)
	return LeaseAck{ID: g.ID, Reason: reason}, &ErrorReply{Code: code, Message: msg}
}

// stopTimer stops the pending expiry timer, if any. Caller holds mu.
func (a *Agent) stopTimer() {
	if a.timer != nil {
		a.timer.Stop()
		a.timer = nil
	}
}

// expire runs when the expiry timer fires. Before the lease's deadline it
// re-arms for the rest; at it, the node reverts to its fallback cap on its
// own, so a partition cannot leave it holding an oversized share of the
// room budget. A timer stopped too late to keep it from firing finds
// another pending, or none, and does nothing.
func (a *Agent) expire() {
	a.applyMu.Lock()
	defer a.applyMu.Unlock()
	a.mu.Lock()
	now := a.cfg.Clock.Now()
	if a.timer == nil || now.Before(a.timerAt) {
		a.mu.Unlock()
		return
	}
	a.timer = nil
	if now.Before(a.leaseExpires) {
		a.timer, a.timerAt = a.cfg.Clock.AfterFunc(a.leaseExpires.Sub(now), a.expiry), a.leaseExpires
		a.mu.Unlock()
		return
	}
	old := a.leaseLimit
	fallback := a.fallback
	a.leaseActive = false
	a.mu.Unlock()

	a.mLease.With("expire").Inc()
	a.mLeaseW.Set(0)
	a.record(flight.KindLease, flight.LeaseExpire, microwatts(old), microwatts(old))
	if fe, ok := a.backend.(FallbackEnforcer); ok {
		fe.EnforceFallback(context.Background(), fallback)
	} else if err := a.backend.SetLimit(context.Background(), fallback); err != nil {
		// The old cap stays enforced: safe, just not the fallback.
		return
	}
	a.mLease.With("fallback").Inc()
	a.record(flight.KindLease, flight.LeaseFallback, microwatts(fallback), microwatts(old))
}

func (a *Agent) serveLease(w http.ResponseWriter, r *http.Request) {
	a.mLeaseReq.Inc()
	msg, round, ok := readMsg(w, r, KindLeaseGrant)
	if !ok {
		return
	}
	start := a.cfg.Tracer.Now()
	ctx := r.Context()
	if round != 0 {
		ctx = WithRound(ctx, round)
	}
	ack, err := a.GrantCtx(ctx, msg.(*LeaseGrant))
	a.traceRound(round, "grant", start)
	if err != nil {
		status := http.StatusConflict
		if e, k := err.(*ErrorReply); k && e.Code == CodeInvalid {
			status = http.StatusBadRequest
		}
		writeMsgRound(w, status, err.(*ErrorReply), round)
		return
	}
	writeMsgRound(w, http.StatusOK, &ack, round)
}

// ApplyReconfigure hands a wire reconfiguration to the backend when it
// supports live reconfiguration (leaf daemons do; tiers don't).
func (a *Agent) ApplyReconfigure(rc *Reconfigure) (*ReconfigureAck, error) {
	rb, ok := a.backend.(Reconfigurer)
	if !ok {
		return nil, &ErrorReply{Code: CodeInvalid,
			Message: fmt.Sprintf("node %s does not support live reconfiguration", a.cfg.Name)}
	}
	a.mu.Lock()
	polName := a.policyName
	a.mu.Unlock()
	ack, newName, err := rb.Reconfigure(rc, polName)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.policyName = newName
	a.mu.Unlock()
	a.mReconfig.Inc()
	return ack, nil
}

// Reconfigure translates a wire reconfiguration into a daemon
// Reconfigure: share/priority overrides are resolved against the current
// app set by name, and the policy is rebuilt through the same factory the
// config loader uses, so live changes face construction-grade validation.
func (b daemonBackend) Reconfigure(rc *Reconfigure, polName string) (*ReconfigureAck, string, error) {
	d := b.d

	if rc.Policy != "" {
		polName = rc.Policy
	}
	if polName == "" {
		return nil, "", &ErrorReply{Code: CodeInvalid,
			Message: "agent has no operator policy name; set one at startup to allow policy rebuilds"}
	}

	limit := d.Limit()
	if rc.LimitWatts != 0 {
		if rc.LimitWatts < 0 {
			return nil, "", &ErrorReply{Code: CodeInvalid, Message: fmt.Sprintf("limit %v W", rc.LimitWatts)}
		}
		limit = units.Watts(rc.LimitWatts)
	}

	specsChanged := len(rc.Shares) > 0 || len(rc.Priorities) > 0
	specs := d.Apps()
	if specsChanged {
		byName := make(map[string]int, len(specs))
		for i, s := range specs {
			byName[s.Name] = i
		}
		for name, shares := range rc.Shares {
			i, ok := byName[name]
			if !ok {
				return nil, "", &ErrorReply{Code: CodeInvalid, Message: fmt.Sprintf("no app %q", name)}
			}
			if shares <= 0 {
				return nil, "", &ErrorReply{Code: CodeInvalid, Message: fmt.Sprintf("app %q shares %d", name, shares)}
			}
			specs[i].Shares = units.Shares(shares)
		}
		for name, prio := range rc.Priorities {
			i, ok := byName[name]
			if !ok {
				return nil, "", &ErrorReply{Code: CodeInvalid, Message: fmt.Sprintf("no app %q", name)}
			}
			switch prio {
			case "hp", "lp":
				specs[i].HighPriority = prio == "hp"
			default:
				return nil, "", &ErrorReply{Code: CodeInvalid, Message: fmt.Sprintf("app %q priority %q, want hp or lp", name, prio)}
			}
		}
	}

	drc := daemon.Reconfig{}
	if rc.LimitWatts != 0 {
		drc.Limit = limit
	}
	if rc.Policy != "" || specsChanged {
		pol, err := opconfig.PolicyFor(polName, d.Chip(), specs, limit, d.SLOTargets()...)
		if err != nil {
			return nil, "", &ErrorReply{Code: CodeInvalid, Message: err.Error()}
		}
		drc.Policy = pol
		if specsChanged {
			drc.Apps = specs
		}
	}
	if err := d.Reconfigure(drc); err != nil {
		return nil, "", &ErrorReply{Code: CodeInvalid, Message: err.Error()}
	}
	return &ReconfigureAck{Policy: d.PolicyName(), LimitWatts: float64(d.Limit())}, polName, nil
}

func (a *Agent) serveReconfigure(w http.ResponseWriter, r *http.Request) {
	a.mReconfigReq.Inc()
	msg, round, ok := readMsg(w, r, KindReconfigure)
	if !ok {
		return
	}
	ack, err := a.ApplyReconfigure(msg.(*Reconfigure))
	if err != nil {
		writeMsgRound(w, http.StatusBadRequest, err.(*ErrorReply), round)
		return
	}
	writeMsgRound(w, http.StatusOK, ack, round)
}

// SetDrain toggles drain mode. Draining cancels any held lease, drops the
// node to its fallback cap, and refuses new leases until undrained.
func (a *Agent) SetDrain(on bool) (*DrainAck, error) {
	a.applyMu.Lock()
	defer a.applyMu.Unlock()
	a.mu.Lock()
	was := a.draining
	a.draining = on
	hadLease := a.leaseActive
	fallback := a.fallback
	if on {
		a.leaseActive = false
		a.stopTimer()
	}
	a.mu.Unlock()

	if on && !was {
		a.record(flight.KindReconfigure, flight.ReconfigDrain, microwatts(fallback), 1)
		if hadLease {
			a.mLeaseW.Set(0)
		}
		if fe, ok := a.backend.(FallbackEnforcer); ok {
			fe.EnforceFallback(context.Background(), fallback)
		} else if err := a.backend.SetLimit(context.Background(), fallback); err != nil {
			return nil, &ErrorReply{Code: CodeInternal, Message: err.Error()}
		}
	}
	if !on && was {
		a.record(flight.KindReconfigure, flight.ReconfigDrain, microwatts(fallback), 0)
	}
	return &DrainAck{Draining: on}, nil
}

func (a *Agent) serveDrain(w http.ResponseWriter, r *http.Request) {
	a.mDrainReq.Inc()
	msg, round, ok := readMsg(w, r, KindDrain)
	if !ok {
		return
	}
	ack, err := a.SetDrain(msg.(*Drain).On)
	if err != nil {
		writeMsgRound(w, http.StatusInternalServerError, err.(*ErrorReply), round)
		return
	}
	writeMsgRound(w, http.StatusOK, ack, round)
}

// Close stops any pending lease-expiry timer. The agent must not be used
// afterwards.
func (a *Agent) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stopTimer()
}
