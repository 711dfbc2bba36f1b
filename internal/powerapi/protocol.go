// Package powerapi is the wire protocol of the networked power control
// plane: a small, versioned JSON-over-HTTP vocabulary through which a room
// coordinator (cmd/powercoord) leases slices of a power budget to
// per-node power-delivery daemons, and operators (cmd/powerctl) inspect
// and live-reconfigure a running daemon without restarting it.
//
// Every message travels inside an Envelope{v, kind, body}; unknown body
// fields, unknown kinds, and version mismatches are rejected loudly, so
// protocol drift between coordinator and node surfaces as an error
// rather than a silently-misread field. The envelope itself is the
// versioned extension point: decoders tolerate unknown envelope fields,
// so additive envelope metadata (like the round ID below) reaches new
// peers while old ones ignore it. The node side (Agent) mounts under
// /v1/power/ on the daemon's existing observability server; the
// coordinator side mounts under /v1/cluster/.
//
// Status is one exchange with one body: GET status returns a NodeStatus
// carrying lease, apps, energy, SLO, tier and (on request) metrics. A
// poller that names the frame it holds (?follow=<epoch>.<rev>) gets only
// the fields changed since that frame when the agent still has it as
// its baseline, and the whole status otherwise, so there is no separate
// resync request; StatusFollower applies either. A request that names
// nothing is a plain full read.
//
// The budget-safety contract is the lease: every grant carries a TTL and a
// fallback cap, and a node that stops hearing renewals reverts to the
// fallback on its own — so a partitioned node can never hold a stale,
// oversized share of the room budget (the coordinator sizes fallbacks so
// that all nodes at fallback sum to at most the budget).
package powerapi

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Version is the protocol version both sides must speak.
const Version = 1

// PathPrefix is where the node-side Agent mounts its endpoints.
const PathPrefix = "/v1/power/"

// ClusterPrefix is where the coordinator mounts its endpoints.
const ClusterPrefix = "/v1/cluster/"

// ContentType is the media type of every request and response body.
const ContentType = "application/json"

// Envelope frames every message on the wire.
type Envelope struct {
	V    int             `json:"v"`
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body"`

	// Round is the coordinator-assigned control-round ID the message
	// belongs to, zero outside a round. It rides the envelope (not the
	// body) so every message kind carries it without a schema change,
	// and old decoders — which tolerate unknown envelope fields —
	// simply ignore it.
	Round uint64 `json:"round,omitempty"`
}

// Message kinds. The registry below maps each to its body type.
const (
	KindStatus         = "status"
	KindLeaseGrant     = "lease_grant"
	KindLeaseAck       = "lease_ack"
	KindReconfigure    = "reconfigure"
	KindReconfigureAck = "reconfigure_ack"
	KindDrain          = "drain"
	KindDrainAck       = "drain_ack"
	KindRegister       = "register"
	KindRegisterAck    = "register_ack"
	KindHeartbeat      = "heartbeat"
	KindHeartbeatAck   = "heartbeat_ack"
	KindClusterStatus  = "cluster_status"
	KindError          = "error"
)

// NodeStatus reports one daemon's control-plane view: what it enforces,
// what it measures, and the lease it holds, if any. It is also the one
// frame of the status exchange (see StatusFollower).
type NodeStatus struct {
	Node string `json:"node"`

	// Epoch and Rev place the frame in the serving agent's chain: Epoch
	// names the agent incarnation, Rev increments per frame served to a
	// follower. Both are zero on a stateless read. Base is zero on a
	// full frame, which is the whole truth; on a delta it is the
	// revision the frame applies on top of.
	//
	// Every field below is payload under one rule. A field at its zero
	// value (an empty slice or map counts) stays off the wire. In a
	// delta, a field left off is unchanged since Base, unless Clear
	// names it: then it went back to zero.
	Epoch uint64   `json:"epoch,omitempty"`
	Rev   uint64   `json:"rev,omitempty"`
	Base  uint64   `json:"base,omitempty"`
	Clear []string `json:"clear,omitempty"`

	Policy        string  `json:"policy,omitempty"`
	LimitWatts    float64 `json:"limit_watts,omitempty"`
	PowerWatts    float64 `json:"power_watts,omitempty"`
	MaxWatts      float64 `json:"max_watts,omitempty"`
	FallbackWatts float64 `json:"fallback_watts,omitempty"`
	Iterations    int     `json:"iterations,omitempty"`
	Draining      bool    `json:"draining,omitempty"`

	Lease *LeaseInfo `json:"lease,omitempty"`
	Apps  []AppShare `json:"apps,omitempty"`

	// Energy carries the node's energy-ledger summary when the daemon
	// runs one, so the coordinator can roll up fleet-wide joules, cost,
	// and anomalies from the status poll it already makes.
	Energy *EnergyStatus `json:"energy,omitempty"`

	// SLO carries the node's per-service latency/SLO view when the
	// daemon feeds service telemetry, so the coordinator can roll up
	// fleet-wide SLO attainment from the status poll it already makes.
	SLO *SLOStatus `json:"slo,omitempty"`

	// Tier is set when this "node" is a mid-tier coordinator (a row or
	// building) reporting its whole subtree as one synthetic node.
	Tier *TierStatus `json:"tier,omitempty"`

	// Metrics is the node's metrics registry, flattened, sent when the
	// request asks for it (?metrics=1) for fleet aggregation. Unlike
	// the other fields it merges per series: a delta frame carries
	// only the series whose value changed since Base.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// TierStatus rides a NodeStatus when the "node" is really a mid-tier
// coordinator (a row or building) presenting its subtree as one
// synthetic node. It is what lets a parent — and powerctl tree — tell
// a 64-leaf row from a single machine.
type TierStatus struct {
	// Tier is the level label, e.g. "row" or "building".
	Tier string `json:"tier,omitempty"`
	// Children is the number of direct children this tier coordinates.
	Children int `json:"children"`
	// Nodes is the number of leaf nodes in the whole subtree.
	Nodes int `json:"nodes"`
	// Depth is the number of coordinator levels at or below this tier
	// (a row over leaves is 1, a building over rows is 2).
	Depth int `json:"depth"`
	// Quarantined counts direct children currently quarantined.
	Quarantined int `json:"quarantined,omitempty"`
	// BudgetWatts is the budget the tier currently cascades downward —
	// its own granted lease, or its configured budget when standalone.
	BudgetWatts float64 `json:"budget_watts,omitempty"`
}

// SLOStatus is a node's per-service latency and SLO-attainment view.
type SLOStatus struct {
	Services []ServiceSLOStatus `json:"services"`
}

// ServiceSLOStatus is one latency service's tail-latency telemetry over
// its sliding window, plus the p99 objective it is held to (0 when none).
type ServiceSLOStatus struct {
	Name     string  `json:"name"`
	P50MS    float64 `json:"p50_ms"`
	P90MS    float64 `json:"p90_ms"`
	P99MS    float64 `json:"p99_ms"`
	TargetMS float64 `json:"target_ms,omitempty"`
	Rate     float64 `json:"rate"`
	QueueLen int     `json:"queue_len"`
	Dropped  uint64  `json:"dropped,omitempty"`
	Timeouts uint64  `json:"timeouts,omitempty"`
	Met      bool    `json:"met"`
}

// EnergyStatus is a node's cumulative energy-ledger summary. The *UJ
// fields are exact integer microjoules (the ledger's unit of account, so
// cross-node sums and replay checks stay bit-identical); the float fields
// are derived conveniences.
type EnergyStatus struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Intervals      uint64  `json:"intervals"`
	OverIntervals  uint64  `json:"over_intervals"`

	TotalUJ        uint64 `json:"total_uj"`
	UnattributedUJ uint64 `json:"unattributed_uj"`
	ExcludedUJ     uint64 `json:"excluded_uj"`
	OvershootUJ    uint64 `json:"overshoot_uj"`

	TotalJoules     float64 `json:"total_joules"`
	OvershootJoules float64 `json:"overshoot_joules"`
	CostUSD         float64 `json:"cost_usd"`
	CarbonGrams     float64 `json:"carbon_grams"`

	Apps      []AppEnergy       `json:"apps,omitempty"`
	Anomalies map[string]uint64 `json:"anomalies,omitempty"`
}

// AppEnergy is one application's share of a node's attributed energy.
type AppEnergy struct {
	Name       string  `json:"name"`
	Core       int     `json:"core"`
	TotalUJ    uint64  `json:"total_uj"`
	Joules     float64 `json:"joules"`
	EnergyFrac float64 `json:"energy_frac"`
	ShareFrac  float64 `json:"share_frac"`
}

// LeaseInfo describes the lease a node currently holds.
type LeaseInfo struct {
	ID          uint64  `json:"id"`
	Coordinator string  `json:"coordinator,omitempty"`
	LimitWatts  float64 `json:"limit_watts"`
	TTLMS       int64   `json:"ttl_ms"`
	RemainingMS int64   `json:"remaining_ms"`
}

// AppShare is one managed application as the control plane sees it.
type AppShare struct {
	Name     string `json:"name"`
	Core     int    `json:"core"`
	Shares   int    `json:"shares,omitempty"`
	Priority string `json:"priority,omitempty"`
	// Watts is the application's observed core power at the node's
	// last control interval — the input to fleet per-app rollups.
	Watts float64 `json:"watts,omitempty"`
}

// LeaseGrant leases part of the room budget to a node: enforce Limit now,
// revert to Fallback if no renewal arrives within TTL.
type LeaseGrant struct {
	ID            uint64  `json:"id"`
	Coordinator   string  `json:"coordinator,omitempty"`
	LimitWatts    float64 `json:"limit_watts"`
	TTLMS         int64   `json:"ttl_ms"`
	FallbackWatts float64 `json:"fallback_watts,omitempty"`
}

// LeaseAck is the node's answer to a grant.
type LeaseAck struct {
	ID         uint64  `json:"id"`
	Applied    bool    `json:"applied"`
	LimitWatts float64 `json:"limit_watts"`
	Reason     string  `json:"reason,omitempty"`
}

// Reconfigure asks a running daemon to change policy, shares, priorities,
// and/or power limit in place. Zero-valued fields keep the current
// setting; Shares and Priorities address applications by name.
type Reconfigure struct {
	Policy     string            `json:"policy,omitempty"`
	LimitWatts float64           `json:"limit_watts,omitempty"`
	Shares     map[string]int    `json:"shares,omitempty"`
	Priorities map[string]string `json:"priorities,omitempty"`
}

// ReconfigureAck reports the applied configuration.
type ReconfigureAck struct {
	Policy     string  `json:"policy"`
	LimitWatts float64 `json:"limit_watts"`
}

// Drain toggles drain mode: a draining node refuses new leases, drops to
// its fallback cap, and waits to be taken out of the room.
type Drain struct {
	On bool `json:"on"`
}

// DrainAck reports the node's drain state after the toggle.
type DrainAck struct {
	Draining bool `json:"draining"`
}

// Register announces a node to the coordinator.
type Register struct {
	Node string `json:"node"`
	Addr string `json:"addr"`
}

// RegisterAck confirms registration.
type RegisterAck struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}

// Heartbeat keeps a registration alive.
type Heartbeat struct {
	Node string `json:"node"`
}

// HeartbeatAck confirms the coordinator still knows the node.
type HeartbeatAck struct {
	Known bool `json:"known"`
}

// ClusterStatus is a coordinator's view of its tier: the budget it holds
// (under a parent, the one its lease grants), what its children draw, and
// one row per child.
type ClusterStatus struct {
	BudgetWatts     float64       `json:"budget_watts"`
	TotalPowerWatts float64       `json:"total_power_watts"`
	Reallocations   int           `json:"reallocations"`
	Nodes           []ClusterNode `json:"nodes"`

	// The subtree: the tier's level, and its children, leaves and depth.
	Tier     string `json:"tier,omitempty"`
	Children int    `json:"children,omitempty"`
	Leaves   int    `json:"leaves,omitempty"`
	Depth    int    `json:"depth,omitempty"`
}

// ClusterNode is one child's row in a ClusterStatus. Addr lets a client
// walk the tree: a child that is itself a tier serves its own cluster
// status there.
type ClusterNode struct {
	Name        string  `json:"name"`
	Addr        string  `json:"addr,omitempty"`
	LimitWatts  float64 `json:"limit_watts"`
	Quarantined bool    `json:"quarantined,omitempty"`
}

// ErrorReply carries a structured protocol-level failure.
type ErrorReply struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes used in ErrorReply.
const (
	CodeBadRequest = "bad_request"
	CodeDraining   = "draining"
	CodeStaleLease = "stale_lease"
	CodeInvalid    = "invalid"
	CodeInternal   = "internal"
)

func (e *ErrorReply) Error() string {
	return fmt.Sprintf("powerapi: %s: %s", e.Code, e.Message)
}

// kinds maps each message kind to a constructor for its body type — the
// single registry Marshal, Unmarshal, and the fuzz target all share.
var kinds = map[string]func() any{
	KindStatus:         func() any { return &NodeStatus{} },
	KindLeaseGrant:     func() any { return &LeaseGrant{} },
	KindLeaseAck:       func() any { return &LeaseAck{} },
	KindReconfigure:    func() any { return &Reconfigure{} },
	KindReconfigureAck: func() any { return &ReconfigureAck{} },
	KindDrain:          func() any { return &Drain{} },
	KindDrainAck:       func() any { return &DrainAck{} },
	KindRegister:       func() any { return &Register{} },
	KindRegisterAck:    func() any { return &RegisterAck{} },
	KindHeartbeat:      func() any { return &Heartbeat{} },
	KindHeartbeatAck:   func() any { return &HeartbeatAck{} },
	KindClusterStatus:  func() any { return &ClusterStatus{} },
	KindError:          func() any { return &ErrorReply{} },
}

// KindOf reports the wire kind for a message body, or "" for a type that
// is not part of the protocol.
func KindOf(msg any) string {
	switch msg.(type) {
	case *NodeStatus:
		return KindStatus
	case *LeaseGrant:
		return KindLeaseGrant
	case *LeaseAck:
		return KindLeaseAck
	case *Reconfigure:
		return KindReconfigure
	case *ReconfigureAck:
		return KindReconfigureAck
	case *Drain:
		return KindDrain
	case *DrainAck:
		return KindDrainAck
	case *Register:
		return KindRegister
	case *RegisterAck:
		return KindRegisterAck
	case *Heartbeat:
		return KindHeartbeat
	case *HeartbeatAck:
		return KindHeartbeatAck
	case *ClusterStatus:
		return KindClusterStatus
	case *ErrorReply:
		return KindError
	}
	return ""
}

// Marshal frames a message body in a versioned envelope.
func Marshal(msg any) ([]byte, error) {
	return MarshalRound(msg, 0)
}

// MarshalRound frames a message body in a versioned envelope stamped
// with a control-round ID (zero omits the stamp).
func MarshalRound(msg any, round uint64) ([]byte, error) {
	if st, ok := msg.(*NodeStatus); ok {
		if data, ok := appendStatus(make([]byte, 0, 512), st, round); ok {
			return data, nil
		}
	}
	return marshalGeneric(msg, round)
}

// marshalGeneric is MarshalRound through encoding/json: the only encoder
// of every kind but status, and the specification of that one.
func marshalGeneric(msg any, round uint64) ([]byte, error) {
	kind := KindOf(msg)
	if kind == "" {
		return nil, fmt.Errorf("powerapi: %T is not a protocol message", msg)
	}
	body, err := json.Marshal(msg)
	if err != nil {
		return nil, fmt.Errorf("powerapi: marshal %s: %w", kind, err)
	}
	return json.Marshal(Envelope{V: Version, Kind: kind, Body: body, Round: round})
}

// Unmarshal parses an envelope and its body. Unknown body fields,
// unknown kinds, and foreign versions are errors; unknown envelope
// fields are tolerated (the envelope is the forward-compatible
// extension point).
func Unmarshal(data []byte) (string, any, error) {
	if st, _, _, ok := decodeStatus(data); ok {
		return KindStatus, st, nil
	}
	env, msg, err := unmarshalGeneric(data)
	return env.Kind, msg, err
}

// UnmarshalEnvelope is Unmarshal exposing the decoded envelope, for
// callers that need its metadata (the round ID) as well as the body.
func UnmarshalEnvelope(data []byte) (Envelope, any, error) {
	if st, body, round, ok := decodeStatus(data); ok {
		return Envelope{V: Version, Kind: KindStatus, Body: append(json.RawMessage(nil), body...), Round: round}, st, nil
	}
	return unmarshalGeneric(data)
}

// unmarshalGeneric is UnmarshalEnvelope through encoding/json: the only
// decoder of every other kind and of every frame decodeStatus declines.
func unmarshalGeneric(data []byte) (Envelope, any, error) {
	var env Envelope
	// The envelope decodes leniently so additive fields from newer
	// peers pass through old decoders; bodies stay strict below.
	if err := json.Unmarshal(data, &env); err != nil {
		return Envelope{}, nil, fmt.Errorf("powerapi: envelope: %w", err)
	}
	if env.V != Version {
		return env, nil, fmt.Errorf("powerapi: version %d, want %d", env.V, Version)
	}
	mk, ok := kinds[env.Kind]
	if !ok {
		return env, nil, fmt.Errorf("powerapi: unknown kind %q", env.Kind)
	}
	msg := mk()
	bdec := json.NewDecoder(bytes.NewReader(env.Body))
	bdec.DisallowUnknownFields()
	if err := bdec.Decode(msg); err != nil {
		return env, nil, fmt.Errorf("powerapi: %s body: %w", env.Kind, err)
	}
	return env, msg, nil
}

// UnmarshalAs parses an envelope expecting one specific kind; an error
// envelope decodes into its ErrorReply instead.
func UnmarshalAs(data []byte, want string) (any, error) {
	kind, msg, err := Unmarshal(data)
	if err != nil {
		return nil, err
	}
	if kind == KindError {
		return nil, msg.(*ErrorReply)
	}
	if kind != want {
		return nil, fmt.Errorf("powerapi: got %s, want %s", kind, want)
	}
	return msg, nil
}
