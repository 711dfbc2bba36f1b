package hierarchy

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/flight"
	"repro/internal/tracing"
	"repro/internal/units"
)

// SimTreeConfig parameterises a simulated room→row→building tree. Every
// leaf's highest useful cap is twice its equal share of the budget and its
// initial draw 0.9 of it; the root coordinator is named "building".
type SimTreeConfig struct {
	// Leaves is the total leaf count, spread as evenly as possible over
	// Rows mid-tier coordinators.
	Leaves int
	Rows   int

	// Budget is the building-level power budget.
	Budget units.Watts

	// LeaseTTL passes to every tier (the cluster.Config default applies
	// when zero).
	LeaseTTL time.Duration

	// HTTPUplinks serves each row's agent on a loopback listener and
	// connects the building to it over the real wire protocol with
	// delta-encoded status — the deployment shape, minus the datacenter.
	// Off, rows attach in-process, which is what a single benchmark box
	// wants for thousand-leaf trees.
	HTTPUplinks bool

	// Trace gives every coordinator a tracer (shared with its agent)
	// so the tree produces logs powerdump's merged view can join.
	Trace bool

	// Flight, when set, is shared by every agent in the tree; NodeIDs
	// are assigned 1..N over leaves, then rows, then the root.
	Flight *flight.Recorder
}

// SimTree is an in-process 3-tier coordination tree: simulated leaves
// under row tiers under one building-level root. It exists for tests
// and benchmarks; cmd/powercoord assembles the same shape from real
// processes. Each row steps on a goroutine of its own that lives from
// the first StepRows to Close, so Close a tree that has stepped.
type SimTree struct {
	Root   *Tier
	Rows   []*Tier
	Leaves []*Leaf

	// RowLeaves[i] are the leaves under Rows[i].
	RowLeaves [][]*Leaf

	servers []*http.Server

	// The row workers: one goroutine per row, fed from one channel and
	// kept across rounds, so the stack a row round grows is grown once.
	// rowMu serialises the rounds that feed them and Close; rowWG counts
	// a round's rows, rowsLive the workers.
	rowMu    sync.Mutex
	rowJobs  chan rowJob
	rowWG    sync.WaitGroup
	rowsLive sync.WaitGroup
	rowErrs  []error
	// stepRow, when set, runs a row's round in place of Tier.Step, so a
	// test can make one fail.
	stepRow func(*Tier, context.Context) error
}

// rowJob is one row's round, handed to a row worker.
type rowJob struct {
	ctx context.Context
	i   int
}

// floorFraction is the guaranteed-share fraction every simulated tier
// uses, mirroring cluster.Config's default.
const floorFraction = 0.5

// NewSimTree builds the tree, starts any loopback servers, and issues
// the initial grant waves tier by tier.
func NewSimTree(cfg SimTreeConfig) (*SimTree, error) {
	const rootName = "building"
	if cfg.Rows <= 0 || cfg.Leaves < cfg.Rows {
		return nil, fmt.Errorf("hierarchy: %d leaves over %d rows", cfg.Leaves, cfg.Rows)
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("hierarchy: budget %v not positive", cfg.Budget)
	}
	equalLeaf := cfg.Budget / units.Watts(cfg.Leaves)

	tracer := func(origin string) *tracing.Tracer {
		if !cfg.Trace {
			return nil
		}
		return tracing.New(origin, 0)
	}

	// The fallback chain is what makes partition math close: each row's
	// fallback cap is exactly the floor the building promises it, and
	// each leaf's is the floor its row promises — so a tier held to its
	// fallback still covers every cap it may have promised below.
	rowFallback := cfg.Budget * floorFraction / units.Watts(cfg.Rows)

	t := &SimTree{}
	ok := false
	defer func() {
		if !ok {
			t.Close()
		}
	}()

	nodeID := int16(0)
	nextID := func() int16 { nodeID++; return nodeID }

	per := cfg.Leaves / cfg.Rows
	extra := cfg.Leaves % cfg.Rows
	leafIdx := 0
	rowTransports := make([][]cluster.Transport, cfg.Rows)
	for r := 0; r < cfg.Rows; r++ {
		k := per
		if r < extra {
			k++
		}
		leafFallback := rowFallback * floorFraction / units.Watts(k)
		leaves := make([]*Leaf, 0, k)
		ts := make([]cluster.Transport, 0, k)
		rowName := fmt.Sprintf("row%d", r)
		for j := 0; j < k; j++ {
			leaf, err := NewLeaf(LeafConfig{
				Name:     fmt.Sprintf("n%d", leafIdx),
				NodeID:   nextID(),
				Max:      2 * equalLeaf,
				Fallback: leafFallback,
				Demand:   equalLeaf * 0.9,
				Flight:   cfg.Flight,
			})
			if err != nil {
				return nil, err
			}
			leafIdx++
			leaves = append(leaves, leaf)
			ts = append(ts, leaf.Transport(rowName))
		}
		t.Leaves = append(t.Leaves, leaves...)
		t.RowLeaves = append(t.RowLeaves, leaves)
		rowTransports[r] = ts
	}

	for r := 0; r < cfg.Rows; r++ {
		row, err := NewTier(TierConfig{
			Name:            fmt.Sprintf("row%d", r),
			Level:           "row",
			NodeID:          nextID(),
			StartAtFallback: true,
			Fallback:        rowFallback,
			LeaseTTL:        cfg.LeaseTTL,
			Flight:          cfg.Flight,
			Tracer:          tracer(fmt.Sprintf("row%d", r)),
		}, rowTransports[r])
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}

	uplinks := make([]cluster.Transport, cfg.Rows)
	for r, row := range t.Rows {
		if !cfg.HTTPUplinks {
			uplinks[r] = row.Transport(rootName)
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("hierarchy: row uplink: %w", err)
		}
		srv := &http.Server{Handler: row.Agent().Handler()}
		go srv.Serve(ln)
		t.servers = append(t.servers, srv)
		uplinks[r] = cluster.NewHTTPNode(row.Name(), ln.Addr().String(), rootName)
	}

	root, err := NewTier(TierConfig{
		Name:     rootName,
		Level:    "building",
		NodeID:   nextID(),
		Budget:   cfg.Budget,
		Fallback: cfg.Budget,
		LeaseTTL: cfg.LeaseTTL,
		Flight:   cfg.Flight,
		Tracer:   tracer(rootName),
	}, uplinks)
	if err != nil {
		return nil, err
	}
	t.Root = root
	ok = true
	return t, nil
}

// StepRows runs one reallocation round on every row concurrently —
// rows are independent coordinators (separate processes in deployment),
// so a tree round's row phase costs one row, not the sum of all of
// them. Returns the first error.
func (t *SimTree) StepRows(ctx context.Context) error {
	t.rowMu.Lock()
	defer t.rowMu.Unlock()
	if t.rowJobs == nil {
		t.startRows()
	}
	t.rowWG.Add(len(t.Rows))
	for i := range t.Rows {
		t.rowJobs <- rowJob{ctx, i}
	}
	t.rowWG.Wait()
	for _, err := range t.rowErrs {
		if err != nil {
			return err
		}
	}
	return nil
}

// startRows starts one worker per row. Caller holds rowMu.
func (t *SimTree) startRows() {
	jobs := make(chan rowJob)
	t.rowJobs, t.rowErrs = jobs, make([]error, len(t.Rows))
	t.rowsLive.Add(len(t.Rows))
	for range t.Rows {
		go func() {
			defer t.rowsLive.Done()
			for j := range jobs {
				step := (*Tier).Step
				if t.stepRow != nil {
					step = t.stepRow
				}
				t.rowErrs[j.i] = step(t.Rows[j.i], j.ctx)
				t.rowWG.Done()
			}
		}()
	}
}

// StepRoot runs one building-level round over the row uplinks.
func (t *SimTree) StepRoot(ctx context.Context) error {
	return t.Root.Step(ctx)
}

// Step coordinates one full tree round: rows poll their leaves, then
// the building polls the rows' fresh aggregates and re-cascades budget.
func (t *SimTree) Step(ctx context.Context) error {
	if err := t.StepRows(ctx); err != nil {
		return err
	}
	return t.StepRoot(ctx)
}

// Logs collects the tracing logs of every coordinator in the tree,
// root first — powerdump's merged view input.
func (t *SimTree) Logs() []tracing.Log {
	var out []tracing.Log
	if t.Root != nil {
		if tr := t.Root.cfg.Tracer; tr != nil {
			out = append(out, tr.Log())
		}
	}
	for _, row := range t.Rows {
		if tr := row.cfg.Tracer; tr != nil {
			out = append(out, tr.Log())
		}
	}
	return out
}

// TotalLeafCaps sums the caps the leaves currently enforce — the
// figure tier conservation bounds by the building budget.
func (t *SimTree) TotalLeafCaps() units.Watts {
	var sum units.Watts
	for _, l := range t.Leaves {
		sum += l.Limit()
	}
	return sum
}

// Close stops the row workers and waits for them to exit, shuts loopback
// servers and stops every lease-expiry timer.
func (t *SimTree) Close() {
	t.rowMu.Lock()
	if t.rowJobs != nil {
		close(t.rowJobs)
		t.rowJobs = nil
	}
	t.rowMu.Unlock()
	t.rowsLive.Wait()
	for _, srv := range t.servers {
		srv.Close()
	}
	if t.Root != nil {
		t.Root.Close()
	}
	for _, row := range t.Rows {
		row.Close()
	}
	for _, l := range t.Leaves {
		l.Close()
	}
}
