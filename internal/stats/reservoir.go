package stats

import "math/rand"

// Reservoir is a fixed-size uniform sample of a stream (Vitter's
// algorithm R), used where percentiles of an unbounded series are needed
// without retaining it — the daemon's real-time jitter distribution is the
// motivating case: one sample per control interval forever would grow
// without bound, while a reservoir keeps memory constant and the
// percentile estimate unbiased.
type Reservoir struct {
	seen int64
	xs   []float64
	rng  *rand.Rand
}

// reservoirSize is how many samples a Reservoir retains.
const reservoirSize = 512

// NewReservoir returns a reservoir holding at most reservoirSize samples.
// The RNG is deterministically seeded so runs are reproducible.
func NewReservoir() *Reservoir {
	return &Reservoir{rng: rand.New(rand.NewSource(reservoirSize))}
}

// Add folds x into the reservoir.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if len(r.xs) < reservoirSize {
		r.xs = append(r.xs, x)
		return
	}
	if j := r.rng.Int63n(r.seen); j < reservoirSize {
		r.xs[j] = x
	}
}

// Len reports how many samples are retained.
func (r *Reservoir) Len() int { return len(r.xs) }

// Quantiles estimates several percentiles from the retained sample over
// a single sort — the latency views ask for p50/p90/p99 together, and
// one Percentile call each would sort the reservoir three times.
func (r *Reservoir) Quantiles(ps ...float64) []float64 {
	return Quantiles(r.xs, ps...)
}
