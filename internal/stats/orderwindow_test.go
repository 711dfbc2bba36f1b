package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// orderOracle is the reference an OrderWindow is held to: the values in
// insertion order, sorted afresh for every comparison.
type orderOracle struct {
	fifo []float64
}

func (o *orderOracle) insert(x float64) { o.fifo = append(o.fifo, x) }

func (o *orderOracle) removeAt(i int) float64 {
	x := o.fifo[i]
	o.fifo = append(o.fifo[:i], o.fifo[i+1:]...)
	return x
}

var oraclePercentiles = []float64{0, 1, 25, 50, 90, 99, 99.9, 100}

// checkOrderWindow asserts the block invariants and that every
// percentile carries the same bits as sort + PercentileSorted.
func checkOrderWindow(t *testing.T, w *OrderWindow, o *orderOracle, capacity int) {
	t.Helper()
	n := 0
	prev := math.Inf(-1)
	for i, b := range w.blocks {
		if b.n <= 0 || b.n > orderBlockCap {
			t.Fatalf("block %d of %d holds %d values", i, len(w.blocks), b.n)
		}
		if len(w.blocks) > 1 && b.n < orderBlockThin {
			t.Fatalf("block %d of %d is thin: %d < %d", i, len(w.blocks), b.n, orderBlockThin)
		}
		for _, x := range b.xs[:b.n] {
			if x < prev {
				t.Fatalf("block %d out of order: %g after %g", i, x, prev)
			}
			prev = x
		}
		n += b.n
	}
	if n != w.Len() || n != len(o.fifo) {
		t.Fatalf("blocks hold %d values, Len() %d, oracle %d", n, w.Len(), len(o.fifo))
	}
	if n <= capacity {
		if limit := capacity/orderBlockThin + 1; len(w.blocks)+len(w.free) != limit {
			t.Fatalf("%d blocks + %d free, preallocated %d: a block leaked or was allocated within capacity",
				len(w.blocks), len(w.free), limit)
		}
	}
	sorted := append([]float64(nil), o.fifo...)
	sort.Float64s(sorted)
	for _, p := range oraclePercentiles {
		got, want := w.Percentile(p), PercentileSorted(sorted, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("p%g over %d values: got %v (%#x), want %v (%#x)",
				p, n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestOrderWindowEmpty(t *testing.T) {
	for _, w := range []*OrderWindow{NewOrderWindow(16), {}} {
		if w.Len() != 0 || w.Percentile(50) != 0 {
			t.Errorf("empty window: Len %d, p50 %g", w.Len(), w.Percentile(50))
		}
		if w.Remove(1) {
			t.Error("Remove on an empty window reported success")
		}
		w.Insert(3)
		if w.Remove(2) || w.Remove(4) {
			t.Error("Remove of an absent value reported success")
		}
		if !w.Remove(3) || w.Len() != 0 || len(w.blocks) != 0 {
			t.Errorf("last value not removed cleanly: Len %d, %d blocks", w.Len(), len(w.blocks))
		}
	}
}

// TestOrderWindowDrainFromEnds thins the last block, then the first, one
// value at a time, so every fold — merge and share-out, with the thin
// block on either side of its neighbour — is checked the step it happens.
func TestOrderWindowDrainFromEnds(t *testing.T) {
	const capacity = 1024
	for _, fromTop := range []bool{true, false} {
		w, o := NewOrderWindow(capacity), &orderOracle{}
		for i := 0; i < capacity; i++ {
			// Ascending inserts leave half-full blocks, descending ones
			// after them fill the first block: both fold outcomes occur.
			x := float64(i)
			if i >= capacity/2 {
				x = -x
			}
			w.Insert(x)
			o.insert(x)
		}
		for len(o.fifo) > 0 {
			sorted := append([]float64(nil), o.fifo...)
			sort.Float64s(sorted)
			x := sorted[0]
			if fromTop {
				x = sorted[len(sorted)-1]
			}
			for i, v := range o.fifo {
				if v == x {
					o.removeAt(i)
					break
				}
			}
			if !w.Remove(x) {
				t.Fatalf("fromTop %v: value %g not found with %d left", fromTop, x, len(o.fifo)+1)
			}
			checkOrderWindow(t, w, o, capacity)
		}
	}
}

// TestOrderWindowSlidingOracle slides a window the way svc.latWindow
// does — insert, remove the oldest once full — over value streams chosen
// to stress the blocks differently, and now and then drains it to empty
// and refills it.
func TestOrderWindowSlidingOracle(t *testing.T) {
	const capacity = 1000
	streams := map[string]func(*rand.Rand, int) float64{
		"exponential":  func(r *rand.Rand, _ int) float64 { return r.ExpFloat64() * 0.02 },
		"few-distinct": func(r *rand.Rand, _ int) float64 { return float64(r.Intn(5)) },
		"all-equal":    func(*rand.Rand, int) float64 { return 0.25 },
		"ascending":    func(_ *rand.Rand, i int) float64 { return float64(i) },
		"descending":   func(_ *rand.Rand, i int) float64 { return -float64(i) },
	}
	for name, next := range streams {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			w, o := NewOrderWindow(capacity), &orderOracle{}
			for i := 0; i < 6*capacity; i++ {
				if len(o.fifo) == capacity {
					if x := o.removeAt(0); !w.Remove(x) {
						t.Fatalf("step %d: oldest value %g not found", i, x)
					}
				}
				x := next(rng, i)
				w.Insert(x)
				o.insert(x)
				if i%97 == 0 {
					checkOrderWindow(t, w, o, capacity)
				}
				if i == 3*capacity {
					for len(o.fifo) > 0 {
						if x := o.removeAt(0); !w.Remove(x) {
							t.Fatalf("drain: value %g not found", x)
						}
						if len(o.fifo)%97 == 0 {
							checkOrderWindow(t, w, o, capacity)
						}
					}
				}
			}
			checkOrderWindow(t, w, o, capacity)
		})
	}
}

// TestOrderWindowRandomOps is the 200k-step property test: a random walk
// of inserts, oldest-first removes and arbitrary removes whose size
// drifts between empty and past the preallocated capacity.
func TestOrderWindowRandomOps(t *testing.T) {
	const capacity = 2048
	steps := 200_000
	if testing.Short() {
		steps = 20_000
	}
	rng := rand.New(rand.NewSource(1))
	w, o := NewOrderWindow(capacity), &orderOracle{}
	grow := true
	for i := 0; i < steps; i++ {
		switch n := len(o.fifo); {
		case n == 0:
			grow = true
		case n > capacity+capacity/4:
			grow = false
		}
		insertOdds := 40
		if grow {
			insertOdds = 60
		}
		switch r := rng.Intn(100); {
		case r < insertOdds || len(o.fifo) == 0:
			// Quantised so equal keys are common, across and within blocks.
			x := math.Round(rng.ExpFloat64()*400) / 1000
			w.Insert(x)
			o.insert(x)
		case r < insertOdds+(100-insertOdds)/2:
			if x := o.removeAt(0); !w.Remove(x) {
				t.Fatalf("step %d: oldest value %g not found", i, x)
			}
		default:
			if x := o.removeAt(rng.Intn(len(o.fifo))); !w.Remove(x) {
				t.Fatalf("step %d: value %g not found", i, x)
			}
		}
		if i%251 == 0 {
			checkOrderWindow(t, w, o, capacity)
		}
	}
	checkOrderWindow(t, w, o, capacity)
}

func TestOrderWindowZeroAlloc(t *testing.T) {
	const capacity = 4096
	rng := rand.New(rand.NewSource(3))
	w := NewOrderWindow(capacity)
	ring := make([]float64, capacity)
	for i := range ring {
		ring[i] = rng.ExpFloat64()
		w.Insert(ring[i])
	}
	head := 0
	var sink float64
	allocs := testing.AllocsPerRun(20_000, func() {
		w.Remove(ring[head])
		ring[head] = rng.ExpFloat64()
		w.Insert(ring[head])
		head = (head + 1) % capacity
		sink += w.Percentile(99)
	})
	if allocs != 0 {
		t.Errorf("steady-state slide allocates %v times per step, want 0", allocs)
	}
	_ = sink
}

const fuzzOrderOps = 1024

// FuzzOrderWindow turns a byte stream into window operations — the low
// two bits pick insert (twice as likely), remove-oldest or
// remove-arbitrary, the rest pick a key from a small alphabet so
// duplicates are the rule — and holds the result to the oracle after
// every operation.
func FuzzOrderWindow(f *testing.F) {
	f.Add([]byte{0, 4, 8, 1, 2, 3})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"))
	swell := make([]byte, 0, fuzzOrderOps)
	for i := 0; i < 520; i++ {
		swell = append(swell, byte(i*37)&^3) // inserts only: forces splits
	}
	for i := 0; i < 500; i++ {
		swell = append(swell, byte(i*4)|3) // then arbitrary removes: forces folds
	}
	f.Add(swell)
	f.Fuzz(func(t *testing.T, ops []byte) {
		const capacity = 256
		if len(ops) > fuzzOrderOps {
			ops = ops[:fuzzOrderOps] // the oracle re-sorts per operation
		}
		w, o := NewOrderWindow(capacity), &orderOracle{}
		for i, op := range ops {
			key := float64(op>>2) / 8
			switch kind := op & 3; {
			case kind <= 1 || len(o.fifo) == 0:
				w.Insert(key)
				o.insert(key)
			case kind == 2:
				if x := o.removeAt(0); !w.Remove(x) {
					t.Fatalf("op %d: oldest value %g not found", i, x)
				}
			default:
				if x := o.removeAt(int(op>>2) % len(o.fifo)); !w.Remove(x) {
					t.Fatalf("op %d: value %g not found", i, x)
				}
			}
			checkOrderWindow(t, w, o, capacity)
		}
	})
}
