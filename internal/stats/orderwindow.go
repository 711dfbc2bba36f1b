package stats

// orderBlockCap is the block size of an OrderWindow: 128 float64s are
// 1 KiB, small enough that the memmove inside one block costs less than
// the two binary searches that found the place, and large enough that a
// 4096-sample window is ~50 blocks to walk. It is a constant, not a
// knob: the only caller is the latency window, and on both its traffic
// shapes (the benchmark's node-slo, a read every ~10 completions, and
// slo-step, every ~250) 64, 128 and 256 measured within 8 % of each
// other in the service tick and below noise end to end.
const orderBlockCap = 128

// orderBlockThin is the fill below which a block is folded into a
// neighbour. A quarter (not half) leaves hysteresis between a split
// (two half-full blocks) and the next fold, so alternating inserts and
// removes at one key cannot make a block split and merge every time.
const orderBlockThin = orderBlockCap / 4

type orderBlock struct {
	n  int
	xs [orderBlockCap]float64 // xs[:n] sorted ascending
}

// search returns the first index in xs[:n] whose value is >= x.
func (b *orderBlock) search(x float64) int {
	lo, hi := 0, b.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.xs[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// OrderWindow is an exact order-statistic multiset of float64s, built
// for sliding windows that take one Insert and one Remove per sample
// and are asked for percentiles in between. It is a blocked sorted
// list: the keys sit in sorted blocks of at most orderBlockCap values,
// the blocks themselves in key order. An update binary-searches the
// blocks, then one block, and moves at most one block's worth of
// values; a rank lookup walks block lengths. With n values that is
// O(√n)-ish work per operation instead of a full sort per read, and
// Percentile returns exactly — bit for bit — what PercentileSorted
// returns over the sorted values.
//
// Blocks come from a free list preallocated by NewOrderWindow, so a
// window that stays within its capacity never allocates. Every block is
// non-empty, and whenever there are two or more, each holds at least
// orderBlockThin values, which bounds the block count by
// capacity/orderBlockThin.
//
// NaN keys are not supported (they have no place in a total order). The
// zero value is an empty window with no preallocated blocks.
type OrderWindow struct {
	blocks []*orderBlock // key order
	free   []*orderBlock
	n      int
}

// NewOrderWindow returns an empty window with every block it can need
// for up to capacity values preallocated. Holding more than capacity
// values is allowed; it allocates further blocks on demand.
func NewOrderWindow(capacity int) *OrderWindow {
	nb := capacity/orderBlockThin + 1
	slab := make([]orderBlock, nb)
	w := &OrderWindow{
		blocks: make([]*orderBlock, 0, nb),
		free:   make([]*orderBlock, nb),
	}
	for i := range slab {
		w.free[i] = &slab[i]
	}
	return w
}

// Len reports how many values the window holds.
func (w *OrderWindow) Len() int { return w.n }

func (w *OrderWindow) take() *orderBlock {
	if k := len(w.free); k > 0 {
		b := w.free[k-1]
		w.free = w.free[:k-1]
		return b
	}
	return new(orderBlock)
}

// find returns the index of the first block whose largest value is
// >= x, or len(w.blocks) when x is above every value held. If x is in
// the window at all, it is in that block: every earlier block tops out
// below x, and a later block can hold x only if this one ends on it.
func (w *OrderWindow) find(x float64) int {
	lo, hi := 0, len(w.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b := w.blocks[mid]; b.xs[b.n-1] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds one occurrence of x.
func (w *OrderWindow) Insert(x float64) {
	w.n++
	if len(w.blocks) == 0 {
		b := w.take()
		b.xs[0], b.n = x, 1
		w.blocks = append(w.blocks, b)
		return
	}
	i := w.find(x)
	if i == len(w.blocks) {
		i-- // above everything: extend the last block
	}
	b := w.blocks[i]
	if b.n == orderBlockCap {
		if upper := w.split(i); x > b.xs[b.n-1] {
			b = upper
		}
	}
	j := b.search(x)
	copy(b.xs[j+1:b.n+1], b.xs[j:b.n])
	b.xs[j] = x
	b.n++
}

// split moves the upper half of the full block at index i into a new
// block placed right after it, and returns the new block.
func (w *OrderWindow) split(i int) *orderBlock {
	b, upper := w.blocks[i], w.take()
	half := b.n / 2
	upper.n = copy(upper.xs[:], b.xs[half:b.n])
	b.n = half
	w.blocks = append(w.blocks, nil)
	copy(w.blocks[i+2:], w.blocks[i+1:])
	w.blocks[i+1] = upper
	return upper
}

// Remove deletes one occurrence of x and reports whether there was one.
func (w *OrderWindow) Remove(x float64) bool {
	i := w.find(x)
	if i == len(w.blocks) {
		return false
	}
	b := w.blocks[i]
	j := b.search(x) // < b.n: the block's largest value is >= x
	if b.xs[j] != x {
		return false
	}
	copy(b.xs[j:], b.xs[j+1:b.n])
	b.n--
	w.n--
	switch {
	case len(w.blocks) > 1:
		if b.n < orderBlockThin {
			w.fold(i)
		}
	case b.n == 0:
		w.blocks = w.blocks[:0]
		w.free = append(w.free, b)
	}
	return true
}

// fold restores the minimum fill of the thin block at index i using a
// neighbour: the two become one block when their values fit in one, and
// share them evenly otherwise.
func (w *OrderWindow) fold(i int) {
	if i == len(w.blocks)-1 {
		i--
	}
	a, b := w.blocks[i], w.blocks[i+1]
	total := a.n + b.n
	if total <= orderBlockCap {
		copy(a.xs[a.n:], b.xs[:b.n])
		a.n, b.n = total, 0
		w.blocks = append(w.blocks[:i+1], w.blocks[i+2:]...)
		w.free = append(w.free, b)
		return
	}
	half := total / 2
	if a.n < half {
		k := half - a.n
		copy(a.xs[a.n:], b.xs[:k])
		copy(b.xs[:], b.xs[k:b.n])
	} else {
		k := a.n - half
		copy(b.xs[k:], b.xs[:b.n])
		copy(b.xs[:k], a.xs[half:a.n])
	}
	a.n, b.n = half, total-half
}

// at returns the value of the given rank (0 = smallest), walking block
// lengths from whichever end is nearer so the tail percentiles the SLO
// policy reads touch only the last block or two.
func (w *OrderWindow) at(rank int) float64 {
	if rank < w.n/2 {
		for _, b := range w.blocks {
			if rank < b.n {
				return b.xs[rank]
			}
			rank -= b.n
		}
	} else {
		back := w.n - 1 - rank
		for i := len(w.blocks) - 1; i >= 0; i-- {
			b := w.blocks[i]
			if back < b.n {
				return b.xs[b.n-1-back]
			}
			back -= b.n
		}
	}
	panic("stats: OrderWindow rank out of range")
}

// Percentile returns the p-th percentile (0 <= p <= 100) of the values
// held, or zero when empty: the same closest-rank interpolation as
// PercentileSorted, with the same bits.
func (w *OrderWindow) Percentile(p float64) float64 {
	if w.n == 0 {
		return 0
	}
	lo, hi, frac := closestRanks(w.n, p)
	if lo == hi {
		return w.at(lo)
	}
	return interpolate(w.at(lo), w.at(hi), frac)
}
