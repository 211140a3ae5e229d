package prefetch

// Markov implements Markov prefetching [Joseph & Grunwald]: a transition
// table records which page historically followed each page; on an access to
// p, the successors recorded for p are prefetched.
type Markov struct {
	base
	table   *boundedMap
	prev    uint64
	prevGen uint64
	first   bool
}

// NewMarkov creates a Markov prefetcher.
func NewMarkov(cfg Config) *Markov {
	return &Markov{base: newBase(cfg), table: newBoundedMap(cfg.History), first: true}
}

// Name identifies the prefetcher.
func (m *Markov) Name() string { return "markov" }

// Access implements Prefetcher. The baseline variant only learns
// transitions whose source address is still mapped — an invalidated address
// has no PTE and the original designs assume a persistent address space —
// which is why single-use DMA streams leave them with no history to predict
// from (§5.4). The modified variant stores invalidated addresses.
func (m *Markov) Access(p uint64) bool {
	hit := m.lookup(p)
	// Baseline learning requires the source mapping to still be the same
	// live mapping it observed; a recycled address is a different mapping.
	if !m.first && (m.cfg.RetainInvalidated || (m.isMapped(m.prev) && m.generation(m.prev) == m.prevGen)) {
		m.table.add(m.prev, p)
	}
	m.prev, m.prevGen, m.first = p, m.generation(p), false
	for _, succ := range m.table.get(p) {
		m.prefetchInto(succ)
	}
	return hit
}

// Map implements Prefetcher.
func (m *Markov) Map(p uint64) { m.onMap(p) }

// Unmap implements Prefetcher. In the baseline variant the history entry is
// destroyed with the mapping; the modified variant retains it.
func (m *Markov) Unmap(p uint64) {
	m.onUnmap(p)
	if !m.cfg.RetainInvalidated {
		delete(m.table.m, p)
	}
}

// Recency implements recency-based preloading [Saulsbury et al.]: pages are
// kept on an LRU stack; when p is accessed, the pages that were its stack
// neighbors are prefetched, exploiting the observation that pages used
// together recur together.
type Recency struct {
	base
	stack *lruSet
}

// NewRecency creates a Recency prefetcher with an LRU stack of History pages.
func NewRecency(cfg Config) *Recency {
	return &Recency{base: newBase(cfg), stack: newLRUSet(cfg.History)}
}

// Name identifies the prefetcher.
func (r *Recency) Name() string { return "recency" }

// Access implements Prefetcher.
func (r *Recency) Access(p uint64) bool {
	hit := r.lookup(p)
	// Prefetch the stack neighbors of p as it is promoted.
	if n, ok := r.stack.nodes[p]; ok {
		if n.prev != nil {
			r.prefetchInto(n.prev.page)
		}
		if n.next != nil {
			r.prefetchInto(n.next.page)
		}
	}
	r.stack.Insert(p)
	r.stack.Touch(p)
	return hit
}

// Map implements Prefetcher.
func (r *Recency) Map(p uint64) { r.onMap(p) }

// Unmap implements Prefetcher.
func (r *Recency) Unmap(p uint64) {
	r.onUnmap(p)
	if !r.cfg.RetainInvalidated {
		r.stack.Remove(p)
	}
}

// Distance implements distance prefetching [Kandiraju & Sivasubramaniam]: a
// table keyed by the stride between consecutive accesses predicts the
// strides that follow, and the predicted pages are prefetched.
type Distance struct {
	base
	table *boundedMap
	prev  uint64
	delta uint64
	first bool
}

// distanceTableCap bounds the stride table. Compactness is the design's
// selling point — regular programs exhibit few distinct strides [Kandiraju &
// Sivasubramaniam] — and exactly the assumption scattered single-use DMA
// addresses violate, which is why the paper found Distance ineffective.
const distanceTableCap = 256

// NewDistance creates a Distance prefetcher.
func NewDistance(cfg Config) *Distance {
	capHist := cfg.History
	if capHist > distanceTableCap {
		capHist = distanceTableCap
	}
	return &Distance{base: newBase(cfg), table: newBoundedMap(capHist), first: true}
}

// Name identifies the prefetcher.
func (d *Distance) Name() string { return "distance" }

// Access implements Prefetcher.
func (d *Distance) Access(p uint64) bool {
	hit := d.lookup(p)
	if !d.first {
		nd := p - d.prev // modular delta; works for negative strides too
		if d.delta != 0 {
			d.table.add(d.delta, nd)
		}
		for _, next := range d.table.get(nd) {
			d.prefetchInto(p + next)
		}
		d.delta = nd
	}
	d.prev, d.first = p, false
	return hit
}

// Map implements Prefetcher.
func (d *Distance) Map(p uint64) { d.onMap(p) }

// Unmap implements Prefetcher. The baseline variant's stride history does
// not survive invalidation (the original proposal assumes a persistent
// address space); the modified variant retains it.
func (d *Distance) Unmap(p uint64) {
	d.onUnmap(p)
	if !d.cfg.RetainInvalidated {
		d.table.reset()
		d.first = true
		d.delta = 0
	}
}

// NewAll returns one instance of each prefetcher under the same config, in
// the paper's order.
func NewAll(cfg Config) []Prefetcher {
	return []Prefetcher{NewMarkov(cfg), NewRecency(cfg), NewDistance(cfg)}
}
