// Package prefetch implements the three TLB prefetchers the paper compares
// against in §5.4 — Markov [Joseph & Grunwald, ISCA'97], Recency [Saulsbury
// et al., ISCA'00] and Distance [Kandiraju & Sivasubramaniam, ISCA'02] — as
// surveyed by Kandiraju & Sivasubramaniam. They are driven by DMA traces
// (package trace) exactly as the paper drove them with KVM/QEMU logs.
//
// The paper found the prefetchers' baseline versions ineffective, because
// IOVAs are invalidated immediately after use (nothing remains to predict
// from). Their modified versions retain invalidated addresses in their
// history but must verify each prediction is currently mapped before
// inserting it. We implement both via Config.RetainInvalidated.
package prefetch

import "riommu/internal/trace"

// Config shapes a prefetcher instance.
type Config struct {
	// TLBEntries is the size of the simulated IOTLB the prefetcher feeds.
	TLBEntries int
	// History bounds the prediction structure (the knob §5.4 sweeps: the
	// prefetchers only become effective when History exceeds the ring's
	// live-IOVA count).
	History int
	// RetainInvalidated keeps unmapped pages in the history (the paper's
	// modification); predictions are then filtered against the live
	// mapping set, modeling the mandated page-table check.
	RetainInvalidated bool
}

// DefaultConfig mirrors the paper's setting: a realistic IOTLB and a
// moderate history.
func DefaultConfig() Config {
	return Config{TLBEntries: 64, History: 1024, RetainInvalidated: true}
}

// Stats accumulates a prefetcher evaluation.
type Stats struct {
	Accesses    uint64
	Hits        uint64 // access found in TLB (demand-hit or prefetched)
	Prefetches  uint64 // predictions inserted
	Suppressed  uint64 // predictions dropped by the mapped-check
	Invalidates uint64
}

// HitRate returns Hits/Accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Prefetcher consumes a page-access stream and maintains a simulated TLB.
type Prefetcher interface {
	Name() string
	// Access records a translation of page p, returning whether it hit the
	// simulated TLB.
	Access(p uint64) bool
	// Map records an OS map of page p.
	Map(p uint64)
	// Unmap records an OS unmap of page p.
	Unmap(p uint64)
	// Stats returns the accumulated counters.
	Stats() Stats
}

// Evaluate drives a prefetcher with a recorded trace.
func Evaluate(p Prefetcher, tr *trace.Trace) Stats {
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.EvTranslate:
			p.Access(e.Page)
		case trace.EvMap:
			p.Map(e.Page)
		case trace.EvUnmap:
			p.Unmap(e.Page)
		}
	}
	return p.Stats()
}

// base provides the shared TLB, mapped-set, and history bookkeeping. The
// mapped set tracks a generation number per live page, so predictors can
// distinguish "this page is mapped" from "the mapping I learned about is
// still the same one" — a single-use IOVA that was recycled is a different
// mapping even at the same address.
type base struct {
	cfg    Config
	stats  Stats
	tlb    *lruSet
	mapped map[uint64]uint64 // live page -> map generation
	genSeq uint64
}

func newBase(cfg Config) base {
	if cfg.TLBEntries <= 0 {
		cfg.TLBEntries = 64
	}
	if cfg.History <= 0 {
		cfg.History = 1024
	}
	return base{
		cfg:    cfg,
		tlb:    newLRUSet(cfg.TLBEntries),
		mapped: make(map[uint64]uint64),
	}
}

// isMapped reports whether p currently has a live mapping.
func (b *base) isMapped(p uint64) bool {
	_, ok := b.mapped[p]
	return ok
}

// generation returns p's live-mapping generation (0 if unmapped).
func (b *base) generation(p uint64) uint64 { return b.mapped[p] }

// lookup checks the TLB and counts the access.
func (b *base) lookup(p uint64) bool {
	b.stats.Accesses++
	if b.tlb.Contains(p) {
		b.stats.Hits++
		b.tlb.Touch(p)
		return true
	}
	b.tlb.Insert(p)
	return false
}

// prefetchInto inserts a prediction. Predictions of unmapped pages are
// always suppressed: filling an IOTLB entry requires a page-table walk, and
// the walk fails for an unmapped page. (This is the "mandated" check §5.4
// describes for the modified variants; for the baseline variants it is
// simply hardware physics.)
func (b *base) prefetchInto(p uint64) {
	if !b.isMapped(p) {
		b.stats.Suppressed++
		return
	}
	if !b.tlb.Contains(p) {
		b.tlb.Insert(p)
		b.stats.Prefetches++
	}
}

func (b *base) onMap(p uint64) {
	b.genSeq++
	b.mapped[p] = b.genSeq
}

func (b *base) onUnmap(p uint64) {
	delete(b.mapped, p)
	b.stats.Invalidates++
	// The OS invalidation always purges the TLB entry.
	b.tlb.Remove(p)
}

func (b *base) Stats() Stats { return b.stats }

// lruSet is a fixed-capacity LRU page set.
type lruSet struct {
	cap   int
	nodes map[uint64]*lruNode
	head  *lruNode
	tail  *lruNode
}

type lruNode struct {
	page       uint64
	prev, next *lruNode
}

func newLRUSet(capacity int) *lruSet {
	return &lruSet{cap: capacity, nodes: make(map[uint64]*lruNode, capacity)}
}

func (s *lruSet) Len() int { return len(s.nodes) }

func (s *lruSet) Contains(p uint64) bool {
	_, ok := s.nodes[p]
	return ok
}

func (s *lruSet) Insert(p uint64) {
	if _, ok := s.nodes[p]; ok {
		s.Touch(p)
		return
	}
	if len(s.nodes) >= s.cap {
		s.evict()
	}
	n := &lruNode{page: p}
	s.nodes[p] = n
	s.pushFront(n)
}

func (s *lruSet) Touch(p uint64) {
	n, ok := s.nodes[p]
	if !ok {
		return
	}
	s.unlink(n)
	s.pushFront(n)
}

func (s *lruSet) Remove(p uint64) {
	if n, ok := s.nodes[p]; ok {
		s.unlink(n)
		delete(s.nodes, p)
	}
}

func (s *lruSet) evict() {
	if s.tail != nil {
		s.Remove(s.tail.page)
	}
}

func (s *lruSet) pushFront(n *lruNode) {
	n.prev = nil
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *lruSet) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// boundedMap is a FIFO-bounded map used for prediction tables.
type boundedMap struct {
	cap   int
	m     map[uint64][]uint64
	order []uint64
}

func newBoundedMap(capacity int) *boundedMap {
	return &boundedMap{cap: capacity, m: make(map[uint64][]uint64, capacity)}
}

func (b *boundedMap) get(k uint64) []uint64 { return b.m[k] }

// add appends v to k's successor list (max 2 distinct, most recent first).
func (b *boundedMap) add(k, v uint64) {
	lst, ok := b.m[k]
	if !ok {
		if len(b.m) >= b.cap {
			// Evict the oldest key.
			old := b.order[0]
			b.order = b.order[1:]
			delete(b.m, old)
		}
		b.order = append(b.order, k)
	}
	for i, x := range lst {
		if x == v {
			if i != 0 {
				lst[0], lst[i] = lst[i], lst[0]
				b.m[k] = lst
			}
			return
		}
	}
	lst = append([]uint64{v}, lst...)
	if len(lst) > 2 {
		lst = lst[:2]
	}
	b.m[k] = lst
}

func (b *boundedMap) len() int { return len(b.m) }

// reset empties the table in place, keeping its storage for reuse.
func (b *boundedMap) reset() {
	clear(b.m)
	b.order = b.order[:0]
}
