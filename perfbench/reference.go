package main

import (
	"runtime"
	"sort"
	"time"
)

// On a shared VM the host's speed drifts by 15-20% over tens of seconds to
// minutes as neighbours come and go, and moves whole runs with it: the CPU
// time of a repetition tracks its wall time, so this is a slower CPU, not
// stolen time. A run therefore also times a fixed reference kernel, which
// runs no repository code, for refShare of its length between repetitions,
// and scales every end-to-end host time by refNominal over the kernel's
// median time: the times read as seconds on a host running the kernel in
// refNominal. On a 2-vCPU VM, 5-second medians of churn-raw repetition and
// kernel time over 5 minutes correlated at 0.90 (interquartile spread 12% of
// the median unscaled, 4% scaled), and over five 30-second paper-quick runs
// the spread of wall_s fell from 17% unscaled to 9.5% scaled.
const (
	refNominal = 45 * time.Millisecond
	refShare   = 0.1
)

// refClock records the reference kernel's times over one run.
type refClock struct {
	ms    []float64
	spent time.Duration
}

// keepUp runs the reference kernel until it has taken refShare of elapsed,
// and at least once. The collection first gives each batch the same heap
// whatever the last repetition left.
func (r *refClock) keepUp(elapsed time.Duration) {
	if len(r.ms) > 0 && float64(r.spent) >= refShare*float64(elapsed) {
		return
	}
	runtime.GC()
	for len(r.ms) == 0 || float64(r.spent) < refShare*float64(elapsed) {
		d := referenceKernel()
		r.ms = append(r.ms, float64(d)/1e6)
		r.spent += d
	}
}

// scale converts a host time measured in this run to reference seconds.
func (r *refClock) scale() float64 {
	if len(r.ms) == 0 {
		return 1
	}
	return float64(refNominal) / 1e6 / median(r.ms)
}

type refNode struct {
	next *refNode
	key  uint64
	_    [6]uint64
}

var refSink uint64

// referenceKernel does a fixed amount of work of the simulator's kind, from a
// fixed seed: it allocates a linked list indexed by a map, walks it with map
// lookups, sorts the keys it finds, and chases pointers through an 8 MB
// table.
func referenceKernel() time.Duration {
	t := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	const n = 1 << 16
	m := make(map[uint64]*refNode)
	var head *refNode
	for i := 0; i < n; i++ {
		nd := &refNode{next: head, key: next()}
		head = nd
		m[nd.key%(n*4)] = nd
	}
	keys := make([]uint64, 0, n)
	for nd := head; nd != nil; nd = nd.next {
		if m[nd.key%(n*4)] == nd {
			keys = append(keys, nd.key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	table := make([]uint32, 1<<21)
	for i := range table {
		table[i] = uint32(next() % (1 << 21))
	}
	j := uint32(0)
	for i := 0; i < 1<<19; i++ {
		j = table[j]
	}
	refSink += uint64(len(m)) + keys[len(keys)/2] + uint64(j)
	return time.Since(t)
}
