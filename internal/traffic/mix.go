package traffic

// Deterministic randomness and the traffic mixes: splitmix64 streams (one
// for the schedule, one per flow for payload), FNV-1a word digests, the
// heavy-tailed message-size and flow-length distributions, and the diurnal
// load curve. Everything is integer arithmetic so results are identical on
// every platform.

import "encoding/binary"

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord folds the 64-bit word w into the digest state h: one FNV-1a step
// with a word where the standard step takes a byte.
func fnvWord(h, w uint64) uint64 { return (h ^ w) * fnvPrime }

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fillDigest writes the payload stream *rng draws into p and returns h
// with the payload folded in: a header word, slot | len(p)<<32, then each
// splitmix64 word, which fills eight bytes of p little-endian. A tail
// shorter than eight bytes takes the low bytes of one more word and folds
// only those. Each word is folded from the register it was drawn into,
// never read back from p.
func fillDigest(h uint64, slot int, rng *uint64, p []byte) uint64 {
	h = fnvWord(h, uint64(slot)|uint64(len(p))<<32)
	x := *rng
	for len(p) >= 8 {
		w := splitmix64(&x)
		binary.LittleEndian.PutUint64(p, w)
		h = fnvWord(h, w)
		p = p[8:]
	}
	if len(p) > 0 {
		w := splitmix64(&x)
		for i := range p {
			p[i] = byte(w >> (8 * i))
		}
		h = fnvWord(h, w&(1<<(8*len(p))-1))
	}
	*rng = x
	return h
}

// drawMsgBytes samples the heavy-tailed request-size mix: mostly small
// RPCs, a tail of multi-packet responses out to ~64 MSS bulk transfers.
func (e *Engine) drawMsgBytes() int {
	r := e.rand()
	switch p := r % 100; {
	case p < 50:
		return 64 + int((r>>8)%448) // small RPC request
	case p < 80:
		return e.mss // one full segment
	case p < 95:
		return 4 * e.mss // medium response
	case p < 99:
		return 16 * e.mss // netperf-sized message
	default:
		return 64 * e.mss // bulk tail
	}
}

// drawFlowLen samples a flow's data-packet budget around MeanFlowPackets:
// most flows are short, a tail lives 10x the mean.
func (e *Engine) drawFlowLen() int {
	m := e.cfg.MeanFlowPackets
	if m < 1 {
		m = 1
	}
	r := e.rand()
	var l int
	switch p := r % 16; {
	case p < 10:
		l = m / 4
	case p < 14:
		l = m
	case p < 15:
		l = 3 * m
	default:
		l = 10 * m
	}
	l += int((r >> 16) % uint64(m))
	if l < 1 {
		l = 1
	}
	return l
}

// drawSteerPages samples the per-flow steering-buffer size in pages. The
// mixed size classes are what exercise the IOVA allocators' free-stack
// reuse (and the Linux allocator's gap-search pathology) under churn.
func (e *Engine) drawSteerPages() int {
	switch p := e.rand() % 16; {
	case p < 9:
		return 1
	case p < 13:
		return 2
	case p < 15:
		return 3
	default:
		return steerMaxPages
	}
}

// diurnalCurve is the load multiplier over one simulated day, in eighths
// of the peak; diurnalPeriod ticks per phase.
var diurnalCurve = [8]int{3, 5, 8, 10, 12, 10, 7, 4}

const (
	diurnalPeriod = 4
	diurnalPeak   = 8 // divisor: curve value 8 == the configured base load
)

func diurnalLoad(tick int) int {
	phase := (tick / diurnalPeriod) % len(diurnalCurve)
	return diurnalCurve[phase]
}
