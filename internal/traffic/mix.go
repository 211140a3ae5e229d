package traffic

// Deterministic randomness and the traffic mixes: splitmix64 streams (one
// for the schedule, one per flow for payload), FNV-1a digests, the
// heavy-tailed message-size and flow-length distributions, and the diurnal
// load curve. Everything is integer arithmetic so results are identical on
// every platform.

import "encoding/binary"

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvFold folds the low n bytes of w, least significant first, into the
// digest state h: 64-bit FNV-1a, except that a zero state restarts at the
// offset basis before its next byte (so the zero value of a digest field is
// a fresh digest). A state reaches zero only when it equals the byte xored
// into it, so the restart is a branch out of the xor-multiply loop that is
// almost never taken, not a test on every byte's dependency chain.
func fnvFold(h, w uint64, n int) uint64 {
	for {
		for ; n > 0 && h != 0; n-- {
			h = (h ^ w&0xff) * fnvPrime
			w >>= 8
		}
		if n == 0 {
			return h
		}
		h = fnvOffset
	}
}

// fnv64 folds v's eight bytes, little-endian, into h.
func fnv64(h, v uint64) uint64 { return fnvFold(h, v, 8) }

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fillDigest writes the payload stream *rng draws into p and returns h with
// p folded in. Each splitmix64 word fills eight bytes little-endian; a tail
// shorter than eight bytes takes the low bytes of one more word. Each word
// is folded from the register it was drawn into, never read back from p.
func fillDigest(h uint64, rng *uint64, p []byte) uint64 {
	x := *rng
	for len(p) >= 8 {
		w := splitmix64(&x)
		binary.LittleEndian.PutUint64(p, w)
		h = fnvFold(h, w, 8)
		p = p[8:]
	}
	if len(p) > 0 {
		w := splitmix64(&x)
		for i := range p {
			p[i] = byte(w >> (8 * i))
		}
		h = fnvFold(h, w, len(p))
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
