package traffic

import (
	"bytes"
	"testing"
)

// The byte-at-a-time payload generator and digest that fillDigest and the
// word fold replace, kept as the reference they must match bit for bit.

func refFnvByte(h uint64, b byte) uint64 {
	if h == 0 {
		h = fnvOffset
	}
	return (h ^ uint64(b)) * fnvPrime
}

func refFnv64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = refFnvByte(h, byte(v>>(8*i)))
	}
	return h
}

func refFnvBytes(h uint64, p []byte) uint64 {
	for _, b := range p {
		h = refFnvByte(h, b)
	}
	return h
}

func refFillPayload(rng *uint64, p []byte) {
	var w uint64
	for i := range p {
		if i&7 == 0 {
			w = splitmix64(rng)
		}
		p[i] = byte(w >> (8 * uint(i&7)))
	}
}

// fnvPrimeInverse is the FNV prime's inverse mod 2^64, by Newton's
// iteration: each step doubles the number of correct low bits, and an odd
// x is its own inverse mod 8.
func fnvPrimeInverse() uint64 {
	inv := uint64(fnvPrime)
	for i := 0; i < 5; i++ {
		inv *= 2 - fnvPrime*inv
	}
	return inv
}

// zeroAfter returns the start state from which folding p[0..j] leaves the
// digest at zero, by running the fold backwards from that zero. It reports
// false when the backward run needs a zero state before some byte: the fold
// restarts any such state at the offset basis, so none can be reached.
func zeroAfter(t *testing.T, p []byte, j int) (uint64, bool) {
	inv := fnvPrimeInverse()
	var h uint64
	for i := j; i >= 0; i-- {
		if h = h*inv ^ uint64(p[i]); h == 0 {
			return 0, false
		}
	}
	if got := refFnvBytes(h, p[:j+1]); got != 0 {
		t.Fatalf("backward fold to byte %d: forward fold reads %#x, want 0", j, got)
	}
	return h, true
}

// startStates returns the digest states each fold is checked from: zero,
// the offset basis, an arbitrary value, and for each byte position 0-7 of
// p's first and last words the state that reaches zero right after it.
func startStates(t *testing.T, p []byte, seed uint64) []uint64 {
	x := seed ^ 0x5eed
	hs := []uint64{0, fnvOffset, splitmix64(&x)}
	for j := range p {
		if j < 8 || j >= len(p)-8 {
			if h, ok := zeroAfter(t, p, j); ok {
				hs = append(hs, h)
			}
		}
	}
	return hs
}

// TestFillDigestMatchesByteFold pins fillDigest to the byte-at-a-time
// generator and fold: the same bytes written (and none past the slice), the
// same RNG state afterwards and the same digest, for every length across a
// word's tail sizes and the MSS boundary, from start states that hit the
// zero restart at every byte position of a word.
func TestFillDigestMatchesByteFold(t *testing.T) {
	if inv := fnvPrimeInverse(); fnvPrime*inv != 1 {
		t.Fatalf("fnvPrime * %#x = %#x, want 1", inv, uint64(fnvPrime)*inv)
	}
	var lengths []int
	for n := 0; n <= 80; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 255, 256, 1447, 1448, 1449, 8191)
	const canary = 0xa5
	for _, seed := range []uint64{1, 42, 0x9e3779b97f4a7c15} {
		for _, n := range lengths {
			wantRNG := seed
			want := bytes.Repeat([]byte{canary}, n+16)
			refFillPayload(&wantRNG, want[:n])
			for _, h := range startStates(t, want[:n], seed) {
				gotRNG := seed
				got := bytes.Repeat([]byte{canary}, n+16)
				d := fillDigest(h, &gotRNG, got[:n])
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %#x len %d from %#x: bytes differ from the byte-wise fill", seed, n, h)
				}
				if gotRNG != wantRNG {
					t.Fatalf("seed %#x len %d: rng %#x, want %#x", seed, n, gotRNG, wantRNG)
				}
				if w := refFnvBytes(h, want[:n]); d != w {
					t.Fatalf("seed %#x len %d from %#x: digest %#x, want %#x", seed, n, h, d, w)
				}
			}
		}
	}
}

// TestFnv64MatchesByteFold pins the word fold of a slot tag or mapping
// field to eight byte folds, from the same start states.
func TestFnv64MatchesByteFold(t *testing.T) {
	x := uint64(7)
	vs := []uint64{0, 1, 0xff, 0x100, 1 << 63, ^uint64(0), 0x0102030405060708}
	for i := 0; i < 8; i++ {
		vs = append(vs, splitmix64(&x))
	}
	var p [8]byte
	for _, v := range vs {
		for i := range p {
			p[i] = byte(v >> (8 * i))
		}
		for _, h := range startStates(t, p[:], v) {
			if got, want := fnv64(h, v), refFnv64(h, v); got != want {
				t.Fatalf("fnv64(%#x, %#x) = %#x, want %#x", h, v, got, want)
			}
		}
	}
	for _, h := range []uint64{0, fnvOffset, 'M', 'U'} {
		for _, op := range []byte{0, 'M', 'U'} {
			if got, want := fnvFold(h, uint64(op), 1), refFnvByte(h, op); got != want {
				t.Fatalf("fnvFold(%#x, %q, 1) = %#x, want %#x", h, op, got, want)
			}
		}
	}
}

func TestFillDigestAllocatesNothing(t *testing.T) {
	p := make([]byte, 1449)
	rng, h := uint64(3), uint64(0)
	if a := testing.AllocsPerRun(100, func() { h = fillDigest(h, &rng, p) }); a != 0 {
		t.Fatalf("fillDigest allocates %.1f objects per call, want 0", a)
	}
}

var sinkDigest uint64

// BenchmarkPayloadDigest times one MSS-sized payload's fill and fold, the
// per-packet application-stream work of sendPacket.
func BenchmarkPayloadDigest(b *testing.B) {
	p := make([]byte, 1448)
	rng, h := uint64(1), uint64(0)
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h = fillDigest(h, &rng, p)
	}
	sinkDigest = h
}
