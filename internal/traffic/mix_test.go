package traffic

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// refFillPayload is the byte-at-a-time payload generator fillDigest
// replaces: byte i is byte i%8 of splitmix64 word i/8, little-endian.
func refFillPayload(rng *uint64, p []byte) {
	var w uint64
	for i := range p {
		if i&7 == 0 {
			w = splitmix64(rng)
		}
		p[i] = byte(w >> (8 * uint(i&7)))
	}
}

// refPayloadFold is one payload's step of the application digest, read
// back from the bytes: the header word slot | len(p)<<32, then p as
// little-endian words, the last one zero-padded, each folded as FNV-1a
// folds a byte.
func refPayloadFold(h uint64, slot int, p []byte) uint64 {
	h = (h ^ (uint64(slot) | uint64(len(p))<<32)) * fnvPrime
	for len(p) > 0 {
		var w [8]byte
		p = p[copy(w[:], p):]
		h = (h ^ binary.LittleEndian.Uint64(w[:])) * fnvPrime
	}
	return h
}

// TestFillDigestMatchesWordFold pins fillDigest to the byte-wise generator
// and the word fold of what it wrote: the same bytes (and none past the
// slice), the same RNG state afterwards, and the digest of those bytes
// read back, for every tail size of a word, the MSS boundary and a jumbo
// payload, from three seeds and several start states and slots.
func TestFillDigestMatchesWordFold(t *testing.T) {
	var lengths []int
	for n := 0; n <= 80; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 255, 256, 1447, 1448, 1449, 8191)
	const canary = 0xa5
	for _, seed := range []uint64{1, 42, 0x9e3779b97f4a7c15} {
		x := seed ^ 0x5eed
		starts := []struct {
			h    uint64
			slot int
		}{{fnvOffset, 0}, {0, 7}, {splitmix64(&x), 1<<20 - 1}}
		for _, n := range lengths {
			wantRNG := seed
			want := bytes.Repeat([]byte{canary}, n+16)
			refFillPayload(&wantRNG, want[:n])
			for _, st := range starts {
				h, slot := st.h, st.slot
				gotRNG := seed
				got := bytes.Repeat([]byte{canary}, n+16)
				d := fillDigest(h, slot, &gotRNG, got[:n])
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %#x len %d: bytes differ from the byte-wise fill", seed, n)
				}
				if gotRNG != wantRNG {
					t.Fatalf("seed %#x len %d: rng %#x, want %#x", seed, n, gotRNG, wantRNG)
				}
				if w := refPayloadFold(h, slot, want[:n]); d != w {
					t.Fatalf("seed %#x len %d slot %d from %#x: digest %#x, want %#x", seed, n, slot, h, d, w)
				}
			}
		}
	}
}

type payload struct {
	slot int
	data []byte
}

// appDigestOf folds a payload sequence from the offset basis, as an
// engine folds what its flows send and receive.
func appDigestOf(ps []payload) uint64 {
	h := uint64(fnvOffset)
	for _, p := range ps {
		h = refPayloadFold(h, p.slot, p.data)
	}
	return h
}

// TestAppDigestSeparatesPayloads checks that payload sequences differing
// only in one payload's slot, in one payload's length by a trailing zero
// byte (which a zero-padded tail word alone would not see), or in one
// payload byte give different digests.
func TestAppDigestSeparatesPayloads(t *testing.T) {
	base := func(n int) []payload {
		ps := []payload{{3, make([]byte, 1448)}, {9, make([]byte, n)}, {3, make([]byte, 300)}}
		r := uint64(3)
		for _, p := range ps {
			refFillPayload(&r, p.data)
		}
		return ps
	}
	for n := 0; n <= 24; n++ {
		want := appDigestOf(base(n))
		ps := base(n)
		ps[1].slot = 10
		if appDigestOf(ps) == want {
			t.Errorf("len %d: a payload's slot 9 -> 10 leaves the digest at %#x", n, want)
		}
		ps = base(n)
		ps[1].data = append(ps[1].data, 0)
		if appDigestOf(ps) == want {
			t.Errorf("len %d: an extra trailing zero byte leaves the digest at %#x", n, want)
		}
		for i := 0; i < n; i++ {
			for _, bit := range []byte{0x01, 0x80} {
				ps = base(n)
				ps[1].data[i] ^= bit
				if appDigestOf(ps) == want {
					t.Errorf("len %d: flipping bit %#x of byte %d leaves the digest at %#x", n, bit, i, want)
				}
			}
		}
	}
}

// TestMapDigestSeparatesEvents checks that mapping histories differing in
// exactly one field of one event give different digests.
func TestMapDigestSeparatesEvents(t *testing.T) {
	type event struct {
		op    byte
		ring  int
		iova  uint64
		size  uint32
		extra uint64
	}
	digest := func(evs []event) uint64 {
		e := &Engine{mapDigest: fnvOffset}
		for _, ev := range evs {
			e.noteMap(ev.op, ev.ring, ev.iova, ev.size, ev.extra)
		}
		if e.mapEvents != uint64(len(evs)) {
			t.Fatalf("%d events counted, want %d", e.mapEvents, len(evs))
		}
		return e.mapDigest
	}
	base := []event{
		{'M', ringSteer, 0xfffff000, 8192, 2},
		{'M', 0, 0xffffe000, 4096, 2},
		{'U', ringSteer, 0xfffff000, 8192, 0},
	}
	want := digest(base)
	for i := range base {
		for _, tc := range []struct {
			field string
			edit  func(*event)
		}{
			{"op", func(ev *event) { ev.op ^= 'M' ^ 'U' }},
			{"ring", func(ev *event) { ev.ring ^= 1 }},
			{"iova", func(ev *event) { ev.iova ^= 1 << 40 }},
			{"size", func(ev *event) { ev.size ^= 1 }},
			{"extra", func(ev *event) { ev.extra ^= 1 }},
		} {
			evs := append([]event(nil), base...)
			tc.edit(&evs[i])
			if digest(evs) == want {
				t.Errorf("event %d: changing its %s leaves the digest at %#x", i, tc.field, want)
			}
		}
	}
}

func TestFillDigestAllocatesNothing(t *testing.T) {
	p := make([]byte, 1449)
	rng, h := uint64(3), uint64(fnvOffset)
	if a := testing.AllocsPerRun(100, func() { h = fillDigest(h, 5, &rng, p) }); a != 0 {
		t.Fatalf("fillDigest allocates %.1f objects per call, want 0", a)
	}
}

var sinkDigest uint64

// BenchmarkPayloadDigest times one MSS-sized payload's fill and fold, the
// per-packet application-stream work of sendPacket.
func BenchmarkPayloadDigest(b *testing.B) {
	p := make([]byte, 1448)
	rng, h := uint64(1), uint64(fnvOffset)
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h = fillDigest(h, 5, &rng, p)
	}
	sinkDigest = h
}
