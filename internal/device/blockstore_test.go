package device

import (
	"bytes"
	"math/rand"
	"testing"
)

// storeTestPage is the 4 KiB page size the block workloads write in.
const storeTestPage = 4096

// TestBlockStoreMatchesFlat runs seeded writes and reads on a store of a
// few chunks and checks every read against a flat zeroed array of the
// store's size. Offsets and lengths start and end inside pages, on page
// boundaries and across the chunk boundaries; reads cover never-written
// chunks, ranges that span written and unwritten chunks, and at the end a
// read of the whole store, longer than any before it. Writes go through one
// reused source buffer, so a store that kept a reference to it would drift
// from the reference.
func TestBlockStoreMatchesFlat(t *testing.T) {
	const (
		chunks = 4
		size   = (chunks-1)*storeChunk + 5*storeTestPage + 123 // last chunk partial
	)
	var zeroReads, mixedSpans, spanWrites, midPageWrites int
	for seed := int64(1); seed <= 16; seed++ {
		s := newBlockStore(size)
		ref := make([]byte, size)
		written := make([]bool, chunks)
		rng := rand.New(rand.NewSource(seed))
		src := make([]byte, 2*storeChunk)
		longest := uint32(0)

		read := func(off uint64, n uint32) {
			t.Helper()
			got := s.read(off, n)
			if !bytes.Equal(got, ref[off:off+uint64(n)]) {
				i := 0
				for i < len(got) && got[i] == ref[off+uint64(i)] {
					i++
				}
				t.Fatalf("seed %d: read(%d, %d) differs from the flat reference at byte %d (len %d)",
					seed, off, n, i, len(got))
			}
			first, last := off/storeChunk, (off+uint64(n)-1)/storeChunk
			if first == last && !written[first] {
				zeroReads++
			}
			if first != last {
				some, none := false, false
				for c := first; c <= last; c++ {
					some = some || written[c]
					none = none || !written[c]
				}
				if some && none {
					mixedSpans++
				}
			}
			longest = max(longest, n)
		}
		write := func(off uint64, n uint32) {
			k := byte(rng.Intn(256))
			for i := range src[:n] {
				src[i] = k + byte(i*13)
			}
			s.write(off, src[:n])
			copy(ref[off:], src[:n])
			first, last := off/storeChunk, (off+uint64(n)-1)/storeChunk
			for c := first; c <= last; c++ {
				written[c] = true
			}
			if first != last {
				spanWrites++
			}
			if off%storeTestPage != 0 {
				midPageWrites++
			}
			clear(src[:n]) // the store must have copied what it keeps
		}

		// Before any write: a never-written chunk, and a read across two.
		read(storeChunk+100, storeTestPage)
		read(2*storeChunk-50, 300)
		for op := 0; op < 400; op++ {
			off, n := storeRange(rng, size)
			if rng.Intn(5) < 2 {
				write(off, n)
			} else {
				read(off, n)
			}
		}
		if longest >= size {
			t.Fatalf("seed %d: a random read already covered the whole store", seed)
		}
		read(0, size)
	}
	if zeroReads == 0 || mixedSpans == 0 || spanWrites == 0 || midPageWrites == 0 {
		t.Fatalf("seeds too narrow: %d never-written reads, %d mixed spanning reads, %d chunk-crossing writes, %d mid-page writes",
			zeroReads, mixedSpans, spanWrites, midPageWrites)
	}
}

// storeRange draws a range inside a store of size bytes. Its start sits
// anywhere, on a page boundary, a few bytes either side of one, or near a
// chunk boundary; its length is a few bytes, about a page, a few pages, or
// enough to cross a chunk.
func storeRange(rng *rand.Rand, size uint64) (uint64, uint32) {
	pages := int64(size / storeTestPage)
	var off int64
	switch rng.Intn(4) {
	case 0:
		off = rng.Int63n(int64(size))
	case 1:
		off = rng.Int63n(pages) * storeTestPage
	case 2:
		off = rng.Int63n(pages)*storeTestPage + rng.Int63n(129) - 64
	default:
		off = (1+rng.Int63n(int64(size/storeChunk)))*storeChunk + rng.Int63n(2*storeTestPage) - storeTestPage
	}
	off = min(max(off, 0), int64(size)-1)
	var n uint64
	switch rng.Intn(4) {
	case 0:
		n = 1 + uint64(rng.Intn(64))
	case 1:
		n = storeTestPage + uint64(rng.Intn(33)) - 16
	case 2:
		n = uint64(1+rng.Intn(4)) * storeTestPage
	default:
		n = 1 + uint64(rng.Intn(storeChunk+storeTestPage))
	}
	n = min(n, size-uint64(off))
	return uint64(off), uint32(n)
}
