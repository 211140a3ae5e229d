package device

// The block devices (SATA and NVMe) back their namespaces with a sparse
// chunked store: a chunk is allocated, zeroed, on its first write, and reads
// of never-written chunks observe zeros — indistinguishable from one flat
// zeroed array, but a mostly-idle multi-hundred-MiB disk costs only its
// touched working set. Eagerly zeroing a flat array per device was a
// dominant cost of building a fresh world in experiment and campaign grids.
const storeChunk = 1 << 18 // 256 KiB chunk granule

// blockStore is a sparse byte-addressable backing store.
type blockStore struct {
	size    uint64   // virtual size in bytes
	chunks  [][]byte // nil chunk = all zeros (never written)
	zeroBuf []byte   // shared all-zero read source, never written
	asmBuf  []byte   // assembly target for reads that cross a chunk
}

func newBlockStore(size uint64) blockStore {
	return blockStore{
		size:   size,
		chunks: make([][]byte, (size+storeChunk-1)/storeChunk),
	}
}

// read returns n bytes of content at off. The returned slice is valid until
// the next read or write and must not be written.
func (s *blockStore) read(off uint64, n uint32) []byte {
	ci, co := off/storeChunk, off%storeChunk
	if co+uint64(n) <= storeChunk {
		c := s.chunks[ci]
		if c == nil {
			if uint32(len(s.zeroBuf)) < n {
				s.zeroBuf = make([]byte, n)
			}
			return s.zeroBuf[:n]
		}
		return c[co : co+uint64(n)]
	}
	if uint32(cap(s.asmBuf)) < n {
		s.asmBuf = make([]byte, n)
	}
	out := s.asmBuf[:n]
	for done := uint64(0); done < uint64(n); {
		g := off + done
		ci, co := g/storeChunk, g%storeChunk
		take := min(storeChunk-co, uint64(n)-done)
		if c := s.chunks[ci]; c != nil {
			copy(out[done:done+take], c[co:])
		} else {
			clear(out[done : done+take])
		}
		done += take
	}
	return out
}

// write stores src at off, allocating a zeroed chunk on its first write.
func (s *blockStore) write(off uint64, src []byte) {
	for done := 0; done < len(src); {
		g := off + uint64(done)
		ci, co := g/storeChunk, g%storeChunk
		c := s.chunks[ci]
		if c == nil {
			c = make([]byte, storeChunk)
			s.chunks[ci] = c
		}
		done += copy(c[co:], src[done:])
	}
}
