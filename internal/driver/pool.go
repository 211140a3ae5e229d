package driver

import (
	"fmt"

	"riommu/internal/mem"
)

// BufferPool hands out fixed-size target buffers carved from page frames.
// With the default 2 KiB buffer size two buffers share each 4 KiB page,
// which is the situation §4 highlights: baseline page-granular protection
// leaves an unmapped buffer reachable while its page-mate is still mapped,
// whereas rIOMMU's byte-granular rPTEs do not.
type BufferPool struct {
	mm      *mem.PhysMem
	bufSize uint32
	free    []mem.PA
	frames  []mem.PFN
	out     int // buffers currently handed out
}

// DefaultBufferSize fits an MTU-sized packet plus headroom.
const DefaultBufferSize = 2048

// NewBufferPool creates a pool that will carve buffers of bufSize bytes
// (DefaultBufferSize if 0). Frames are allocated lazily as the pool grows.
func NewBufferPool(mm *mem.PhysMem, bufSize uint32) *BufferPool {
	if bufSize == 0 {
		bufSize = DefaultBufferSize
	}
	if bufSize > mem.PageSize {
		bufSize = mem.PageSize
	}
	return &BufferPool{mm: mm, bufSize: bufSize}
}

// BufSize returns the fixed buffer size.
func (p *BufferPool) BufSize() uint32 { return p.bufSize }

// Outstanding returns how many buffers are currently handed out.
func (p *BufferPool) Outstanding() int { return p.out }

// Get returns a free buffer's physical address, growing the pool if needed.
func (p *BufferPool) Get() (mem.PA, error) {
	if len(p.free) == 0 {
		f, err := p.mm.AllocFrame()
		if err != nil {
			return 0, fmt.Errorf("driver: growing buffer pool: %w", err)
		}
		p.frames = append(p.frames, f)
		for off := uint32(0); off+p.bufSize <= mem.PageSize; off += p.bufSize {
			p.free = append(p.free, f.PA()+mem.PA(off))
		}
	}
	pa := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.out++
	return pa, nil
}

// Put returns a buffer to the pool.
func (p *BufferPool) Put(pa mem.PA) {
	p.free = append(p.free, pa)
	p.out--
}

// Destroy frees every frame the pool ever allocated. All buffers must have
// been returned (and unpinned by their protection driver) first.
func (p *BufferPool) Destroy() error {
	if p.out != 0 {
		return fmt.Errorf("driver: destroying pool with %d buffers outstanding", p.out)
	}
	for _, f := range p.frames {
		if err := p.mm.FreeFrame(f); err != nil {
			return err
		}
	}
	p.frames = nil
	p.free = nil
	return nil
}
