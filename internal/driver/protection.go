// Package driver implements the OS device-driver layer: ring setup, buffer
// pooling, and the per-DMA map/unmap discipline of intra-OS protection
// (§2.1) — every target buffer is mapped just before its DMA is posted and
// unmapped as soon as the DMA completes, with unmaps batched per completion
// burst exactly as high-throughput drivers process interrupts (§2.3).
package driver

import (
	"riommu/internal/cycles"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// Protection is the OS-side DMA protection interface the driver calls around
// every DMA. It is implemented by the baseline IOMMU driver (package
// baseline; strict/strict+/defer/defer+), the rIOMMU driver (package core;
// riommu/riommu−), and NoProtection (IOMMU disabled).
//
// ring identifies the rIOMMU flat table to allocate from; the baseline
// implementations ignore it. endOfBurst marks the last unmap of a completion
// burst, triggering the rIOMMU's single per-burst rIOTLB invalidation.
type Protection interface {
	Map(ring int, pa mem.PA, size uint32, dir pci.Dir) (uint64, error)
	Unmap(ring int, iova uint64, size uint32, endOfBurst bool) error
}

// NoProtection is the disabled-IOMMU mode ("none"): DMAs use physical
// addresses directly, with no safety and no per-packet overhead.
type NoProtection struct{}

// Map returns the physical address itself as the device address.
func (NoProtection) Map(_ int, pa mem.PA, _ uint32, _ pci.Dir) (uint64, error) {
	return uint64(pa), nil
}

// Unmap does nothing.
func (NoProtection) Unmap(_ int, _ uint64, _ uint32, _ bool) error { return nil }

// PassThrough is the HWpt/SWpt protection (§5.1): the IOMMU is enabled but
// translates identity, and the kernel's DMA-API abstraction still runs on
// every map/unmap — burning cycles without providing protection. The paper
// measured this at ~200 cycles per packet, the reason HWpt/SWpt stream
// throughput trails no-IOMMU by ~10%.
type PassThrough struct {
	Clk   *cycles.Clock
	Model *cycles.Model
}

// Map charges the abstraction cost and returns the identity address.
func (p PassThrough) Map(_ int, pa mem.PA, _ uint32, _ pci.Dir) (uint64, error) {
	p.Clk.Charge(cycles.MapOther, p.Model.PassthroughOp)
	return uint64(pa), nil
}

// Unmap charges the abstraction cost.
func (p PassThrough) Unmap(_ int, _ uint64, _ uint32, _ bool) error {
	p.Clk.Charge(cycles.UnmapOther, p.Model.PassthroughOp)
	return nil
}
