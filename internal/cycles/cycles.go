// Package cycles provides the deterministic virtual clock and the cycle cost
// model that every simulated component charges against.
//
// The reproduction follows the paper's validated performance methodology
// (§3.3, §5.1): for high-bandwidth I/O the throughput of the system is
// entirely determined by the number of CPU cycles the core spends per packet,
// dominated by IOVA map/unmap work. The authors simulated rIOMMU on real
// hardware by spending cycles (busy-waiting); we simulate all seven IOMMU
// protection modes by executing the real data-structure algorithms and
// charging a virtual clock with per-primitive costs calibrated against the
// paper's Table 1.
//
// The clock is strictly deterministic: no wall-clock time is ever consulted.
package cycles

import "fmt"

// Component identifies a row of the paper's Table 1 cost breakdown, plus the
// catch-all rows used elsewhere in the evaluation.
type Component int

// Table 1 components. MapIOVAAlloc..MapOther break down the map function;
// UnmapIOVAFind..UnmapOther break down unmap. Other components account for
// the remaining per-packet work ("other" bar of Figure 7) and device-side
// activity that the paper shows does not gate throughput.
const (
	MapIOVAAlloc   Component = iota // map: allocate an IOVA integer
	MapPageTable                    // map: insert translation into page table
	MapOther                        // map: remaining bookkeeping
	UnmapIOVAFind                   // unmap: find the IOVA in allocator structures
	UnmapIOVAFree                   // unmap: release the IOVA integer
	UnmapPageTable                  // unmap: remove translation from page table
	UnmapIOTLBInv                   // unmap: IOTLB invalidation (or defer queueing)
	UnmapOther                      // unmap: remaining bookkeeping
	Stack                           // TCP/IP + interrupt processing ("other" bar)
	App                             // application-level processing (Apache, Memcached)
	DeviceSide                      // device/IOMMU-side work (tracked, not throughput-gating)
	Recovery                        // fault handling: retries, watchdog resets, degradation
	LockContention                  // multi-core: spinlock acquire + backoff on shared structures
	IntRemap                        // interrupt remapping: IRTE walks, IEC maintenance, delivery
	Stage2                          // nested translation: stage-2 (GPA→HPA) walks, TLB upkeep, invalidations
	numComponents
)

var componentNames = [...]string{
	MapIOVAAlloc:   "map/iova-alloc",
	MapPageTable:   "map/page-table",
	MapOther:       "map/other",
	UnmapIOVAFind:  "unmap/iova-find",
	UnmapIOVAFree:  "unmap/iova-free",
	UnmapPageTable: "unmap/page-table",
	UnmapIOTLBInv:  "unmap/iotlb-inv",
	UnmapOther:     "unmap/other",
	Stack:          "stack",
	App:            "app",
	DeviceSide:     "device-side",
	Recovery:       "recovery",
	LockContention: "lock-contention",
	IntRemap:       "int-remap",
	Stage2:         "stage2",
}

// String returns the stable human-readable name of the component.
func (c Component) String() string {
	if c < 0 || int(c) >= len(componentNames) {
		return fmt.Sprintf("component(%d)", int(c))
	}
	return componentNames[c]
}

// NumComponents is the number of distinct accounting components.
const NumComponents = int(numComponents)

// Clock is a deterministic virtual CPU cycle counter with per-component
// attribution. The zero value is ready to use.
//
// Clock is not safe for concurrent use; the simulator is single-threaded by
// design (the paper's single-core server configuration).
type Clock struct {
	now     uint64
	byComp  [numComponents]uint64
	charges [numComponents]uint64 // number of Charge calls per component
}

// Now returns the current virtual time in cycles.
func (c *Clock) Now() uint64 { return c.now }

// Charge advances the clock by n cycles attributed to component comp.
func (c *Clock) Charge(comp Component, n uint64) {
	c.now += n
	c.byComp[comp] += n
	c.charges[comp]++
}

// ChargeFree attributes n cycles to comp without counting a new charge event.
// It is used for follow-on costs that belong to an operation already counted
// (e.g. the amortized global flush behind a deferred invalidation).
func (c *Clock) ChargeFree(comp Component, n uint64) {
	c.now += n
	c.byComp[comp] += n
}

// ChargeFreeN is the batched form of ChargeFree: n follow-on costs of cost
// cycles each, with no charge events counted.
func (c *Clock) ChargeFreeN(comp Component, n, cost uint64) {
	c.now += n * cost
	c.byComp[comp] += n * cost
}

// Total returns the cycles attributed to comp since the last Reset.
func (c *Clock) Total(comp Component) uint64 { return c.byComp[comp] }

// Count returns how many Charge events were recorded for comp.
func (c *Clock) Count(comp Component) uint64 { return c.charges[comp] }

// Reset zeroes the clock and all per-component accounting.
func (c *Clock) Reset() {
	c.now = 0
	for i := range c.byComp {
		c.byComp[i] = 0
		c.charges[i] = 0
	}
}

// Snapshot captures the current per-component totals.
func (c *Clock) Snapshot() Snapshot {
	var s Snapshot
	s.Now = c.now
	copy(s.ByComponent[:], c.byComp[:])
	copy(s.Charges[:], c.charges[:])
	return s
}

// Restore overwrites the clock's entire accounting state with a previously
// captured snapshot. Together with Snapshot it lets a scheduler multiplex one
// physical Clock across several virtual cores: save the outgoing core's
// state, restore the incoming core's, and every component keeps charging the
// same *Clock pointer it was built with.
func (c *Clock) Restore(s Snapshot) {
	c.now = s.Now
	copy(c.byComp[:], s.ByComponent[:])
	copy(c.charges[:], s.Charges[:])
}

// Snapshot is an immutable copy of a Clock's accounting state.
type Snapshot struct {
	Now         uint64
	ByComponent [numComponents]uint64
	Charges     [numComponents]uint64
}

// Total returns the cycles attributed to comp in the snapshot.
func (s Snapshot) Total(comp Component) uint64 { return s.ByComponent[comp] }

// Average returns the mean cycles per charge for comp in the snapshot.
func (s Snapshot) Average(comp Component) float64 {
	if s.Charges[comp] == 0 {
		return 0
	}
	return float64(s.ByComponent[comp]) / float64(s.Charges[comp])
}
