package cycles

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now = %d, want 0", c.Now())
	}
	for comp := Component(0); comp < numComponents; comp++ {
		if c.Total(comp) != 0 || c.Count(comp) != 0 {
			t.Fatalf("zero clock has accounting for %v", comp)
		}
	}
}

func TestChargeAdvancesAndAttributes(t *testing.T) {
	var c Clock
	c.Charge(MapIOVAAlloc, 100)
	c.Charge(MapIOVAAlloc, 50)
	c.Charge(UnmapIOTLBInv, 2127)

	if got := c.Now(); got != 2277 {
		t.Errorf("Now = %d, want 2277", got)
	}
	if got := c.Total(MapIOVAAlloc); got != 150 {
		t.Errorf("Total(MapIOVAAlloc) = %d, want 150", got)
	}
	if got := c.Count(MapIOVAAlloc); got != 2 {
		t.Errorf("Count(MapIOVAAlloc) = %d, want 2", got)
	}
	if got := c.Snapshot().Average(MapIOVAAlloc); got != 75 {
		t.Errorf("Average(MapIOVAAlloc) = %v, want 75", got)
	}
	if got := c.Total(UnmapIOTLBInv); got != 2127 {
		t.Errorf("Total(UnmapIOTLBInv) = %d, want 2127", got)
	}
}

func TestChargeFreeDoesNotCount(t *testing.T) {
	var c Clock
	c.Charge(UnmapIOTLBInv, 9)
	c.ChargeFree(UnmapIOTLBInv, 2150)
	if got := c.Count(UnmapIOTLBInv); got != 1 {
		t.Errorf("Count = %d, want 1", got)
	}
	if got := c.Total(UnmapIOTLBInv); got != 2159 {
		t.Errorf("Total = %d, want 2159", got)
	}
	if got := c.Now(); got != 2159 {
		t.Errorf("Now = %d, want 2159", got)
	}
}

func TestAverageEmpty(t *testing.T) {
	var c Clock
	c.Charge(App, 10)
	if got := c.Snapshot().Average(Stack); got != 0 {
		t.Errorf("Average of uncharged component = %v, want 0", got)
	}
}

func TestReset(t *testing.T) {
	var c Clock
	c.Charge(Stack, 1816)
	c.Reset()
	if c.Now() != 0 || c.Total(Stack) != 0 || c.Count(Stack) != 0 {
		t.Errorf("Reset did not clear state: now=%d total=%d count=%d",
			c.Now(), c.Total(Stack), c.Count(Stack))
	}
}

func TestSnapshotRestore(t *testing.T) {
	var c Clock
	c.Charge(MapPageTable, 588)
	saved := c.Snapshot()
	c.Charge(MapPageTable, 590)
	c.Charge(App, 1000)
	s := c.Snapshot()

	if got := s.Total(MapPageTable); got != 1178 {
		t.Errorf("Total(MapPageTable) = %d, want 1178", got)
	}
	if got := s.Total(App); got != 1000 {
		t.Errorf("Total(App) = %d, want 1000", got)
	}
	if got := s.Now; got != 2178 {
		t.Errorf("Now = %d, want 2178", got)
	}
	if got := s.Average(MapPageTable); got != 589 {
		t.Errorf("Average(MapPageTable) = %v, want 589", got)
	}
	c.Restore(saved)
	if c.Snapshot() != saved {
		t.Errorf("Restore: clock reads %+v, want %+v", c.Snapshot(), saved)
	}
}

func TestSnapshotAverageEmpty(t *testing.T) {
	var s Snapshot
	if got := s.Average(App); got != 0 {
		t.Errorf("empty snapshot Average = %v, want 0", got)
	}
}

func TestComponentString(t *testing.T) {
	cases := map[Component]string{
		MapIOVAAlloc:  "map/iova-alloc",
		UnmapIOTLBInv: "unmap/iotlb-inv",
		Stack:         "stack",
		Component(99): "component(99)",
		Component(-1): "component(-1)",
	}
	for comp, want := range cases {
		if got := comp.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(comp), got, want)
		}
	}
}

// TestComponentsList: every component up to NumComponents has its own
// stable name, so ledgers keyed by name cannot merge two components.
func TestComponentsList(t *testing.T) {
	if len(componentNames) != NumComponents {
		t.Fatalf("%d component names for %d components", len(componentNames), NumComponents)
	}
	seen := map[string]Component{}
	for comp := Component(0); comp < numComponents; comp++ {
		name := comp.String()
		if name == "" {
			t.Errorf("component %d has no name", int(comp))
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("components %d and %d share the name %q", int(prev), int(comp), name)
		}
		seen[name] = comp
	}
}

// Property: the clock total always equals the sum of per-component totals.
func TestClockConservation(t *testing.T) {
	f := func(charges []uint8) bool {
		var c Clock
		for i, n := range charges {
			comp := Component(i % NumComponents)
			c.Charge(comp, uint64(n))
		}
		var sum uint64
		for comp := Component(0); comp < numComponents; comp++ {
			sum += c.Total(comp)
		}
		return sum == c.Now()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a Reset clock accounts exactly what was charged after it.
func TestResetProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		var c Clock
		for i, n := range a {
			c.Charge(Component(i%NumComponents), uint64(n))
		}
		c.Reset()
		for i, n := range b {
			c.Charge(Component(i%NumComponents), uint64(n))
		}
		var want uint64
		for _, n := range b {
			want += uint64(n)
		}
		return c.Snapshot().Now == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModelConversions(t *testing.T) {
	m := DefaultModel()
	if m.ClockGHz != 3.10 {
		t.Fatalf("ClockGHz = %v, want 3.10", m.ClockGHz)
	}
	// 3.1e9 cycles == 1 second.
	if got := m.Seconds(3_100_000_000); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Seconds(3.1e9) = %v, want 1", got)
	}
	if got := m.Micros(3100); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Micros(3100) = %v, want 1", got)
	}
	if got := m.CyclesPerSecond(); got != 3.1e9 {
		t.Errorf("CyclesPerSecond = %v, want 3.1e9", got)
	}
}

func TestDefaultModelTable1Anchors(t *testing.T) {
	m := DefaultModel()
	// The headline hardware costs must match Table 1's direct measurements.
	if m.IOTLBInvEntry != 2127 {
		t.Errorf("IOTLBInvEntry = %d, want 2127 (Table 1)", m.IOTLBInvEntry)
	}
	if m.DeferQueueOp != 9 {
		t.Errorf("DeferQueueOp = %d, want 9 (Table 1 defer iotlb inv)", m.DeferQueueOp)
	}
	if m.MapFixed != 44 {
		t.Errorf("MapFixed = %d, want 44 (Table 1 strict map other)", m.MapFixed)
	}
}

// TestScaledModel walks every uint64 cost in Model by reflection: the
// machine-physics costs on the fixed list come back unchanged, every other
// one is scaled and rounded, so a new constant that Scaled forgets fails.
func TestScaledModel(t *testing.T) {
	fixed := map[string]bool{
		"RBNodeVisit":  true, // DRAM-bound pointer chase
		"IOTLBMiss":    true, // device-side walks and lookups
		"RIOTLBFetch":  true,
		"IRTEWalk":     true,
		"IRTECacheHit": true,
		"Stage2Walk":   true,
	}
	m := DefaultModel()
	for _, f := range []float64{0.5, 0.37, 1.9} {
		s := m.Scaled(f)
		if s.ClockGHz != m.ClockGHz {
			t.Errorf("Scaled(%v) changed the clock", f)
		}
		mv, sv := reflect.ValueOf(m), reflect.ValueOf(s)
		for i := 0; i < mv.NumField(); i++ {
			name := mv.Type().Field(i).Name
			if mv.Field(i).Kind() != reflect.Uint64 {
				continue
			}
			v, got := mv.Field(i).Uint(), sv.Field(i).Uint()
			want := uint64(math.Round(float64(v) * f))
			if fixed[name] {
				want = v
			}
			if got != want {
				t.Errorf("Scaled(%v).%s = %d, want %d", f, name, got, want)
			}
		}
	}
	// Table 1's invalidation cost halves, rounded.
	if s := m.Scaled(0.5); s.IOTLBInvEntry != 1064 {
		t.Errorf("scaled IOTLBInvEntry = %d, want 1064", s.IOTLBInvEntry)
	}
	// Scaling by 1 is the identity.
	if m.Scaled(1.0) != m {
		t.Error("Scaled(1.0) should be the identity")
	}
}
