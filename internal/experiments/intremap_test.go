package experiments

import (
	"testing"

	"riommu/internal/sim"
)

// TestIntremapShape pins the new experiment's physics: remapped completion
// interrupts deliver on every mode, are never blocked in a benign workload,
// cost visible cycles on top of the plain run, and use posted format
// exactly in the remapped modes (pass-through has no IRT to post through).
func TestIntremapShape(t *testing.T) {
	res, err := RunIntremap(Serial(Quick))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != 2*len(sim.AllModes()) {
		t.Fatalf("experiment covers %d points, want %d", len(res.Keys), 2*len(sim.AllModes()))
	}
	for _, m := range sim.AllModes() {
		plain := res.At(IntremapKey{Mode: m})
		on := res.At(IntremapKey{Mode: m, Remap: true})
		if plain.Int.Delivered != 0 {
			t.Errorf("%s: plain run delivered %d interrupts", m, plain.Int.Delivered)
		}
		if on.Int.Delivered == 0 {
			t.Errorf("%s: remapped run delivered no interrupts", m)
		}
		if on.Int.Blocked() != 0 || on.Int.StaleDelivered != 0 {
			t.Errorf("%s: benign run blocked/stale interrupts: %+v", m, on.Int)
		}
		if on.MeanCyclesPerPacket <= plain.MeanCyclesPerPacket {
			t.Errorf("%s: interrupt cost invisible: remapped C=%.1f <= plain C=%.1f",
				m, on.MeanCyclesPerPacket, plain.MeanCyclesPerPacket)
		}
		if m == sim.None {
			if on.Int.PostedDeliv != 0 {
				t.Errorf("none: pass-through posted %d deliveries", on.Int.PostedDeliv)
			}
		} else if on.Int.PostedDeliv != on.Int.Delivered {
			t.Errorf("%s: %d of %d deliveries posted, want all", m, on.Int.PostedDeliv, on.Int.Delivered)
		}
	}
	if txt := res.Render(); txt == "" {
		t.Fatal("empty rendering")
	}
	if cells := res.Cells(); len(cells) != 2*len(sim.AllModes()) {
		t.Fatalf("%d cells, want %d", len(cells), 2*len(sim.AllModes()))
	}
}
