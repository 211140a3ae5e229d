package driver

import (
	"bytes"
	"math/rand"
	"testing"

	"riommu/internal/baseline"
	"riommu/internal/core"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/iommu"
	"riommu/internal/mem"
	"riommu/internal/pagetable"
)

// storageFixture returns (protection, engine, mm) triples for the three
// interesting protection flavors.
type storageFixture struct {
	name string
	mm   *mem.PhysMem
	prot Protection
	eng  *dma.Engine
}

func storageFixtures(t *testing.T) []storageFixture {
	t.Helper()
	var out []storageFixture

	// none
	{
		mm := mustMem(t, 2048*mem.PageSize)
		out = append(out, storageFixture{"none", mm, NoProtection{}, dma.NewEngine(mm, iommu.Identity{})})
	}
	// rIOMMU
	{
		mm := mustMem(t, 2048*mem.PageSize)
		clk := &cycles.Clock{}
		model := cycles.DefaultModel()
		hw := core.New(clk, &model, mm)
		drv, err := core.NewDriver(clk, &model, mm, hw, bdf, []uint32{8, 256, 256}, true)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, storageFixture{"riommu", mm, drv, dma.NewEngine(mm, hw)})
	}
	// baseline strict
	{
		mm := mustMem(t, 4096*mem.PageSize)
		clk := &cycles.Clock{}
		model := cycles.DefaultModel()
		hier, err := pagetable.NewHierarchy(mm)
		if err != nil {
			t.Fatal(err)
		}
		hw := iommu.New(clk, &model, hier, 0)
		bd, err := baseline.New(baseline.Strict, clk, &model, mm, hw, bdf, false)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, storageFixture{"strict", mm, bd, dma.NewEngine(mm, hw)})
	}
	return out
}

func TestNVMeDriverRoundTrip(t *testing.T) {
	for _, fx := range storageFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			d, err := NewNVMeDriver(fx.mm, fx.prot, fx.eng, bdf, 4096, 256, 64)
			if err != nil {
				t.Fatal(err)
			}
			// Write 8 distinct blocks.
			for blk := uint64(0); blk < 8; blk++ {
				if _, err := d.Write(blk, bytes.Repeat([]byte{byte('a' + blk)}, 4096)); err != nil {
					t.Fatalf("write %d: %v", blk, err)
				}
			}
			done, err := d.PollData(16)
			if err != nil {
				t.Fatal(err)
			}
			if len(done) != 8 {
				t.Fatalf("completed %d", len(done))
			}
			for _, c := range done {
				if c.Status != device.NVMeStatusOK {
					t.Fatalf("write status %d", c.Status)
				}
			}
			// Read them back.
			for blk := uint64(0); blk < 8; blk++ {
				if _, err := d.Read(blk, 4096); err != nil {
					t.Fatal(err)
				}
			}
			done, err = d.PollData(16)
			if err != nil {
				t.Fatal(err)
			}
			if len(done) != 8 {
				t.Fatalf("read completions %d", len(done))
			}
			for i, c := range done {
				want := bytes.Repeat([]byte{byte('a' + i)}, 4096)
				if !bytes.Equal(c.Data, want) {
					t.Errorf("block %d corrupted", i)
				}
			}
			if d.Submitted != 16 || d.Completed != 16 {
				t.Errorf("stats %d/%d", d.Submitted, d.Completed)
			}
			if err := d.Teardown(); err != nil {
				t.Fatalf("teardown: %v", err)
			}
		})
	}
}

func TestNVMeDriverValidation(t *testing.T) {
	fx := storageFixtures(t)[0]
	d, err := NewNVMeDriver(fx.mm, fx.prot, fx.eng, bdf, 4096, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(0, nil); err == nil {
		t.Error("empty write should fail")
	}
	if _, err := d.Write(0, make([]byte, mem.PageSize+1)); err == nil {
		t.Error("oversized write should fail")
	}
	if _, err := d.Read(0, 0); err == nil {
		t.Error("zero read should fail")
	}
	// Out-of-range block completes with an LBA error status.
	if _, err := d.Read(999, 4096); err != nil {
		t.Fatal(err)
	}
	done, err := d.PollData(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || done[0].Status != device.NVMeStatusLBA {
		t.Errorf("completions %+v, want one LBA error", done)
	}
	if err := d.Teardown(); err != nil {
		t.Fatal(err)
	}
}

func TestSATADriverOutOfOrder(t *testing.T) {
	for _, fx := range storageFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			d := NewSATADriver(fx.mm, fx.prot, fx.eng, bdf, 4096, 1024)
			if fx.name == "riommu" {
				if _, ok := fx.prot.(SlotMapper); !ok {
					t.Fatal("rIOMMU driver should implement SlotMapper")
				}
			}
			for blk := uint64(0); blk < 16; blk++ {
				if _, err := d.SubmitWrite(blk, bytes.Repeat([]byte{byte(blk + 1)}, 4096)); err != nil {
					t.Fatalf("write %d: %v", blk, err)
				}
			}
			rng := rand.New(rand.NewSource(99))
			results, err := d.CompleteAllData(rng)
			if err != nil {
				t.Fatalf("out-of-order completion: %v", err)
			}
			if len(results) != 16 {
				t.Fatalf("completed %d", len(results))
			}
			// Read everything back (again out of order) and verify.
			for blk := uint64(0); blk < 16; blk++ {
				if _, err := d.SubmitRead(blk, 4096); err != nil {
					t.Fatal(err)
				}
			}
			results, err = d.CompleteAllData(rng)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int]bool{}
			for _, r := range results {
				seen[r.Slot] = true
				// Slot == block for this submission pattern.
				want := bytes.Repeat([]byte{byte(r.Slot + 1)}, 4096)
				if !bytes.Equal(r.Data, want) {
					t.Errorf("slot %d data corrupted", r.Slot)
				}
			}
			if len(seen) != 16 {
				t.Error("duplicate completions")
			}
			if err := d.Teardown(rng); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSATADriverSlotExhaustion(t *testing.T) {
	fx := storageFixtures(t)[0]
	d := NewSATADriver(fx.mm, fx.prot, fx.eng, bdf, 4096, 1024)
	for i := 0; i < device.SATASlots; i++ {
		if _, err := d.SubmitRead(0, 512); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := d.SubmitRead(0, 512); err == nil {
		t.Error("33rd submit should fail")
	}
	if _, err := d.CompleteAll(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SubmitRead(0, 512); err != nil {
		t.Errorf("submit after drain: %v", err)
	}
}
