package workload

import (
	"fmt"
	"strings"
	"testing"

	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/mem"
	"riommu/internal/pci"
	"riommu/internal/sim"
)

// quick options so the full matrix stays fast under `go test`.
var (
	quickStream = StreamOpts{Messages: 120, WarmupMessages: 60}
	quickRR     = RROpts{Transactions: 400, Warmup: 100}
	quickApache = ApacheOpts{FileBytes: 1024, Requests: 120, Warmup: 40}
	quickMem    = MemcachedOpts{Operations: 600, Warmup: 150}
)

func streamAll(t *testing.T, p device.NICProfile) map[sim.Mode]Result {
	t.Helper()
	out := map[sim.Mode]Result{}
	for _, m := range sim.AllModes() {
		r, err := NetperfStream(m, p, quickStream)
		if err != nil {
			t.Fatalf("stream %s/%s: %v", p.Name, m, err)
		}
		out[m] = r
		t.Log(r.String())
	}
	return out
}

func TestStreamMLXShape(t *testing.T) {
	rs := streamAll(t, device.ProfileMLX)

	// Headline claims (§1, §5.2) — shape, not third digits:
	// riommu improves on strict by several-fold (paper: 7.56×).
	if ratio := rs[sim.RIOMMU].Throughput / rs[sim.Strict].Throughput; ratio < 3.5 {
		t.Errorf("riommu/strict throughput = %.2fx, want >= 3.5x (paper 7.56x)", ratio)
	}
	// riommu is within 0.6–1.0× of the unprotected optimum (paper 0.77×).
	if ratio := rs[sim.RIOMMU].Throughput / rs[sim.None].Throughput; ratio < 0.6 || ratio > 1.0 {
		t.Errorf("riommu/none throughput = %.2fx, want in [0.6,1.0] (paper 0.77x)", ratio)
	}
	// riommu− pays the flush tax but still beats every baseline mode.
	if rs[sim.RIOMMUMinus].Throughput <= rs[sim.DeferPlus].Throughput {
		t.Errorf("riommu- (%.2f) should beat defer+ (%.2f)",
			rs[sim.RIOMMUMinus].Throughput, rs[sim.DeferPlus].Throughput)
	}
	// Strict is several times slower than none (paper: ~10×).
	if ratio := rs[sim.None].Throughput / rs[sim.Strict].Throughput; ratio < 4 {
		t.Errorf("none/strict = %.2fx, want >= 4x (paper ~10x)", ratio)
	}
	// Ordering of C across modes. strict+ and defer are within ~10% of each
	// other in the paper (9,404 vs 8,592 cycles) and our reproduction keeps
	// them adjacent but can rank them either way, so they are compared as a
	// group.
	if c := rs[sim.Strict].CyclesPerUnit; c <= rs[sim.StrictPlus].CyclesPerUnit || c <= rs[sim.Defer].CyclesPerUnit {
		t.Errorf("C(strict)=%.0f should top both strict+ and defer", c)
	}
	for _, m := range []sim.Mode{sim.StrictPlus, sim.Defer} {
		if rs[m].CyclesPerUnit <= rs[sim.DeferPlus].CyclesPerUnit {
			t.Errorf("C(%s)=%.0f should exceed C(defer+)=%.0f", m,
				rs[m].CyclesPerUnit, rs[sim.DeferPlus].CyclesPerUnit)
		}
	}
	tail := []sim.Mode{sim.DeferPlus, sim.RIOMMUMinus, sim.RIOMMU, sim.None}
	for i := 0; i+1 < len(tail); i++ {
		if rs[tail[i]].CyclesPerUnit <= rs[tail[i+1]].CyclesPerUnit {
			t.Errorf("C(%s)=%.0f should exceed C(%s)=%.0f", tail[i],
				rs[tail[i]].CyclesPerUnit, tail[i+1], rs[tail[i+1]].CyclesPerUnit)
		}
	}
	// mlx stream is CPU-bound in every mode (Figure 12 top: CPU at 100%).
	for m, r := range rs {
		if r.CPU < 0.99 {
			t.Errorf("%s: CPU = %.2f, want saturated", m, r.CPU)
		}
	}
}

func TestStreamBRCMShape(t *testing.T) {
	rs := streamAll(t, device.ProfileBRCM)
	// Figure 12 bottom-left: every mode except strict saturates the 10 GbE
	// line.
	for _, m := range []sim.Mode{sim.StrictPlus, sim.Defer, sim.DeferPlus, sim.RIOMMUMinus, sim.RIOMMU, sim.None} {
		if rs[m].Throughput < 9.99 {
			t.Errorf("%s: %.2f Gbps, want line rate 10", m, rs[m].Throughput)
		}
	}
	if rs[sim.Strict].Throughput > 9 {
		t.Errorf("strict: %.2f Gbps, should NOT saturate (paper ~4.6)", rs[sim.Strict].Throughput)
	}
	// At saturation the metric is CPU (Table 2): riommu uses less CPU than
	// the deferred and strict+ modes, and a bit more than none.
	if rs[sim.RIOMMU].CPU >= rs[sim.DeferPlus].CPU {
		t.Errorf("riommu CPU %.2f should be below defer+ %.2f", rs[sim.RIOMMU].CPU, rs[sim.DeferPlus].CPU)
	}
	if rs[sim.RIOMMU].CPU <= rs[sim.None].CPU {
		t.Errorf("riommu CPU %.2f should exceed none %.2f", rs[sim.RIOMMU].CPU, rs[sim.None].CPU)
	}
	if rs[sim.Strict].CPU < 0.99 {
		t.Errorf("strict CPU %.2f should be saturated", rs[sim.Strict].CPU)
	}
}

func TestRRShape(t *testing.T) {
	for _, p := range []device.NICProfile{device.ProfileMLX, device.ProfileBRCM} {
		rs := map[sim.Mode]Result{}
		for _, m := range sim.AllModes() {
			r, err := NetperfRR(m, p, quickRR)
			if err != nil {
				t.Fatalf("rr %s/%s: %v", p.Name, m, err)
			}
			rs[m] = r
			t.Log(r.String())
		}
		// Latency ordering (Table 3): strict > strict+ > ... > none, with 3%
		// slack for the adjacent modes the paper itself separates by only a
		// few hundred nanoseconds.
		order := []sim.Mode{sim.Strict, sim.StrictPlus, sim.Defer, sim.DeferPlus, sim.RIOMMUMinus, sim.RIOMMU, sim.None}
		for i := 0; i+1 < len(order); i++ {
			if rs[order[i]].LatencyMicros < rs[order[i+1]].LatencyMicros*0.97 {
				t.Errorf("%s: rtt(%s)=%.2f should be >= rtt(%s)=%.2f", p.Name,
					order[i], rs[order[i]].LatencyMicros, order[i+1], rs[order[i+1]].LatencyMicros)
			}
		}
		// Strict must clearly be the slowest and none the fastest.
		if rs[sim.Strict].LatencyMicros <= rs[sim.DeferPlus].LatencyMicros {
			t.Errorf("%s: rtt(strict) should top rtt(defer+)", p.Name)
		}
		// The improvement is modest (paper: 1.02–1.25×), nothing like the
		// stream speedups: RTT is dominated by non-IOMMU latency.
		ratio := rs[sim.RIOMMU].Throughput / rs[sim.Strict].Throughput
		if ratio < 1.02 || ratio > 2.0 {
			t.Errorf("%s rr riommu/strict = %.2fx, want modest (paper 1.21-1.25x)", p.Name, ratio)
		}
		// CPU is far from saturated (paper: 12-30%).
		if cpu := rs[sim.None].CPU; cpu > 0.5 {
			t.Errorf("%s rr none CPU = %.2f, want low", p.Name, cpu)
		}
	}
}

func TestApacheShape(t *testing.T) {
	// Apache 1KB is computation-bound: ~12K req/s in none mode on both
	// NICs (§5.2), with a visible strict penalty.
	for _, p := range []device.NICProfile{device.ProfileMLX, device.ProfileBRCM} {
		rs := map[sim.Mode]Result{}
		for _, m := range []sim.Mode{sim.Strict, sim.RIOMMU, sim.None} {
			r, err := Apache(m, p, quickApache)
			if err != nil {
				t.Fatalf("apache %s/%s: %v", p.Name, m, err)
			}
			rs[m] = r
			t.Log(r.String())
		}
		none := rs[sim.None].Throughput
		if none < 8_000 || none > 16_000 {
			t.Errorf("%s apache-1K none = %.0f req/s, want ≈12K", p.Name, none)
		}
		if ratio := rs[sim.RIOMMU].Throughput / rs[sim.Strict].Throughput; ratio < 1.1 {
			t.Errorf("%s apache-1K riommu/strict = %.2f, want > 1.1 (paper 1.29-2.32)", p.Name, ratio)
		}
		if ratio := rs[sim.RIOMMU].Throughput / none; ratio < 0.85 || ratio > 1.0 {
			t.Errorf("%s apache-1K riommu/none = %.2f, want ≈0.9", p.Name, ratio)
		}
	}
}

func TestApache1MShape(t *testing.T) {
	// Apache 1MB behaves like stream: throughput-sensitive (mlx) or
	// line-rate-saturated except strict (brcm).
	rM := map[sim.Mode]Result{}
	for _, m := range []sim.Mode{sim.Strict, sim.RIOMMU, sim.None} {
		r, err := Apache(m, device.ProfileMLX, ApacheOpts{FileBytes: 1 << 20, Requests: 8, Warmup: 2})
		if err != nil {
			t.Fatal(err)
		}
		rM[m] = r
		t.Log(r.String())
	}
	if ratio := rM[sim.RIOMMU].Throughput / rM[sim.Strict].Throughput; ratio < 2.5 {
		t.Errorf("mlx apache-1M riommu/strict = %.2f, want large (paper 5.8)", ratio)
	}
}

func TestMemcachedShape(t *testing.T) {
	rs := map[sim.Mode]Result{}
	for _, m := range []sim.Mode{sim.Strict, sim.DeferPlus, sim.RIOMMU, sim.None} {
		r, err := Memcached(m, device.ProfileMLX, quickMem)
		if err != nil {
			t.Fatal(err)
		}
		rs[m] = r
		t.Log(r.String())
	}
	// Order of magnitude above Apache 1KB (§5.2).
	if rs[sim.None].Throughput < 60_000 {
		t.Errorf("memcached none = %.0f ops/s, want ~10x apache", rs[sim.None].Throughput)
	}
	if ratio := rs[sim.RIOMMU].Throughput / rs[sim.Strict].Throughput; ratio < 1.5 {
		t.Errorf("memcached riommu/strict = %.2f, want large (paper 4.88)", ratio)
	}
	if ratio := rs[sim.RIOMMU].Throughput / rs[sim.None].Throughput; ratio < 0.7 || ratio > 1.0 {
		t.Errorf("memcached riommu/none = %.2f (paper 0.83)", ratio)
	}
}

func TestBonnieIndistinguishable(t *testing.T) {
	// §4: Bonnie++ sequential I/O shows indistinguishable performance with
	// strict IOMMU protection vs no IOMMU.
	strict, err := Bonnie(sim.Strict, BonnieOpts{})
	if err != nil {
		t.Fatal(err)
	}
	none, err := Bonnie(sim.None, BonnieOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(strict.String())
	t.Log(none.String())
	ratio := strict.Throughput / none.Throughput
	if ratio < 0.95 || ratio > 1.0 {
		t.Errorf("bonnie strict/none = %.3f, want ≈1 (indistinguishable)", ratio)
	}
}

// lostTxUnmap drops the first Tx unmap the driver asks for: the driver
// returns the buffer to its pool while the protection layer keeps it
// mapped. live counts the mappings the protection layer holds.
type lostTxUnmap struct {
	driver.Protection
	lost bool
	live int
}

func (p *lostTxUnmap) Map(ring int, pa mem.PA, size uint32, dir pci.Dir) (uint64, error) {
	iova, err := p.Protection.Map(ring, pa, size, dir)
	if err == nil {
		p.live++
	}
	return iova, err
}

func (p *lostTxUnmap) Unmap(ring int, iova uint64, size uint32, endOfBurst bool) error {
	if ring == driver.RingTx && !p.lost {
		p.lost = true
		return nil
	}
	err := p.Protection.Unmap(ring, iova, size, endOfBurst)
	if err == nil {
		p.live--
	}
	return err
}

// TestRunnerFindsLeak: a runner whose world ends holding a Tx mapping the
// driver has let go of fails, with an error naming the protection layer's
// count and the driver's, in each mapping mode, audited or not.
func TestRunnerFindsLeak(t *testing.T) {
	build := newSystemWithNIC
	defer func() { newSystemWithNIC = build }()
	for _, mode := range []sim.Mode{sim.Strict, sim.Defer, sim.RIOMMU} {
		for _, audited := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/audit=%v", mode, audited), func(t *testing.T) {
				var prot *lostTxUnmap
				newSystemWithNIC = func(mode sim.Mode, profile device.NICProfile) (*sim.System, *nicFixture, error) {
					sys, err := sim.NewSystemScaled(mode, MemPages, profile.CostScale)
					if err != nil {
						return nil, nil, err
					}
					if audited {
						sys.EnableAudit()
					}
					p, err := sys.ProtectionFor(NICBDF, driver.RIOMMURingSizes(profile))
					if err != nil {
						return nil, nil, err
					}
					prot = &lostTxUnmap{Protection: p}
					drv, nic, err := driver.NewNICDriver(sys.Mem, prot, sys.Eng, profile, NICBDF)
					return sys, &nicFixture{drv: drv, nic: nic}, err
				}
				_, err := NetperfStream(mode, device.ProfileMLX, quickStream)
				if err == nil {
					t.Fatal("runner accepted a Tx mapping its driver let go of")
				}
				if !prot.lost {
					t.Fatal("the stream reaped no Tx buffer")
				}
				for _, c := range []string{fmt.Sprintf("%d live mappings", prot.live), fmt.Sprintf("account for %d", prot.live-1)} {
					if !strings.Contains(err.Error(), c) {
						t.Errorf("runner error %q does not name %q", err, c)
					}
				}
			})
		}
	}
}
