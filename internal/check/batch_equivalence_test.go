package check

import (
	"fmt"
	"reflect"
	"testing"

	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/mem"
	"riommu/internal/pci"
	"riommu/internal/sim"
)

// chunk is one access as the translator resolved it.
type chunk struct {
	bdf  pci.BDF
	iova uint64
	pa   mem.PA
	size uint32
	dir  pci.Dir
}

// chunkProbe sits between the DMA engine and its translator and auditor, so
// it sees the workload's traffic one chunk at a time. It checks the engine's
// side of both contracts: every access it asks the translator for is
// non-empty and stays inside one 4 KiB IOVA page, and every chunk the
// translator accepts is reported to the auditor, exactly as translated,
// before the next chunk is translated.
type chunkProbe struct {
	tr  dma.Translator
	aud dma.Auditor

	last     chunk
	pending  bool // last was accepted and not yet reported to the auditor
	accepted int
	errs     []string
}

func (p *chunkProbe) fail(format string, args ...any) {
	if len(p.errs) < 8 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

func (p *chunkProbe) Translate(bdf pci.BDF, iova uint64, size uint32, dir pci.Dir) (mem.PA, error) {
	if size == 0 || iova&mem.PageMask+uint64(size) > mem.PageSize {
		p.fail("translate %#x+%d crosses a 4 KiB IOVA page or is empty", iova, size)
	}
	if p.pending {
		p.fail("translate %#x+%d before the auditor saw accepted chunk %#x+%d",
			iova, size, p.last.iova, p.last.size)
	}
	pa, err := p.tr.Translate(bdf, iova, size, dir)
	if err != nil {
		return pa, err
	}
	p.accepted++
	p.last = chunk{bdf, iova, pa, size, dir}
	p.pending = true
	return pa, nil
}

func (p *chunkProbe) VerifyDMA(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir) {
	if got := (chunk{bdf, iova, pa, size, dir}); !p.pending || got != p.last {
		p.fail("auditor told of %+v; last accepted %+v (unreported: %v)", got, p.last, p.pending)
	}
	p.pending = false
	p.aud.VerifyDMA(bdf, iova, pa, size, dir)
}

// TestBatchScalarEquivalence compares the workload as the simulator runs it
// with a scalar view of the same traffic, for every protection mode, NIC
// profile and queue count. In the batch arm the DMA engine takes each
// transfer whole and splits it into chunks in its one loop. In the scalar
// arm a chunkProbe between the engine and its translator and auditor sees
// each chunk as its own access and checks the engine's contracts with both.
// The arms must produce byte-identical Tx/Rx payloads, the same
// protection-boundary mapping history, the same interrupt-delivery log, an
// identical per-component CPU cycle ledger, and zero oracle violations:
// observing the chunks may not change anything a mode observes or charges.
// Every frame here fits in its page, so each transfer is one chunk; the
// dma package's tests pin how a page-crossing transfer splits.
func TestBatchScalarEquivalence(t *testing.T) {
	for _, mode := range sim.AllModes() {
		for _, base := range []device.NICProfile{device.ProfileMLX, device.ProfileBRCM} {
			for _, queues := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/q=%d", mode, base.Name, queues), func(t *testing.T) {
					cfg := Config{
						Profile: smallProfile(base),
						Queues:  queues,
						Rounds:  36,
						Seed:    0xba7c<<16 | uint64(queues),
					}
					batched, err := RunWorkload(mode, cfg)
					if err != nil {
						t.Fatalf("batched: %v", err)
					}
					if len(batched.TxFrames) == 0 || len(batched.Events) == 0 {
						t.Fatalf("batched trace is degenerate: %d tx frames, %d events",
							len(batched.TxFrames), len(batched.Events))
					}
					probe := &chunkProbe{}
					cfg.probe = func(sys *sim.System) {
						probe.tr, probe.aud = sys.Eng.Translator(), sys.Auditor
						sys.Eng.SetTranslator(probe)
						sys.Eng.SetAudit(probe)
					}
					scalar, err := RunWorkload(mode, cfg)
					if err != nil {
						t.Fatalf("scalar: %v", err)
					}
					for _, e := range probe.errs {
						t.Error(e)
					}
					if probe.pending {
						t.Errorf("last accepted chunk %+v never reached the auditor", probe.last)
					}
					if probe.accepted == 0 {
						t.Error("scalar arm is degenerate: no chunk reached the translator")
					}

					compareFrames(t, mode, "tx", scalar.TxFrames, batched.TxFrames)
					compareFrames(t, mode, "rx", scalar.RxFrames, batched.RxFrames)
					if !reflect.DeepEqual(scalar.Events, batched.Events) {
						t.Errorf("mapping history diverges: %d batched vs %d scalar events",
							len(batched.Events), len(scalar.Events))
					}
					if !reflect.DeepEqual(scalar.IntLog, batched.IntLog) {
						t.Errorf("interrupt-delivery log diverges: %d batched vs %d scalar deliveries",
							len(batched.IntLog), len(scalar.IntLog))
					}
					if batched.Cycles != scalar.Cycles {
						t.Errorf("cycle ledger diverges: batched clock at %d, scalar at %d",
							batched.Cycles.Now, scalar.Cycles.Now)
					}
					if batched.AuditViolations != 0 || scalar.AuditViolations != 0 {
						t.Errorf("audit violations in a benign workload: batched=%d scalar=%d",
							batched.AuditViolations, scalar.AuditViolations)
					}
					if batched.IntViolations != 0 || scalar.IntViolations != 0 {
						t.Errorf("interrupt violations in a benign workload: batched=%d scalar=%d",
							batched.IntViolations, scalar.IntViolations)
					}
				})
			}
		}
	}
}
