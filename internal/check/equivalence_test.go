package check

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"riommu/internal/device"
	"riommu/internal/sim"
)

// smallProfile shrinks a NIC profile's rings so the 7-mode x 2-profile x
// 3-queue-count sweep stays fast under the race detector; ring geometry, not
// ring size, is what the equivalence property ranges over.
func smallProfile(p device.NICProfile) device.NICProfile {
	p.RxEntries = 128
	p.TxEntries = 128
	return p
}

// TestModeEquivalence is the property suite: for a seeded workload every
// protection mode must deliver byte-identical Tx/Rx payloads and an
// identical protection-boundary mapping history, with zero audit-oracle
// violations. Protection changes cost and safety — never data or the
// mapping request stream.
func TestModeEquivalence(t *testing.T) {
	modes := sim.AllModes() // strict, strict+, defer, defer+, riommu-, riommu, none
	for _, base := range []device.NICProfile{device.ProfileMLX, device.ProfileBRCM} {
		for _, queues := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/q=%d", base.Name, queues), func(t *testing.T) {
				cfg := Config{
					Profile: smallProfile(base),
					Queues:  queues,
					Rounds:  48,
					Seed:    0x5eed<<16 | uint64(queues),
				}
				ref, err := RunWorkload(modes[0], cfg)
				if err != nil {
					t.Fatalf("%s: %v", modes[0], err)
				}
				if len(ref.TxFrames) != cfg.Rounds {
					t.Fatalf("reference captured %d tx frames, want %d", len(ref.TxFrames), cfg.Rounds)
				}
				if len(ref.RxFrames) == 0 || len(ref.Events) == 0 || len(ref.IntLog) == 0 {
					t.Fatalf("reference trace is degenerate: %d rx frames, %d events, %d interrupts",
						len(ref.RxFrames), len(ref.Events), len(ref.IntLog))
				}
				if ref.AuditViolations != 0 || ref.IntViolations != 0 {
					t.Errorf("%s: %d audit / %d interrupt violations in a benign workload",
						modes[0], ref.AuditViolations, ref.IntViolations)
				}
				for _, m := range modes[1:] {
					got, err := RunWorkload(m, cfg)
					if err != nil {
						t.Fatalf("%s: %v", m, err)
					}
					compareFrames(t, m, "tx", ref.TxFrames, got.TxFrames)
					compareFrames(t, m, "rx", ref.RxFrames, got.RxFrames)
					if !reflect.DeepEqual(ref.Events, got.Events) {
						t.Errorf("%s: mapping history diverges from %s (%d vs %d events)",
							m, modes[0], len(ref.Events), len(got.Events))
					}
					if !reflect.DeepEqual(ref.IntLog, got.IntLog) {
						t.Errorf("%s: interrupt-delivery log diverges from %s (%d vs %d deliveries)",
							m, modes[0], len(got.IntLog), len(ref.IntLog))
					}
					if got.AuditViolations != 0 {
						t.Errorf("%s: %d audit violations in a benign workload", m, got.AuditViolations)
					}
					if got.IntViolations != 0 {
						t.Errorf("%s: %d interrupt violations in a benign workload", m, got.IntViolations)
					}
				}
			})
		}
	}
}

func compareFrames(t *testing.T, m sim.Mode, kind string, want, got [][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d %s frames, reference has %d", m, len(got), kind, len(want))
		return
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Errorf("%s: %s frame %d differs from reference (%d vs %d bytes)",
				m, kind, i, len(got[i]), len(want[i]))
			return
		}
	}
}

// TestWorkloadDeterministic pins the harness itself: the same mode and seed
// must reproduce the identical trace, otherwise cross-mode equality would
// be meaningless.
func TestWorkloadDeterministic(t *testing.T) {
	cfg := Config{Profile: smallProfile(device.ProfileMLX), Queues: 2, Rounds: 30, Seed: 7}
	a, err := RunWorkload(sim.Strict, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(sim.Strict, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same mode and seed produced different traces")
	}
}
