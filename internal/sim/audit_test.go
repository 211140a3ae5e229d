package sim

import (
	"testing"

	"riommu/internal/device"
	"riommu/internal/pci"
)

var auditBDF = pci.NewBDF(0, 3, 0)

// nicWorkload drives a NIC through rounds of Tx+Rx and returns final CPU time.
func nicWorkload(t *testing.T, sys *System, rounds int) uint64 {
	t.Helper()
	drv, _, err := sys.AttachNIC(device.ProfileBRCM, auditBDF)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	for r := 0; r < rounds; r++ {
		if err := drv.Send(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.PumpTx(2); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.ReapTx(); err != nil {
			t.Fatal(err)
		}
		if err := drv.Deliver(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.ReapRx(); err != nil {
			t.Fatal(err)
		}
	}
	return sys.CPU.Now()
}

// TestAuditIsPureObserver: enabling the oracle must not change a single
// measured cycle — the determinism argument every audited campaign cell
// rests on.
func TestAuditIsPureObserver(t *testing.T) {
	for _, mode := range []Mode{Strict, Defer, RIOMMU} {
		plain, err := New(Spec{Mode: mode, MemPages: 1 << 15})
		if err != nil {
			t.Fatal(err)
		}
		base := nicWorkload(t, plain, 10)

		audited, err := New(Spec{Mode: mode, MemPages: 1 << 15, Audit: true})
		if err != nil {
			t.Fatal(err)
		}
		orc := audited.Auditor
		got := nicWorkload(t, audited, 10)
		if got != base {
			t.Errorf("%s: audited run took %d CPU cycles, unaudited %d — oracle is not a pure observer", mode, got, base)
		}
		if orc.Checked == 0 || orc.Maps == 0 {
			t.Errorf("%s: oracle saw nothing (checked=%d maps=%d)", mode, orc.Checked, orc.Maps)
		}
		if orc.Violations != 0 {
			t.Errorf("%s: legitimate traffic flagged: %+v", mode, orc.Events)
		}
	}
}

// TestAuditPassThroughModes: the unprotected modes map nothing, so the
// oracle must count without judging.
func TestAuditPassThroughModes(t *testing.T) {
	sys, err := New(Spec{Mode: None, MemPages: 1 << 15, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	orc := sys.Auditor
	nicWorkload(t, sys, 5)
	if orc.Checked == 0 {
		t.Fatal("pass-through oracle counted no DMAs")
	}
	if orc.Violations != 0 {
		t.Fatalf("pass-through oracle judged: %+v", orc.Events)
	}
}

// TestAuditHooksRIOMMUInvalidations: the rIOMMU's end-of-burst invalidations
// must be mirrored into the oracle.
func TestAuditHooksRIOMMUInvalidations(t *testing.T) {
	sys, err := New(Spec{Mode: RIOMMU, MemPages: 1 << 15, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	orc := sys.Auditor
	nicWorkload(t, sys, 10)
	if orc.InvEntries == 0 {
		t.Error("no rIOTLB invalidations mirrored")
	}
}

// TestIsolatorQuarantinesDevice: Isolate must make every DMA of the device
// fault and Readmit must restore the original translation path, leaving
// other devices untouched throughout.
func TestIsolatorQuarantinesDevice(t *testing.T) {
	for _, mode := range []Mode{Strict, RIOMMU} {
		sys, err := New(Spec{Mode: mode, MemPages: 1 << 15})
		if err != nil {
			t.Fatal(err)
		}
		drv, _, err := sys.AttachNIC(device.ProfileBRCM, auditBDF)
		if err != nil {
			t.Fatal(err)
		}
		otherBDF := pci.NewBDF(0, 9, 0)
		otherDrv, _, err := sys.AttachNIC(device.ProfileBRCM, otherBDF)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 256)
		roundTx := func(d interface {
			Send([]byte) error
			PumpTx(int) (int, error)
			ReapTx() (int, error)
		}) error {
			if err := d.Send(payload); err != nil {
				return err
			}
			if _, err := d.PumpTx(2); err != nil {
				return err
			}
			_, err := d.ReapTx()
			return err
		}

		iso := sys.IsolatorFor(auditBDF)
		if err := roundTx(drv); err != nil {
			t.Fatalf("%s: pre-isolation traffic failed: %v", mode, err)
		}
		if err := iso.Isolate(); err != nil {
			t.Fatal(err)
		}
		if err := roundTx(drv); err == nil {
			t.Errorf("%s: quarantined device still performed DMA", mode)
		}
		if err := roundTx(otherDrv); err != nil {
			t.Errorf("%s: quarantine leaked onto another device: %v", mode, err)
		}
		if err := iso.Readmit(); err != nil {
			t.Fatal(err)
		}
		if err := roundTx(drv); err != nil {
			t.Errorf("%s: re-admitted device cannot DMA: %v", mode, err)
		}
	}
}
