package tenant

import (
	"math/rand"
	"sort"
	"testing"

	"riommu/internal/audit"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// refHost keeps the host's frame ledger and each domain's stage-2 shadow
// in Go maps, as the host and the tenant oracle once did: frames are
// bump-allocated from the host's size and reused LIFO, and a balloon
// remaps the highest mapped pages, found by sorting the map's keys.
type refHost struct {
	owner map[mem.PFN]int
	pages []map[uint64]mem.PFN
	next  mem.PFN
	free  []mem.PFN
}

func (r *refHost) alloc(id int) mem.PFN {
	f := r.next
	if n := len(r.free); n > 0 {
		f = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		r.next++
	}
	r.owner[f] = id
	return f
}

func (r *refHost) disown(f mem.PFN) {
	delete(r.owner, f)
	r.free = append(r.free, f)
}

func (r *refHost) grant(id int, gpn uint64, n int) {
	for i := uint64(0); i < uint64(n); i++ {
		r.pages[id][gpn+i] = r.alloc(id)
	}
}

func (r *refHost) reclaim(id int, gpn uint64, n int) {
	for i := uint64(0); i < uint64(n); i++ {
		r.disown(r.pages[id][gpn+i])
		delete(r.pages[id], gpn+i)
	}
}

func (r *refHost) balloon(id, n int) {
	var gpns []uint64
	for gpn := range r.pages[id] {
		gpns = append(gpns, gpn)
	}
	sort.Slice(gpns, func(i, j int) bool { return gpns[i] > gpns[j] })
	for _, gpn := range gpns[:min(n, len(gpns))] {
		nf := r.alloc(id)
		r.disown(r.pages[id][gpn])
		r.pages[id][gpn] = nf
	}
}

// verdict is the tenant oracle's classification of tenant's access to gpa
// resolving to hpa, "" for a clean one.
func (r *refHost) verdict(tenant int, gpa uint64, hpa mem.PA) string {
	f := mem.PFNOf(hpa)
	own, owned := r.owner[f]
	switch {
	case owned && own != tenant:
		return audit.ReasonCrossTenant
	case !owned:
		return audit.ReasonUnownedFrame
	}
	var cur mem.PFN
	live := false
	if tenant < len(r.pages) {
		cur, live = r.pages[tenant][gpa>>mem.PageShift]
	}
	switch {
	case !live:
		return audit.ReasonStage2Stale
	case cur != f || uint64(hpa)&mem.PageMask != gpa&mem.PageMask:
		return audit.ReasonStage2Mismatch
	}
	return ""
}

// mapped reports whether all n pages from gpn are mapped in domain id
// (want true) or all unmapped (want false).
func (r *refHost) mapped(id int, gpn uint64, n int, want bool) bool {
	for i := uint64(0); i < uint64(n); i++ {
		if _, ok := r.pages[id][gpn+i]; ok != want {
			return false
		}
	}
	return true
}

// TestLedgersMatchMapReference drives AdoptSpace, Grant, Reclaim and
// Balloon from seeded sequences and requires the host's frame ledger
// (Owner), every domain's stage-2 shadow and every verdict of the tenant
// oracle, which index slices by frame and GPA page, to equal the map-based
// reference after each step.
func TestLedgersMatchMapReference(t *testing.T) {
	const hostPages, gpnSpan = 64, 40
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newTestHost(t, hostPages)
		orc := h.EnableAudit()
		ref := &refHost{owner: map[mem.PFN]int{}, next: hostPages}
		var doms []*Domain
		for step := 0; step < 200; step++ {
			n := 1 + rng.Intn(6)
			gpn := uint64(rng.Intn(gpnSpan))
			var d *Domain
			if len(doms) > 0 {
				d = doms[rng.Intn(len(doms))]
			}
			switch r := rng.Intn(10); {
			case d == nil || r == 0 && len(doms) < 4:
				pages := uint64(1 + rng.Intn(24))
				nd, err := h.AdoptSpace(pages)
				if err != nil {
					t.Fatal(err)
				}
				doms = append(doms, nd)
				ref.pages = append(ref.pages, map[uint64]mem.PFN{})
				ref.grant(nd.ID, 0, int(pages))
			case r < 4:
				if !ref.mapped(d.ID, gpn, n, false) {
					continue
				}
				if err := h.Grant(d, gpn<<mem.PageShift, n, pci.DirBidi); err != nil {
					t.Fatal(err)
				}
				ref.grant(d.ID, gpn, n)
			case r < 7:
				if !ref.mapped(d.ID, gpn, n, true) {
					continue
				}
				if err := h.Reclaim(d, gpn<<mem.PageShift, n); err != nil {
					t.Fatal(err)
				}
				ref.reclaim(d.ID, gpn, n)
			default:
				if err := h.Balloon(d, n); err != nil {
					t.Fatal(err)
				}
				ref.balloon(d.ID, n)
			}

			for f := mem.PFN(0); f < ref.next+4; f++ {
				want, ok := ref.owner[f]
				if !ok {
					want = -1
				}
				if got := h.Owner(f); got != want {
					t.Fatalf("seed %d step %d: Owner(%d) = %d, reference %d", seed, step, f, got, want)
				}
			}
			for _, dom := range doms {
				for p := uint64(0); p < max(uint64(len(dom.pages)), gpnSpan+8); p++ {
					var got mem.PFN
					if p < uint64(len(dom.pages)) {
						got = dom.pages[p]
					}
					if want := ref.pages[dom.ID][p]; got != want {
						t.Fatalf("seed %d step %d: domain %d page %d maps frame %d, reference %d", seed, step, dom.ID, p, got, want)
					}
				}
			}
			for probe := 0; probe < 8; probe++ {
				tenant := rng.Intn(len(doms) + 1)
				gpa := uint64(rng.Intn((gpnSpan+8)<<mem.PageShift)) &^ 63
				f := mem.PFN(hostPages - 2 + rng.Intn(int(ref.next)-hostPages+6))
				if rng.Intn(2) == 0 && tenant < len(doms) {
					f = ref.pages[tenant][gpa>>mem.PageShift]
				}
				hpa := f.PA() | mem.PA(gpa&mem.PageMask)
				if rng.Intn(8) == 0 {
					hpa ^= 64
				}
				before := orc.Violations
				counts := make(map[string]uint64, len(orc.ByReason))
				for k, v := range orc.ByReason {
					counts[k] = v
				}
				orc.VerifyStage2(tenant, pci.NewBDF(1, 0, 0), gpa, hpa, 64, pci.DirBidi)
				got := ""
				for _, reason := range audit.TenantReasons() {
					if orc.ByReason[reason] != counts[reason] {
						got = reason
					}
				}
				if want := ref.verdict(tenant, gpa, hpa); got != want || (orc.Violations != before) != (want != "") {
					t.Fatalf("seed %d step %d: tenant %d gpa %#x hpa %#x judged %q, reference %q", seed, step, tenant, gpa, hpa, got, want)
				}
			}
		}
	}
}
