package campaign

import (
	"fmt"

	"riommu/internal/audit"
	"riommu/internal/chaos"
	"riommu/internal/cycles"
	"riommu/internal/driver"
	"riommu/internal/mem"
	"riommu/internal/pci"
	"riommu/internal/sim"
	"riommu/internal/stats"
	"riommu/internal/tenant"
)

// Multi-tenant cell geometry. Guests are deliberately small (2 MiB) so the
// tenant axis can sweep to hundreds of guests without exhausting the memory
// pool; the 64-entry hot-plug NIC profile fits comfortably inside.
const (
	tenantGuestPages = 1 << 9
	// tenantReclaimPages is how many of the hostile guest's top pages the
	// host reclaims (and regrants to a victim) in the stale-replay cell.
	tenantReclaimPages = 4
)

// tenantBDF returns tenant i's workload NIC slot. Tenants spread across
// buses (8 per bus, buses from 1) so the axis scales past 250 guests
// without colliding with the bus-0 single-tenant devices.
func tenantBDF(i int) pci.BDF {
	return pci.NewBDF(uint8(1+i/8), uint8(i%8), 0)
}

// tenantGuest is one tenant's world inside a cell: its guest system, its
// domain in the hypervisor, its workload NIC, and its supervisor, whose
// breaker is the tenant's: every supervisor of the tenant shares it.
type tenantGuest struct {
	dom *tenant.Domain
	sys *sim.System
	mq  *driver.MQNIC
	sup *driver.Supervisor
	bdf pci.BDF
}

// tenantKeys appends, per guest count of at least 2, every hostile-tenant
// scenario (all of them when TenantChaos is empty) over every presentation
// mode.
func tenantKeys(dst []Key, o Options) []Key {
	tchaos := o.TenantChaos
	if len(tchaos) == 0 {
		tchaos = chaos.TenantScenarios()
	}
	for _, n := range o.Tenants {
		if n >= 2 {
			dst = scenarioKeys(dst, Tenants, n, tchaos, sim.AllModes())
		}
	}
	return dst
}

// tenantCell runs one hostile-tenant scenario: k.N guests share one
// hypervisor through nested two-stage translation, every guest pushes NIC
// traffic each round, and tenant 0 — kernel and all — attacks the
// blast-radius guarantees through a second device of its own. The tenant
// oracle judges every stage-2 access against the frame-ownership ledger;
// the per-tenant breakers make sure only the hostile tenant pays. Tenant
// cells inject no faults, so the seed goes unused.
func tenantCell(k Key, _ uint64, o Options) (CellMetrics, error) {
	mode, scenario, rounds, tenants := k.Mode, chaos.TenantScenario(k.Scenario), o.Rounds, k.N
	host, err := tenant.NewHost(64 + 8*uint64(tenants))
	if err != nil {
		return CellMetrics{}, err
	}
	defer host.Close()
	torc := host.EnableAudit()
	host.BalloonQuota = 3 * floodBalloonPages
	host.BalloonWindow = 4_000_000

	gs := make([]*tenantGuest, tenants)
	for i := range gs {
		sys, err := sim.New(sim.Spec{Mode: mode, MemPages: tenantGuestPages, Audit: true})
		if err != nil {
			return CellMetrics{}, err
		}
		defer sys.Close()
		dom, err := host.AdoptSystem(sys)
		if err != nil {
			return CellMetrics{}, err
		}
		bdf := tenantBDF(i)
		mq, err := host.AttachDevice(dom, hotplugProfile(), bdf, 1)
		if err != nil {
			return CellMetrics{}, err
		}
		// Trip on a small per-window budget and hold the quarantine for
		// longer than the cell runs: a hostile tenant stays out.
		br := driver.NewBreaker()
		br.Budget = 6
		br.BackoffCycles = 5_000_000
		br.MaxBackoffCycles = 5_000_000
		br.AddIsolator(sys.IsolatorFor(bdf))
		sup := driver.NewSupervisor(sys.CPU, bdf, mq)
		sup.Breaker = br
		gs[i] = &tenantGuest{dom: dom, sys: sys, mq: mq, sup: sup, bdf: bdf}
	}

	// Tenant 0 is hostile: a second device of its own (function 1 of its
	// workload slot) carries the attacks, so the workload NIC's ring
	// bookkeeping never desynchronizes from a faulted probe.
	h0 := gs[0]
	atkBDF := pci.NewBDF(1, 0, 1)
	aprot, err := h0.sys.ProtectionFor(atkBDF, []uint32{64})
	if err != nil {
		return CellMetrics{}, err
	}
	if err := host.Register(h0.dom, atkBDF); err != nil {
		return CellMetrics{}, err
	}
	h0.sup.Breaker.AddIsolator(h0.sys.IsolatorFor(atkBDF))
	hostile := chaos.NewHostileTenant(h0.sys.Eng, aprot, atkBDF)
	asup := driver.NewSupervisor(h0.sys.CPU, atkBDF, h0.mq)
	asup.MaxAttempts = 1 // attacks are not retried (or "recovered")
	asup.Breaker = h0.sup.Breaker

	victims := make([]pci.BDF, 0, tenants-1)
	for _, g := range gs[1:] {
		victims = append(victims, g.bdf)
	}
	if len(victims) > 4 {
		victims = victims[:4] // spoof probes at most 4 victims per round
	}

	// The stale-replay choreography: stage-1 windows over guest frames the
	// hostile kernel owns, warmed once while still granted, reclaimed (and
	// regranted to victim 1 — the LIFO frame allocator guarantees the very
	// same host frames) a third of the way in.
	var reclaimBase uint64
	reclaimAt := rounds / 3
	if scenario == chaos.S2StaleReplay {
		first, err := h0.sys.Mem.AllocFrames(tenantReclaimPages)
		if err != nil {
			return CellMetrics{}, fmt.Errorf("allocating stale-window frames: %w", err)
		}
		reclaimBase = uint64(first.PA())
		gpas := make([]uint64, tenantReclaimPages)
		for i := range gpas {
			gpas[i] = reclaimBase + uint64(i)<<mem.PageShift
		}
		if err := hostile.PlantStale(gpas); err != nil {
			return CellMetrics{}, err
		}
		if err := hostile.Replay(); err != nil {
			return CellMetrics{}, fmt.Errorf("warming stale windows: %w", err)
		}
	}
	overreachBase := uint64(tenantGuestPages) << mem.PageShift

	payload := nicPayload()
	for round := 0; round < rounds; round++ {
		for _, g := range gs {
			mq := g.mq
			_ = g.sup.Do(func() error { return mqTraffic(mq, payload) })
		}
		switch scenario {
		case chaos.S2StaleReplay:
			if round == reclaimAt {
				if err := host.Reclaim(h0.dom, reclaimBase, tenantReclaimPages); err != nil {
					return CellMetrics{}, fmt.Errorf("reclaiming hostile pages: %w", err)
				}
				victimGrant := uint64(tenantGuestPages) << mem.PageShift
				if err := host.Grant(gs[1].dom, victimGrant, tenantReclaimPages, pci.DirBidi); err != nil {
					return CellMetrics{}, fmt.Errorf("regranting to victim: %w", err)
				}
			}
			if round > reclaimAt {
				_ = asup.Do(hostile.Replay)
			}
		case chaos.GPAOverreach:
			_ = asup.Do(func() error { return hostile.Overreach(overreachBase) })
		case chaos.BDFSpoof:
			_ = asup.Do(func() error { return hostile.Spoof(victims) })
		case chaos.S2InvFlood:
			_ = asup.Do(func() error {
				err := host.Balloon(h0.dom, floodBalloonPages)
				hostile.Record(err)
				return err
			})
		}
	}

	c := CellMetrics{Chaos: hostile.Stats}
	c.Recovery = h0.sup.Stats
	addRecovery(&c.Recovery, asup.Stats)

	// Hypervisor-level truth: the tenant oracle and the stage-2 counters.
	c.Audited = true
	c.TenantChecked = torc.Checked
	c.TenantViolations = torc.Violations
	c.CrossTenant = torc.CrossTenant
	c.TenantByReason = make(map[string]uint64, len(audit.TenantReasons()))
	for _, r := range audit.TenantReasons() {
		c.TenantByReason[r] = torc.ByReason[r]
	}
	for _, dom := range host.Domains() {
		c.S2Hits += dom.S2Hits
		c.S2Misses += dom.S2Misses
		c.S2Faults += dom.S2Faults
		c.Ballooned += dom.Ballooned
	}
	c.S2Cycles = host.Clk.Total(cycles.Stage2)
	c.SpoofBlocked = host.SpoofBlocked
	c.Throttled = host.Throttled

	// Guest-level aggregates: stage-1 audit verdicts, packets, and cycles
	// summed across every guest (each guest has its own virtual clock).
	var pkts, cyc uint64
	c.ByReason = make(map[string]uint64, len(audit.Reasons()))
	for _, g := range gs {
		if orc := g.sys.Auditor; orc != nil {
			c.Checked += orc.Checked
			c.Violations += orc.Violations
			for _, r := range audit.Reasons() {
				c.ByReason[r] += orc.ByReason[r]
			}
		}
		pkts += mqPackets(g.mq)
		cyc += g.sys.CPU.Now()
		c.RecoveryCycles += g.sys.CPU.Total(cycles.Recovery)
	}
	if pkts > 0 {
		c.CyclesPerOp = float64(cyc) / float64(pkts)
	}

	// Blast-radius verdict: the hostile tenant's availability (its breaker
	// trips take its whole fleet down) against the worst victim's, which
	// must be exactly 1.0 — no victim ever sees a failed operation. A
	// re-admission is counted at each probe, which re-admits the fleet.
	for _, g := range gs {
		c.TenantQuarantines += g.sup.Breaker.Quarantines
		c.Readmissions += g.sup.Breaker.Probes
	}
	c.BreakerTrips = h0.sup.Breaker.Trips
	recordSLO(&c, h0.sup.SLO(), h0.sys.CPU.Now())
	c.HostileAvailability = c.Availability
	c.VictimAvailability = 1
	for _, g := range gs[1:] {
		if av := g.sup.SLO().Availability(g.sys.CPU.Now()); av < c.VictimAvailability {
			c.VictimAvailability = av
		}
	}
	return c, nil
}

// floodBalloonPages is the hostile balloon burst per round; the host quota
// admits three bursts per window before throttling.
const floodBalloonPages = 8

func tenantTable(r Result, cells []int) string {
	t := stats.NewTable(
		fmt.Sprintf("Multi-tenant campaign — hostile tenant 0, %d rounds/cell", r.Opts.Rounds),
		"mode", "scenario", "tenants", "attempts", "contained", "xten", "tviol", "s2miss", "spoofblk", "throttle", "quar", "victim avail", "hostile avail")
	t.AlignLeft(0).AlignLeft(1)
	for _, i := range cells {
		k, c := r.Keys[i], r.Cells[i]
		t.Row(k.Mode.String(), k.Scenario, k.N, c.Chaos.Attempts,
			c.Chaos.Contained, c.CrossTenant, c.TenantViolations, c.S2Misses,
			c.SpoofBlocked, c.Throttled, c.TenantQuarantines,
			fmt.Sprintf("%.4f", c.VictimAvailability),
			fmt.Sprintf("%.4f", c.HostileAvailability))
	}
	return t.String()
}

// CrossTenantViolationsGate checks the multi-tenant containment claims and
// returns one failure message per broken expectation:
//
//   - zero cross-tenant accesses and zero tenant-oracle violations of any
//     kind, in every mode — stage 2 answers to no stage-1 weakness;
//   - liveness: the oracle checked accesses, stage-2 walks actually ran,
//     the hostile tenant actually attacked, and its attacks were contained
//     (or, for the invalidation flood, throttled);
//   - the device directory blocked spoofs even in the unprotected mode;
//   - blast radius: the hostile tenant was quarantined and shows downtime,
//     while every victim stayed at exactly 100% availability.
func (r Result) CrossTenantViolationsGate() []string {
	var fails []string
	for i, k := range r.Keys {
		if !r.done(i) || k.Family != Tenants {
			continue
		}
		c := r.Cells[i]
		if c.CrossTenant != 0 {
			fails = append(fails, fmt.Sprintf("%s: %d cross-tenant accesses — blast radius broken", k, c.CrossTenant))
		}
		if c.TenantViolations != 0 {
			fails = append(fails, fmt.Sprintf("%s: %d tenant-oracle violations", k, c.TenantViolations))
		}
		if c.TenantChecked == 0 {
			fails = append(fails, fmt.Sprintf("%s: tenant oracle verified nothing — oracle asleep", k))
		}
		if c.S2Misses == 0 {
			fails = append(fails, fmt.Sprintf("%s: zero stage-2 walks — nested translation not exercised", k))
		}
		if c.Chaos.Attempts == 0 {
			fails = append(fails, fmt.Sprintf("%s: hostile tenant never attacked", k))
		}
		switch chaos.TenantScenario(k.Scenario) {
		case chaos.S2StaleReplay, chaos.GPAOverreach, chaos.BDFSpoof:
			if c.Chaos.Contained == 0 {
				fails = append(fails, fmt.Sprintf("%s: no hostile probe was contained", k))
			}
		case chaos.S2InvFlood:
			if c.Throttled == 0 {
				fails = append(fails, fmt.Sprintf("%s: balloon flood never throttled", k))
			}
		}
		if k.Scenario == string(chaos.BDFSpoof) && k.Mode == sim.None && c.SpoofBlocked == 0 {
			fails = append(fails, fmt.Sprintf("%s: device directory blocked nothing in the unprotected mode", k))
		}
		if c.TenantQuarantines == 0 {
			fails = append(fails, fmt.Sprintf("%s: hostile tenant never quarantined", k))
		}
		if c.HostileAvailability >= 1 {
			fails = append(fails, fmt.Sprintf("%s: hostile tenant shows no downtime (availability %.4f)", k, c.HostileAvailability))
		}
		if c.VictimAvailability != 1 {
			fails = append(fails, fmt.Sprintf("%s: victim availability %.4f — quarantine leaked across tenants", k, c.VictimAvailability))
		}
	}
	return fails
}
