// Package campaign runs deterministic fault-injection campaigns against the
// simulated systems: it sweeps fault rates across the safe protection modes,
// drives supervised NIC / NVMe / SATA workloads through the injection
// window, and reports how the recovery layer held up.
//
// The campaign is a flat cell grid built from cell families (the families
// table): the base device x mode x rate sweep with a fault-free anchor cell
// per NIC mode, then one family per optional axis. Every cell builds its own
// simulation world and derives its fault-engine seed from the base seed and
// the cell's identity alone (parallel.CellSeed), never from which worker ran
// it — so the merged result is byte-identical for any worker count, and CI
// can diff rendered output across code changes.
package campaign

import (
	"fmt"
	"strconv"
	"strings"

	"riommu/internal/audit"
	"riommu/internal/chaos"
	"riommu/internal/cycles"
	"riommu/internal/detrand"
	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/faults"
	"riommu/internal/parallel"
	"riommu/internal/pci"
	"riommu/internal/perfmodel"
	"riommu/internal/sim"
	"riommu/internal/stats"
)

var (
	nicBDF   = pci.NewBDF(0, 3, 0)
	nvmeBDF  = pci.NewBDF(0, 4, 0)
	sataBDF  = pci.NewBDF(0, 5, 0)
	churnBDF = pci.NewBDF(0, 6, 0)  // inv-flood's map/unmap churn device
	msiBDF   = pci.NewBDF(0, 66, 6) // hostile MSI source's requester id
)

// SafeModes are the modes the recovery story covers: the deferred modes
// trade protection for speed and the pass-through modes have nothing to
// degrade to, so campaigns stick to gap-free protection (§5.1).
var SafeModes = []sim.Mode{sim.Strict, sim.StrictPlus, sim.RIOMMUMinus, sim.RIOMMU}

// ChaosModes are the modes the hostile-device cells sweep. Unlike the
// recovery sweep, the chaos sweep deliberately includes the deferred modes:
// quantifying their stale-IOTLB window against the violation-free safe modes
// is the point of the audit.
var ChaosModes = []sim.Mode{sim.Strict, sim.StrictPlus, sim.Defer, sim.DeferPlus, sim.RIOMMUMinus, sim.RIOMMU}

// The hot-plug storm scenarios. Unlike the chaos scenarios (which live in
// internal/chaos and need only a hostile device), these orchestrate topology
// churn through the sim layer's lifecycle state machine, so the campaign owns
// their names.
const (
	// HotplugAttachStorm cycles attach → traffic → surprise-removal →
	// replug repeatedly, with completions latched at every yank.
	HotplugAttachStorm = "attach-storm"
	// HotplugDMAEarly has the device DMA before the OS ever attached it —
	// every access must fault in the protected modes.
	HotplugDMAEarly = "dma-before-attach"
	// HotplugSurprise is one mid-campaign surprise removal with mappings and
	// in-flight invalidations live, followed by quarantine and an operator
	// replug.
	HotplugSurprise = "surprise-remove"
)

// HotplugScenarios returns every hot-plug scenario in canonical order.
func HotplugScenarios() []string {
	return []string{HotplugAttachStorm, HotplugDMAEarly, HotplugSurprise}
}

// ParseHotplug parses a comma-separated hot-plug scenario list; "all"
// selects every scenario.
func ParseHotplug(s string) ([]string, error) {
	return chaos.ParseList(s, "hot-plug scenario", HotplugScenarios())
}

// ParseModes resolves a comma-separated mode list against SafeModes.
func ParseModes(s string) ([]sim.Mode, error) {
	var out []sim.Mode
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, m := range SafeModes {
			if m.String() == name {
				out = append(out, m)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown or unsafe mode %q (want one of strict, strict+, riommu-, riommu)", name)
		}
	}
	return out, nil
}

// ParseCounts parses a comma-separated list of counts for the axis called
// name, each within [lo, hi] ("" → none).
func ParseCounts(s, name string, lo, hi int) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad %s value %q: %w", name, f, err)
		}
		if n < lo || n > hi {
			return nil, fmt.Errorf("%s %d out of [%d,%d]", name, n, lo, hi)
		}
		out = append(out, n)
	}
	return out, nil
}

// ParseRates parses a comma-separated list of per-opportunity fault rates.
func ParseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		if !(r >= 0 && r <= 1) { // also rejects NaN
			return nil, fmt.Errorf("rate %v out of [0,1]", r)
		}
		out = append(out, r)
	}
	return out, nil
}

// Options selects the campaign grid.
type Options struct {
	Seed   uint64
	Rates  []float64
	Modes  []sim.Mode
	Rounds int
	// Workers is the cell-level fan-out (see parallel.Workers); 1 runs the
	// legacy serial path.
	Workers int
	// Audit runs every cell with the shadow translation oracle attached
	// (audit.Oracle is a pure observer, so legacy metrics are unchanged).
	Audit bool
	// Chaos appends hostile-device cells: each scenario runs against every
	// ChaosModes mode. Chaos cells are always audited.
	Chaos []chaos.Scenario
	// Cores appends multi-queue scale-out cells: for each entry > 1, every
	// mode × rate runs against an MQNIC with that many queue pairs (one
	// supervised recovery domain for the whole port). Legacy single-queue
	// cells are untouched.
	Cores []int
	// IntChaos appends hostile-MSI cells: each interrupt scenario runs
	// against every presentation mode (sim.AllModes) with the interrupt
	// oracle attached.
	IntChaos []chaos.IntScenario
	// Hotplug appends topology-churn cells: each hot-plug scenario runs
	// against every presentation mode, driving the lifecycle state machine
	// under audit.
	Hotplug []string
	// Tenants appends multi-tenant cells: for each entry ≥ 2, every hostile-
	// tenant scenario in TenantChaos runs against every presentation mode
	// with that many guests sharing one hypervisor (tenant 0 hostile, the
	// rest victims). Tenant cells are always audited at both stages.
	Tenants []int
	// TenantChaos selects the hostile-tenant scenarios the Tenants axis
	// sweeps (defaults to all when Tenants is set and this is empty).
	TenantChaos []chaos.TenantScenario
	// Churn appends fleet-traffic cells: for each target connection count,
	// every mode runs the internal/traffic engine (connection churn,
	// heavy-tailed mixes, mixed kernel/bypass paths) under the shadow
	// oracle. Churn cells are always audited.
	Churn []int
}

// Family is a kind of campaign cell. It indexes the families table.
type Family uint8

// The cell families in grid order. Each family was appended after the
// previous ones, so turning an axis on is a pure insertion: every other
// cell keeps its grid position and identity.
const (
	Base     Family = iota // per mode a clean NIC anchor and NIC rate cells, then NVMe and SATA rate cells
	Cores                  // multi-queue NIC rate cells per queue count
	Chaos                  // hostile-device cells over ChaosModes
	IntChaos               // hostile-MSI cells over every presentation mode
	Hotplug                // topology-churn cells over every presentation mode
	Tenants                // hostile-tenant cells per guest count over every presentation mode
	Churn                  // fleet-traffic cells per connection count
)

// A family is everything one kind of cell needs. Grid, Run, BuildReport and
// Render reach it through Key.Family.
type family struct {
	// keys appends the family's cells to dst in grid order.
	keys func(dst []Key, o Options) []Key
	// run measures one cell.
	run func(k Key, seed uint64, o Options) (CellMetrics, error)
	// report adds the family's own metrics to a cell's report (nil: none).
	report func(m map[string]float64, c CellMetrics)
	// table renders the family's cells, given as indices into r.Keys.
	table func(r Result, cells []int) string
}

var families = [...]family{
	Base:     {keys: baseKeys, run: baseCell, table: baseTable},
	Cores:    {keys: coresKeys, run: mqCell, table: coresTable},
	Chaos:    {keys: chaosKeys, run: chaosCell, report: breakerMetrics, table: chaosTable},
	IntChaos: {keys: intchaosKeys, run: intchaosCell, report: intchaosMetrics, table: intchaosTable},
	Hotplug:  {keys: hotplugKeys, run: hotplugCell, report: hotplugMetrics, table: hotplugTable},
	Tenants:  {keys: tenantKeys, run: tenantCell, report: tenantMetrics, table: tenantTable},
	Churn:    {keys: churnKeys, run: churnCell, table: churnTable},
}

// Key identifies one campaign cell.
type Key struct {
	Family Family
	Device string // "nic", "nvme" or "sata"
	Mode   sim.Mode
	Rate   float64 // base and cores cells' fault rate
	// Clean marks the base family's fault-free NIC anchor cell that the
	// throughput degradation column is measured against.
	Clean bool
	// Scenario names a chaos, intchaos, hotplug or tenants cell's attack.
	Scenario string
	// N is a cores cell's queue pairs, a tenants cell's guests or a churn
	// cell's modeled concurrent connections.
	N int
}

// String is the cell's stable identity; per-cell seeds derive from it.
func (k Key) String() string {
	switch k.Family {
	case Cores:
		return fmt.Sprintf("%s/%s/cores=%d/r=%g", k.Device, k.Mode, k.N, k.Rate)
	case Chaos:
		return fmt.Sprintf("%s/%s/chaos=%s", k.Device, k.Mode, k.Scenario)
	case IntChaos:
		return fmt.Sprintf("%s/%s/intchaos=%s", k.Device, k.Mode, k.Scenario)
	case Hotplug:
		return fmt.Sprintf("%s/%s/hotplug=%s", k.Device, k.Mode, k.Scenario)
	case Tenants:
		return fmt.Sprintf("%s/%s/tenants=%d/tchaos=%s", k.Device, k.Mode, k.N, k.Scenario)
	case Churn:
		return fmt.Sprintf("%s/%s/churn=%d", k.Device, k.Mode, k.N)
	}
	if k.Clean {
		return k.Device + "/" + k.Mode.String() + "/clean"
	}
	return fmt.Sprintf("%s/%s/r=%g", k.Device, k.Mode, k.Rate)
}

// scenarioKeys appends one NIC cell of family f per scenario x mode; n is
// the cells' count, for a family that has one.
func scenarioKeys[S ~string](dst []Key, f Family, n int, scenarios []S, modes []sim.Mode) []Key {
	for _, sc := range scenarios {
		for _, m := range modes {
			dst = append(dst, Key{Family: f, Device: "nic", Mode: m, Scenario: string(sc), N: n})
		}
	}
	return dst
}

// CellMetrics is what one campaign cell measured.
type CellMetrics struct {
	Injected       uint64
	Recovery       driver.RecoveryStats
	RecoveryCycles uint64 // CPU cycles charged to recovery work
	CyclesPerOp    float64
	Gbps           float64 // NIC cells only
	// ByClass counts injected faults per fault class (NIC cells only).
	ByClass map[string]uint64

	// Audit results (cells run with the oracle attached).
	Audited      bool
	Checked      uint64 // DMA chunks verified
	Violations   uint64
	ByReason     map[string]uint64
	ViolPerMPkts float64 // violations per million packets (NIC cells)

	// Chaos cells only: hostile-device outcomes and the recovery SLO.
	Chaos          chaos.Stats
	Outages        uint64
	DowntimeCycles uint64
	MTTRCycles     float64
	Availability   float64
	BreakerTrips   uint64
	Readmissions   uint64

	// Interrupt-remapping results (intchaos and hotplug cells).
	IntDelivered  uint64
	IntBlocked    uint64
	IntViolations uint64
	IntByReason   map[string]uint64

	// Hot-plug cells only: lifecycle churn and ghost behavior.
	Attaches        uint64
	Removals        uint64
	Quarantines     uint64
	GhostDeliveries uint64 // interrupts delivered while the slot was removed

	// Churn cells only: fleet-traffic outcomes from internal/traffic.
	DataPackets   uint64
	Opens, Closes uint64 // flow churn (steering-buffer map/unmap storms)
	BypassPackets uint64
	AppDigest     uint64 // application byte-stream digest (path-invariant)
	MapDigest     uint64 // protection-boundary mapping-history digest

	// Tenant cells only: the hypervisor-level truth. TenantChecked /
	// TenantViolations / CrossTenant come from the tenant oracle (stage-2
	// accesses verified against the host's frame-ownership ledger);
	// CrossTenant ≠ 0 means a DMA reached another tenant's frame — the one
	// number the whole design exists to keep at zero.
	TenantChecked    uint64
	TenantViolations uint64
	CrossTenant      uint64
	TenantByReason   map[string]uint64
	// Stage-2 path counters summed over every domain, plus the cycles the
	// host's stage2 clock component accumulated.
	S2Hits, S2Misses uint64
	S2Faults         uint64
	S2Cycles         uint64
	SpoofBlocked     uint64 // DMAs refused by the device directory / stage 1
	Ballooned        uint64 // balloon pages the host actually remapped
	Throttled        uint64 // balloon hypercalls bounced by the quota
	// TenantQuarantines counts tenant-wide quarantines (the tenant
	// breakers' trips and failed probes); the availability pair is the
	// blast-radius verdict: the hostile tenant pays with downtime, every
	// victim must stay at exactly 1.0.
	TenantQuarantines   uint64
	HostileAvailability float64
	VictimAvailability  float64
}

// Result pairs the grid with its measurements, cell i of Keys in Cells[i].
// Completed[i] is false for a cell whose run returned an error; a nil
// Completed means every cell finished.
type Result struct {
	Opts      Options
	Keys      []Key
	Cells     []CellMetrics
	Completed []bool
}

// done reports whether cell i produced metrics.
func (r Result) done(i int) bool {
	return r.Completed == nil || r.Completed[i]
}

// Grid enumerates the campaign cells in canonical order: each family's
// cells in turn, in the order of the families table. Output order is always
// this order, independent of scheduling.
func (o Options) Grid() []Key {
	var keys []Key
	for _, f := range families {
		keys = f.keys(keys, o)
	}
	return keys
}

// Run executes the whole grid, fanning cells across opts.Workers workers.
// Every cell runs even when one fails: a failed cell has Completed[i] ==
// false, and the error returned is the lowest-index failed cell's.
func Run(opts Options) (Result, error) {
	keys := opts.Grid()
	res := Result{Opts: opts, Keys: keys, Cells: make([]CellMetrics, len(keys)), Completed: make([]bool, len(keys))}
	err := parallel.Run(opts.Workers, len(keys), func(i int) error {
		k := keys[i]
		c, err := families[k.Family].run(k, parallel.CellSeed(opts.Seed, k.String()), opts)
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		res.Cells[i], res.Completed[i] = c, true
		return nil
	})
	return res, err
}

// Render produces the human-readable campaign tables from a merged result:
// one table per family that has cells, in family order. It walks Keys in
// grid order only, so its output is worker-count independent.
func (r Result) Render() string {
	var cells [len(families)][]int
	for i, k := range r.Keys {
		cells[k.Family] = append(cells[k.Family], i)
	}
	var tables []string
	for f, idx := range cells {
		if len(idx) > 0 {
			tables = append(tables, families[f].table(r, idx))
		}
	}
	return strings.Join(tables, "\n")
}

// spec is a cell's world: pages of memory, the fault engine seeded from the
// cell at the key's rate (0 outside the base and cores families), the
// shadow translation oracle when audited, and in the interrupt and
// hot-plug families the interrupt remapper (with its oracle, since those
// cells are always audited).
func spec(k Key, seed, pages uint64, audited bool) sim.Spec {
	return sim.Spec{
		Mode: k.Mode, MemPages: pages,
		Inject: true, Faults: faults.UniformConfig(seed, k.Rate),
		Audit: audited, IntRemap: k.Family == IntChaos || k.Family == Hotplug,
	}
}

// nicPayload is the 1 KiB frame every NIC cell sends and receives.
func nicPayload() []byte {
	p := make([]byte, 1024)
	for i := range p {
		p[i] = byte(i)
	}
	return p
}

// soak runs rounds supervised operations. Failed operations are the
// campaign's subject, not an error: the supervisor counts them and the
// watchdog clears any wedge. A failed watchdog recovery fails the cell.
func soak(sup *driver.Supervisor, rounds int, op func() error) error {
	for round := 0; round < rounds; round++ {
		_ = sup.Do(op)
		if _, err := sup.Watch(); err != nil {
			return fmt.Errorf("watchdog recovery failed: %w", err)
		}
	}
	return nil
}

// tally fills in what every supervised cell reports once its rounds are
// done: injections, recovery cycles, cycles per operation over ops and the
// shadow oracles' verdicts.
func tally(c *CellMetrics, sys *sim.System, ops uint64) {
	c.Injected = sys.FaultEng.TotalInjected()
	c.RecoveryCycles = sys.CPU.Total(cycles.Recovery)
	if ops > 0 {
		c.CyclesPerOp = float64(sys.CPU.Now()) / float64(ops)
	}
	recordAudit(c, sys.Auditor, ops)
	recordIntAudit(c, sys)
}

// tallyNIC is tally for a NIC cell that moved pkts packets, adding the
// model's Gbps and the injected faults by class.
func tallyNIC(c *CellMetrics, sys *sim.System, pkts uint64) {
	tally(c, sys, pkts)
	c.ByClass = map[string]uint64{}
	for _, cl := range faults.Classes() {
		c.ByClass[cl.String()] = sys.FaultEng.Count(cl)
	}
	if pkts > 0 {
		c.Gbps = perfmodel.Gbps(sys.Model, c.CyclesPerOp, device.ProfileBRCM.LineRateGbps)
	}
}

// recordAudit copies the oracle's verdicts into the cell (every reason key
// is present so report columns are stable).
func recordAudit(c *CellMetrics, orc *audit.Oracle, pkts uint64) {
	if orc == nil {
		return
	}
	c.Audited = true
	c.Checked = orc.Checked
	c.Violations = orc.Violations
	c.ByReason = make(map[string]uint64, len(audit.Reasons()))
	for _, r := range audit.Reasons() {
		c.ByReason[r] = orc.ByReason[r]
	}
	if pkts > 0 {
		c.ViolPerMPkts = float64(orc.Violations) * 1e6 / float64(pkts)
	}
}

// recordIntAudit copies the remapper's counters and the interrupt oracle's
// verdicts into the cell (every reason key present for stable columns).
func recordIntAudit(c *CellMetrics, sys *sim.System) {
	rem, orc := sys.IntRemap, sys.IntAuditor
	if rem == nil || orc == nil {
		return
	}
	st := rem.Stats()
	c.IntDelivered = st.Delivered
	c.IntBlocked = st.Blocked()
	c.IntViolations = orc.Violations
	c.IntByReason = make(map[string]uint64, len(audit.IntReasons()))
	for _, r := range audit.IntReasons() {
		c.IntByReason[r] = orc.ByReason[r]
	}
}

// recordSLO copies an outage ledger into the cell, with availability
// measured over now cycles.
func recordSLO(c *CellMetrics, slo driver.SLOStats, now uint64) {
	c.Outages = slo.Outages
	c.DowntimeCycles = slo.DowntimeCycles
	c.MTTRCycles = slo.MTTRCycles()
	c.Availability = slo.Availability(now)
}

// addRecovery accumulates one supervisor's recovery counters into the cell
// (hot-plug cells re-supervise after every replug).
func addRecovery(dst *driver.RecoveryStats, s driver.RecoveryStats) {
	dst.Retries += s.Retries
	dst.Recoveries += s.Recoveries
	dst.WatchdogFires += s.WatchdogFires
	dst.Degradations += s.Degradations
	dst.Unrecovered += s.Unrecovered
	dst.Rejected += s.Rejected
}

// nicRound is one round of single-queue NIC traffic: send, pump and reap a
// payload, then deliver and reap its echo. midTx, if set, runs while the Tx
// buffer is still mapped.
func nicRound(drv *driver.NICDriver, payload []byte, midTx func()) error {
	if err := drv.Send(payload); err != nil {
		return err
	}
	if _, err := drv.PumpTx(2); err != nil {
		return err
	}
	if midTx != nil {
		midTx()
	}
	if _, err := drv.ReapTx(); err != nil {
		return err
	}
	if err := drv.Deliver(payload); err != nil {
		return err
	}
	_, err := drv.ReapRx()
	return err
}

// mqTraffic is one round of bidirectional traffic on a multi-queue NIC:
// one payload per queue round-robin, every transmit path drained, then
// return traffic on every queue. The reap paths fire any latched
// completion interrupts.
func mqTraffic(mq *driver.MQNIC, payload []byte) error {
	for q := 0; q < len(mq.Queues); q++ {
		if err := mq.Send(payload); err != nil {
			return err
		}
	}
	if _, err := mq.PumpAndReapAll(); err != nil {
		return err
	}
	for q := 0; q < len(mq.Queues); q++ {
		if err := mq.Deliver(q, payload); err != nil {
			return err
		}
	}
	_, err := mq.ReapRxAll()
	return err
}

// mqPackets counts the packets every queue of mq moved.
func mqPackets(mq *driver.MQNIC) uint64 {
	var pkts uint64
	for q := 0; q < len(mq.Queues); q++ {
		nic := mq.NIC(q)
		pkts += nic.TxPackets + nic.RxPackets
	}
	return pkts
}

// breakerSupervise supervises the NIC under a circuit breaker that
// quarantines its BDF.
func breakerSupervise(sys *sim.System, target driver.Recoverable) *driver.Supervisor {
	sup := sys.Supervise(nicBDF, target)
	sup.Breaker = driver.NewBreaker()
	sup.Breaker.AddIsolator(sys.IsolatorFor(nicBDF))
	return sup
}

// recordBreaker copies a breaker-supervised attack cell's attack outcomes,
// outage ledger and breaker counters into the cell.
func recordBreaker(c *CellMetrics, sys *sim.System, sup *driver.Supervisor, attacks chaos.Stats) {
	c.Chaos = attacks
	recordSLO(c, sup.SLO(), sys.CPU.Now())
	c.BreakerTrips = sup.Breaker.Trips
	c.Readmissions = sup.Breaker.Readmissions
}

func baseKeys(dst []Key, o Options) []Key {
	for _, m := range o.Modes {
		dst = append(dst, Key{Device: "nic", Mode: m, Clean: true})
		for _, r := range o.Rates {
			dst = append(dst, Key{Device: "nic", Mode: m, Rate: r})
		}
	}
	for _, dev := range []string{"nvme", "sata"} {
		for _, m := range o.Modes {
			for _, r := range o.Rates {
				dst = append(dst, Key{Device: dev, Mode: m, Rate: r})
			}
		}
	}
	return dst
}

// baseCell soaks a supervised NIC or block device under uniform injection
// at the key's rate.
func baseCell(k Key, seed uint64, o Options) (CellMetrics, error) {
	if k.Device == "nic" {
		return nicCell(k, seed, o)
	}
	return blockCell(k, seed, o)
}

func nicCell(k Key, seed uint64, o Options) (CellMetrics, error) {
	sys, err := sim.New(spec(k, seed, 1<<15, o.Audit))
	if err != nil {
		return CellMetrics{}, err
	}
	defer sys.Close()
	drv, nic, err := sys.AttachNIC(device.ProfileBRCM, nicBDF)
	if err != nil {
		return CellMetrics{}, err
	}
	sup := sys.Supervise(nicBDF, drv)
	payload := nicPayload()
	if err := soak(sup, o.Rounds, func() error { return nicRound(drv, payload, nil) }); err != nil {
		return CellMetrics{}, err
	}
	c := CellMetrics{Recovery: sup.Stats}
	tallyNIC(&c, sys, nic.TxPackets+nic.RxPackets)
	return c, nil
}

// blockCell drives a block-device driver (NVMe or AHCI/SATA) through a
// supervised write/complete loop.
func blockCell(k Key, seed uint64, o Options) (CellMetrics, error) {
	sys, err := sim.New(spec(k, seed, 1<<14, o.Audit))
	if err != nil {
		return CellMetrics{}, err
	}
	defer sys.Close()
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i * 3)
	}

	var (
		target driver.Recoverable
		op     func() error
		bdf    pci.BDF
	)
	switch k.Device {
	case "nvme":
		bdf = nvmeBDF
		prot, err := sys.ProtectionFor(bdf, []uint32{4, 64, 64})
		if err != nil {
			return CellMetrics{}, err
		}
		d, err := driver.NewNVMeDriver(sys.Mem, prot, sys.Eng, bdf, 4096, 128, 8)
		if err != nil {
			return CellMetrics{}, err
		}
		lba := uint64(0)
		target = d
		op = func() error {
			if _, err := d.Write(lba%64, payload); err != nil {
				return err
			}
			lba++
			_, err := d.Poll(8)
			return err
		}
	case "sata":
		bdf = sataBDF
		prot, err := sys.ProtectionFor(bdf, []uint32{4, 64, 64})
		if err != nil {
			return CellMetrics{}, err
		}
		d := driver.NewSATADriver(sys.Mem, prot, sys.Eng, bdf, 4096, 256)
		// Cell-local deterministic source, never the global math/rand
		// state: the stream depends only on the cell's seed.
		rng := detrand.New(int64(seed))
		lba := uint64(0)
		target = d
		op = func() error {
			if _, err := d.SubmitWrite(lba%64, payload); err != nil {
				return err
			}
			lba++
			_, err := d.CompleteAll(rng)
			return err
		}
	default:
		return CellMetrics{}, fmt.Errorf("unknown block device %q", k.Device)
	}

	sup := sys.Supervise(bdf, target)
	if err := soak(sup, o.Rounds, op); err != nil {
		return CellMetrics{}, err
	}
	c := CellMetrics{Recovery: sup.Stats}
	tally(&c, sys, target.Progress())
	return c, nil
}

// baseTable renders the NIC rate cells against their mode's clean anchor,
// the faults they injected by class, and the block-device cells.
func baseTable(r Result, cells []int) string {
	clean := map[sim.Mode]CellMetrics{}
	for _, i := range cells {
		if k := r.Keys[i]; k.Clean {
			clean[k.Mode] = r.Cells[i]
		}
	}
	nicTab := stats.NewTable(
		fmt.Sprintf("NIC campaign — %s, %d rounds/cell", device.ProfileBRCM.Name, r.Opts.Rounds),
		"mode", "rate", "injected", "recov", "retries", "wdog", "degrade", "unrec", "cyc/pkt", "Gbps", "vs clean")
	nicTab.AlignLeft(0)
	blkTab := stats.NewTable(
		fmt.Sprintf("Block-device campaign — %d rounds/cell", r.Opts.Rounds),
		"device", "mode", "rate", "injected", "recov", "retries", "wdog", "unrec", "recovery cyc", "cyc/cmd")
	blkTab.AlignLeft(0).AlignLeft(1)
	var byClass stats.Counters
	for _, i := range cells {
		k, c := r.Keys[i], r.Cells[i]
		switch {
		case k.Clean:
		case k.Device == "nic":
			for _, cl := range faults.Classes() {
				byClass.Add(cl.String(), c.ByClass[cl.String()])
			}
			vs := "n/a"
			if anchor := clean[k.Mode]; anchor.Gbps > 0 {
				vs = fmt.Sprintf("%.1f%%", 100*c.Gbps/anchor.Gbps)
			}
			nicTab.Row(k.Mode.String(), fmt.Sprintf("%g", k.Rate), c.Injected, c.Recovery.Recoveries,
				c.Recovery.Retries, c.Recovery.WatchdogFires, c.Recovery.Degradations,
				c.Recovery.Unrecovered, c.CyclesPerOp, c.Gbps, vs)
		default:
			blkTab.Row(k.Device, k.Mode.String(), fmt.Sprintf("%g", k.Rate), c.Injected,
				c.Recovery.Recoveries, c.Recovery.Retries, c.Recovery.WatchdogFires,
				c.Recovery.Unrecovered, c.RecoveryCycles, c.CyclesPerOp)
		}
	}
	return nicTab.String() + "\n" +
		byClass.Table("Injected faults by class (NIC sweep total)").String() + "\n" +
		blkTab.String()
}

func coresKeys(dst []Key, o Options) []Key {
	for _, n := range o.Cores {
		if n <= 1 {
			continue
		}
		for _, m := range o.Modes {
			for _, r := range o.Rates {
				dst = append(dst, Key{Family: Cores, Device: "nic", Mode: m, Rate: r, N: n})
			}
		}
	}
	return dst
}

// mqCell soaks a supervised multi-queue NIC: k.N queue pairs sharing one
// device identity, protection domain, and recovery domain (the port resets
// as a unit).
func mqCell(k Key, seed uint64, o Options) (CellMetrics, error) {
	sys, err := sim.New(spec(k, seed, 1<<15, o.Audit))
	if err != nil {
		return CellMetrics{}, err
	}
	defer sys.Close()
	mq, err := sys.AttachMQNIC(device.ProfileBRCM, nicBDF, k.N)
	if err != nil {
		return CellMetrics{}, err
	}
	sup := sys.Supervise(nicBDF, mq)
	payload := nicPayload()
	if err := soak(sup, o.Rounds, func() error { return mqTraffic(mq, payload) }); err != nil {
		return CellMetrics{}, err
	}
	c := CellMetrics{Recovery: sup.Stats}
	tallyNIC(&c, sys, mqPackets(mq))
	return c, nil
}

func coresTable(r Result, cells []int) string {
	t := stats.NewTable(
		fmt.Sprintf("NIC scale-out campaign — %s multi-queue, %d rounds/cell", device.ProfileBRCM.Name, r.Opts.Rounds),
		"mode", "cores", "rate", "injected", "recov", "retries", "wdog", "unrec", "cyc/pkt", "Gbps")
	t.AlignLeft(0)
	for _, i := range cells {
		k, c := r.Keys[i], r.Cells[i]
		t.Row(k.Mode.String(), k.N, fmt.Sprintf("%g", k.Rate), c.Injected,
			c.Recovery.Recoveries, c.Recovery.Retries, c.Recovery.WatchdogFires,
			c.Recovery.Unrecovered, c.CyclesPerOp, c.Gbps)
	}
	return t.String()
}

func chaosKeys(dst []Key, o Options) []Key {
	return scenarioKeys(dst, Chaos, 0, o.Chaos, ChaosModes)
}

// chaosCell drives one hostile-device scenario against a supervised, audited
// NIC: the legitimate workload runs every round under the circuit breaker,
// and the hostile device layers its attacks on top. The oracle judges every
// DMA the protection hardware let through.
func chaosCell(k Key, seed uint64, o Options) (CellMetrics, error) {
	scenario := chaos.Scenario(k.Scenario)
	// Injection stays quiet except in the cascade scenario, which opens a
	// multi-class fault storm across the middle third of the cell.
	sys, err := sim.New(spec(k, seed, 1<<15, true))
	if err != nil {
		return CellMetrics{}, err
	}
	defer sys.Close()
	drv, nic, err := sys.AttachNIC(device.ProfileBRCM, nicBDF)
	if err != nil {
		return CellMetrics{}, err
	}
	sup := breakerSupervise(sys, drv)
	host := chaos.NewHostile(sys.Eng, sys.Auditor, nicBDF)

	// inv-flood churns map/unmap on a second device, hammering the shared
	// invalidation path while the victim runs its workload.
	var churn func() error
	if scenario == chaos.InvFlood {
		prot, err := sys.ProtectionFor(churnBDF, []uint32{64})
		if err != nil {
			return CellMetrics{}, err
		}
		frame, err := sys.Mem.AllocFrame()
		if err != nil {
			return CellMetrics{}, err
		}
		pa := frame.PA()
		churn = func() error {
			for i := 0; i < 8; i++ {
				iova, err := prot.Map(0, pa, 1024, pci.DirBidi)
				if err != nil {
					return err
				}
				if err := prot.Unmap(0, iova, 1024, true); err != nil {
					return err
				}
			}
			return nil
		}
	}

	// ro-write needs a live read-only mapping, which only exists between
	// Send and ReapTx — so that attack runs mid-round.
	var midTx func()
	if scenario == chaos.ROWrite {
		midTx = func() { host.WriteReadOnly(4) }
	}

	payload := nicPayload()
	stormStart, stormEnd := o.Rounds/3, 2*o.Rounds/3
	for round := 0; round < o.Rounds; round++ {
		if scenario == chaos.Cascade {
			if round == stormStart {
				for _, cl := range faults.Classes() {
					sys.FaultEng.SetRate(cl, 0.002)
				}
			} else if round == stormEnd {
				for _, cl := range faults.Classes() {
					sys.FaultEng.SetRate(cl, 0)
				}
			}
		}
		// Failed rounds are the subject: the supervisor, breaker, and SLO
		// ledger record them.
		_ = sup.Do(func() error { return nicRound(drv, payload, midTx) })
		switch scenario {
		case chaos.StaleReplay:
			host.ReplayRetired(8)
		case chaos.Overreach:
			host.OverreachLive(4)
		case chaos.InvFlood:
			if err := churn(); err != nil {
				return CellMetrics{}, fmt.Errorf("inv-flood churn: %w", err)
			}
		case chaos.Cascade:
			host.ReplayRetired(2)
		}
		// A failed hang recovery mid-storm is chaos data, not a cell error.
		_, _ = sup.Watch()
	}

	c := CellMetrics{Recovery: sup.Stats}
	tallyNIC(&c, sys, nic.TxPackets+nic.RxPackets)
	recordBreaker(&c, sys, sup, host.Stats)
	return c, nil
}

func chaosTable(r Result, cells []int) string {
	t := stats.NewTable(
		fmt.Sprintf("Chaos campaign — hostile NIC, %d rounds/cell", r.Opts.Rounds),
		"mode", "scenario", "attempts", "contained", "landed", "viol", "stale", "bounds", "viol/Mpkt", "trips", "readmit", "mttr cyc", "avail")
	t.AlignLeft(0).AlignLeft(1)
	for _, i := range cells {
		k, c := r.Keys[i], r.Cells[i]
		t.Row(k.Mode.String(), k.Scenario, c.Chaos.Attempts, c.Chaos.Contained,
			c.Chaos.Landed, c.Violations, c.ByReason[audit.ReasonStale],
			c.ByReason[audit.ReasonBounds], fmt.Sprintf("%.1f", c.ViolPerMPkts),
			c.BreakerTrips, c.Readmissions, fmt.Sprintf("%.0f", c.MTTRCycles),
			fmt.Sprintf("%.4f", c.Availability))
	}
	return t.String()
}

// The interrupt and hot-plug sweeps cover all seven presentation modes: the
// unprotected modes are the "what an attack costs without remapping"
// anchors, the deferred modes quantify the IEC stale window.
func intchaosKeys(dst []Key, o Options) []Key {
	return scenarioKeys(dst, IntChaos, 0, o.IntChaos, sim.AllModes())
}

// intchaosCell drives one hostile-MSI scenario against a supervised,
// interrupt-audited multi-queue NIC. The legitimate workload keeps raising
// and servicing real completion interrupts while the hostile requester
// layers its messages on top; the interrupt oracle judges every delivery.
func intchaosCell(k Key, seed uint64, o Options) (CellMetrics, error) {
	sys, err := sim.New(spec(k, seed, 1<<15, true))
	if err != nil {
		return CellMetrics{}, err
	}
	defer sys.Close()
	mq, err := sys.HotAttachMQNIC(device.ProfileBRCM, nicBDF, 2)
	if err != nil {
		return CellMetrics{}, err
	}
	sup := breakerSupervise(sys, mq)
	host := chaos.NewIntHostile(sys.IntRemap, sys.IntAuditor, msiBDF, nicBDF)

	payload := nicPayload()
	for round := 0; round < o.Rounds; round++ {
		_ = sup.Do(func() error { return mqTraffic(mq, payload) })
		switch scenario := chaos.IntScenario(k.Scenario); scenario {
		case chaos.VectorStorm:
			host.RunInt(scenario, 16)
		case chaos.SpoofBDF:
			host.RunInt(scenario, 8)
		case chaos.IRTEReplay:
			// Periodic vector rebalance: tear the queues' sources down,
			// replay the freed indices as the ghost, then rewire. Deferred
			// IEC invalidation leaves the freed entries cached and
			// deliverable until the batched flush — the stale window the
			// oracle must flag.
			if round%8 == 7 {
				sys.DropIntSources(nicBDF)
				host.RunInt(scenario, 8)
				if err := sys.WireMQNICInterrupts(mq, nicBDF, false); err != nil {
					return CellMetrics{}, fmt.Errorf("vector rebalance: %w", err)
				}
			}
		}
		_, _ = sup.Watch()
	}

	c := CellMetrics{Recovery: sup.Stats}
	tallyNIC(&c, sys, mqPackets(mq))
	recordBreaker(&c, sys, sup, host.Stats)
	return c, nil
}

func intchaosTable(r Result, cells []int) string {
	t := stats.NewTable(
		fmt.Sprintf("Interrupt chaos campaign — hostile MSI source, %d rounds/cell", r.Opts.Rounds),
		"mode", "scenario", "attempts", "contained", "landed", "delivered", "blocked", "viol", "stale", "trips", "mttr cyc", "avail")
	t.AlignLeft(0).AlignLeft(1)
	for _, i := range cells {
		k, c := r.Keys[i], r.Cells[i]
		t.Row(k.Mode.String(), k.Scenario, c.Chaos.Attempts, c.Chaos.Contained,
			c.Chaos.Landed, c.IntDelivered, c.IntBlocked, c.IntViolations,
			c.IntByReason[audit.IntReasonStale], c.BreakerTrips,
			fmt.Sprintf("%.0f", c.MTTRCycles), fmt.Sprintf("%.4f", c.Availability))
	}
	return t.String()
}

func hotplugKeys(dst []Key, o Options) []Key {
	return scenarioKeys(dst, Hotplug, 0, o.Hotplug, sim.AllModes())
}

// hotplugProfile keeps the topology-churn cells' repeated ring allocations
// inside the cell's memory budget.
func hotplugProfile() device.NICProfile {
	p := device.ProfileBRCM
	p.RxEntries = 64
	p.TxEntries = 64
	return p
}

// hotplugCell drives one topology-churn scenario through the lifecycle
// state machine under full (DMA + interrupt) audit. The SLO numbers here
// come from the lifecycle ledger: an outage runs from a surprise removal to
// the replug that returns the slot to Live.
func hotplugCell(k Key, seed uint64, o Options) (CellMetrics, error) {
	rounds := o.Rounds
	sys, err := sim.New(spec(k, seed, 1<<15, true))
	if err != nil {
		return CellMetrics{}, err
	}
	defer sys.Close()
	lc := sys.LifecycleFor(nicBDF)
	payload := nicPayload()

	var c CellMetrics

	// attach brings a fresh device into the slot; the lifecycle's ledger
	// records the removal outage it closes.
	attach := func() (*driver.MQNIC, error) {
		return sys.HotAttachMQNIC(hotplugProfile(), nicBDF, 2)
	}
	// yank latches fresh completions on every queue, surprise-removes the
	// device, then has the ghost's reap paths run: anything they deliver is
	// a ghost delivery the gate fails on.
	yank := func(mq *driver.MQNIC) error {
		for q := 0; q < len(mq.Queues); q++ {
			if err := mq.Send(payload); err != nil {
				return err
			}
		}
		for _, drv := range mq.Queues {
			if _, err := drv.PumpTx(int(drv.TxRing().Pending())); err != nil {
				return err
			}
		}
		before := sys.IntRemap.Stats().Delivered
		if err := lc.SurpriseRemove(); err != nil {
			return err
		}
		for _, drv := range mq.Queues {
			_, _ = drv.ReapTx()
			_, _ = drv.ReapRx()
		}
		c.GhostDeliveries += sys.IntRemap.Stats().Delivered - before
		return nil
	}
	// supervised runs n traffic rounds on mq under a fresh breaker-equipped
	// supervisor (the previous one died with the previous device).
	supervised := func(mq *driver.MQNIC, n int) {
		sup := sys.Supervise(nicBDF, mq)
		sup.Breaker = driver.NewBreaker()
		for i := 0; i < n; i++ {
			_ = sup.Do(func() error { return mqTraffic(mq, payload) })
			_, _ = sup.Watch()
		}
		addRecovery(&c.Recovery, sup.Stats)
	}

	switch k.Scenario {
	case HotplugAttachStorm:
		phases := 6
		perPhase := rounds / phases
		if perPhase < 1 {
			perPhase = 1
		}
		for p := 0; p < phases; p++ {
			mq, err := attach()
			if err != nil {
				return CellMetrics{}, fmt.Errorf("phase %d attach: %w", p, err)
			}
			supervised(mq, perPhase)
			if err := yank(mq); err != nil {
				return CellMetrics{}, fmt.Errorf("phase %d yank: %w", p, err)
			}
		}
		// Final replug closes the last outage.
		mq, err := attach()
		if err != nil {
			return CellMetrics{}, fmt.Errorf("final attach: %w", err)
		}
		supervised(mq, perPhase)

	case HotplugDMAEarly:
		// The device DMAs before the OS ever attached it: in every
		// protected mode the accesses must fault (there is no context/table
		// entry to translate through). The probes target another tenant's
		// allocated buffer so the unprotected anchor shows what actually
		// lands without an IOMMU.
		victim, err := sys.Mem.AllocFrame()
		if err != nil {
			return CellMetrics{}, err
		}
		probe := make([]byte, 64)
		for i := 0; i < rounds; i++ {
			c.Chaos.Attempts++
			iova := uint64(victim.PA()) + uint64(i%63)*64
			if err := sys.Eng.Write(nicBDF, iova, probe); err != nil {
				c.Chaos.Contained++
			} else {
				c.Chaos.Landed++
			}
		}
		mq, err := attach()
		if err != nil {
			return CellMetrics{}, err
		}
		supervised(mq, rounds)

	case HotplugSurprise:
		mq, err := attach()
		if err != nil {
			return CellMetrics{}, err
		}
		supervised(mq, rounds/2)
		if err := yank(mq); err != nil {
			return CellMetrics{}, err
		}
		if err := lc.Quarantine(); err != nil {
			return CellMetrics{}, err
		}
		// A quarantined slot stays silent until the operator clears it.
		for _, drv := range mq.Queues {
			_, _ = drv.ReapTx()
		}
		mq2, err := attach()
		if err != nil {
			return CellMetrics{}, fmt.Errorf("replug from quarantine: %w", err)
		}
		supervised(mq2, rounds-rounds/2)

	default:
		return CellMetrics{}, fmt.Errorf("unknown hot-plug scenario %q", k.Scenario)
	}

	c.Attaches = lc.Attaches
	c.Removals = lc.Removals
	c.Quarantines = lc.Quarantines
	recordSLO(&c, driver.SLOStats{Outages: lc.Outages, DowntimeCycles: lc.DowntimeCycles}, sys.CPU.Now())
	tally(&c, sys, 0)
	return c, nil
}

func hotplugTable(r Result, cells []int) string {
	t := stats.NewTable(
		fmt.Sprintf("Hot-plug campaign — lifecycle churn, %d rounds/cell", r.Opts.Rounds),
		"mode", "scenario", "attach", "remove", "quar", "ghost", "early landed", "int viol", "outages", "mttr cyc", "avail")
	t.AlignLeft(0).AlignLeft(1)
	for _, i := range cells {
		k, c := r.Keys[i], r.Cells[i]
		t.Row(k.Mode.String(), k.Scenario, c.Attaches, c.Removals, c.Quarantines,
			c.GhostDeliveries, c.Chaos.Landed, c.IntViolations, c.Outages,
			fmt.Sprintf("%.0f", c.MTTRCycles), fmt.Sprintf("%.4f", c.Availability))
	}
	return t.String()
}

// IntremapViolationsGate checks the interrupt-isolation claims the intchaos
// and hot-plug cells must uphold:
//
//   - outside the deliberate stale window, no cell with remapping hardware
//     (every mode but none) may record a delivered interrupt violation;
//   - liveness: the deferred modes' irte-replay cells must record int-stale
//     deliveries — zero there means the oracle went blind, not that the
//     deferred IEC closed its window;
//   - attack cells with attempts must show blocked messages (the remapper
//     actually refused something);
//   - hot-plug: every surprise removal closes with a finite outage (the SLO
//     ledger has an MTTR for it), ghosts never deliver, and early DMA never
//     lands under protection.
func (r Result) IntremapViolationsGate() []string {
	var fails []string
	deferReplayCells, sawStale := 0, false
	for i, k := range r.Keys {
		c := r.Cells[i]
		if !r.done(i) || (k.Family != IntChaos && k.Family != Hotplug) {
			continue
		}
		if k.Mode == sim.None {
			continue // no remapping hardware, nothing to gate
		}
		deferMode := k.Mode == sim.Defer || k.Mode == sim.DeferPlus
		if k.Family == IntChaos && k.Scenario == string(chaos.IRTEReplay) && deferMode {
			// The stale window is this cell's subject: landings are expected
			// here (and required, via the liveness check below), so neither
			// the zero-violations nor the must-block expectation applies.
			deferReplayCells++
			if c.IntByReason[audit.IntReasonStale] > 0 {
				sawStale = true
			}
		} else {
			if c.IntViolations != 0 {
				fails = append(fails, fmt.Sprintf("%s: %d delivered interrupt violations", k, c.IntViolations))
			}
			if k.Family == IntChaos && c.Chaos.Attempts > 0 && c.IntBlocked == 0 {
				fails = append(fails, fmt.Sprintf("%s: hostile MSIs attempted but none blocked — remapper asleep", k))
			}
		}
		if k.Family == Hotplug {
			if c.GhostDeliveries != 0 {
				fails = append(fails, fmt.Sprintf("%s: %d interrupts delivered by a removed device", k, c.GhostDeliveries))
			}
			if c.Removals > 0 && (c.Outages != c.Removals || c.MTTRCycles <= 0) {
				fails = append(fails, fmt.Sprintf("%s: %d removals but %d finished outages (MTTR %.0f) — SLO ledger incomplete", k, c.Removals, c.Outages, c.MTTRCycles))
			}
			if k.Scenario == HotplugDMAEarly && c.Chaos.Landed != 0 {
				fails = append(fails, fmt.Sprintf("%s: %d pre-attach DMAs landed under protection", k, c.Chaos.Landed))
			}
		}
	}
	if deferReplayCells > 0 && !sawStale {
		fails = append(fails, "defer irte-replay cells recorded zero stale deliveries — interrupt oracle liveness check failed")
	}
	return fails
}

// AuditViolationsGate checks the isolation claims the audited cells must
// uphold and returns one failure message per broken expectation:
//
//   - gap-free modes (strict, strict+, riommu-, riommu) must be violation-
//     free in every audited cell that neither injects faults (rate > 0) nor
//     runs the cascade scenario — injected invalidation-drop/delay errata can
//     defeat even strict invalidation, which is the erratum's point.
//   - overreach is gated only for the rIOMMU modes: page-granular baseline
//     protection cannot contain sub-page overreach (§4), byte-granular rPTEs
//     must.
//   - liveness: the deferred modes' stale-replay cells must record stale
//     violations — zero there means the auditor went blind, not that the
//     defer window closed.
func (r Result) AuditViolationsGate() []string {
	var fails []string
	deferStaleCells, sawDeferStale := 0, false
	for i, k := range r.Keys {
		c := r.Cells[i]
		if !r.done(i) || !c.Audited || k.Rate > 0 {
			continue
		}
		var sc chaos.Scenario
		if k.Family == Chaos {
			sc = chaos.Scenario(k.Scenario)
		}
		switch {
		case sc == chaos.Cascade:
			// Compound failures are observed, not gated.
		case sc == chaos.Overreach:
			if (k.Mode == sim.RIOMMU || k.Mode == sim.RIOMMUMinus) && c.Violations != 0 {
				fails = append(fails, fmt.Sprintf("%s: %d violations — rIOMMU must contain sub-page overreach", k, c.Violations))
			}
		default:
			if sc == chaos.StaleReplay && (k.Mode == sim.Defer || k.Mode == sim.DeferPlus) {
				deferStaleCells++
				if c.ByReason[audit.ReasonStale] > 0 {
					sawDeferStale = true
				}
			}
			if k.Mode.Safe() && c.Violations != 0 {
				fails = append(fails, fmt.Sprintf("%s: %d isolation violations in a gap-free mode", k, c.Violations))
			}
		}
	}
	if deferStaleCells > 0 && !sawDeferStale {
		fails = append(fails, "defer stale-replay cells recorded zero stale violations — auditor liveness check failed")
	}
	return fails
}
