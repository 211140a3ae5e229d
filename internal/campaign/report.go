package campaign

import (
	"encoding/json"
	"os"

	"riommu/internal/audit"
	"riommu/internal/faults"
)

// ReportCell is one campaign cell in machine-readable form. Metrics marshal
// deterministically: encoding/json sorts map keys, and Go formats a given
// float64 bit pattern to a unique shortest representation.
type ReportCell struct {
	ID      string             `json:"cell"`
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the full machine-readable campaign: every cell in grid order.
type Report struct {
	Seed   uint64       `json:"seed"`
	Rounds int          `json:"rounds"`
	Cells  []ReportCell `json:"cells"`
}

// BuildReport flattens a Result into the canonical report. A cell whose run
// failed is dropped, so every cell present holds real measurements.
func BuildReport(r Result) Report {
	rep := Report{Seed: r.Opts.Seed, Rounds: r.Opts.Rounds}
	for i, k := range r.Keys {
		if !r.done(i) {
			continue
		}
		c := r.Cells[i]
		m := map[string]float64{
			"injected":        float64(c.Injected),
			"recoveries":      float64(c.Recovery.Recoveries),
			"retries":         float64(c.Recovery.Retries),
			"watchdog_fires":  float64(c.Recovery.WatchdogFires),
			"degradations":    float64(c.Recovery.Degradations),
			"unrecovered":     float64(c.Recovery.Unrecovered),
			"recovery_cycles": float64(c.RecoveryCycles),
			"cycles_per_op":   c.CyclesPerOp,
		}
		if k.Device == "nic" {
			m["gbps"] = c.Gbps
			for _, cl := range faults.Classes() {
				m["faults_"+cl.String()] = float64(c.ByClass[cl.String()])
			}
		}
		if c.Audited {
			m["audit_checked"] = float64(c.Checked)
			m["audit_violations"] = float64(c.Violations)
			m["viol_per_mpkts"] = c.ViolPerMPkts
			for _, reason := range audit.Reasons() {
				m["viol_"+reason] = float64(c.ByReason[reason])
			}
		}
		if report := families[k.Family].report; report != nil {
			report(m, c)
		}
		rep.Cells = append(rep.Cells, ReportCell{ID: k.String(), Metrics: m})
	}
	return rep
}

// attackMetrics reports a hostile cell's attack outcomes.
func attackMetrics(m map[string]float64, c CellMetrics) {
	m["chaos_attempts"] = float64(c.Chaos.Attempts)
	m["chaos_contained"] = float64(c.Chaos.Contained)
	m["chaos_landed"] = float64(c.Chaos.Landed)
}

// outageMetrics reports a cell's outage ledger.
func outageMetrics(m map[string]float64, c CellMetrics) {
	m["outages"] = float64(c.Outages)
	m["downtime_cycles"] = float64(c.DowntimeCycles)
	m["mttr_cycles"] = c.MTTRCycles
	m["availability"] = c.Availability
}

// intMetrics reports the remapper's counters and the interrupt oracle's
// verdicts.
func intMetrics(m map[string]float64, c CellMetrics) {
	m["int_delivered"] = float64(c.IntDelivered)
	m["int_blocked"] = float64(c.IntBlocked)
	m["int_violations"] = float64(c.IntViolations)
	for _, reason := range audit.IntReasons() {
		m["intviol_"+reason] = float64(c.IntByReason[reason])
	}
}

// breakerMetrics reports a breaker-supervised attack cell (the chaos
// family): attack outcomes, outage ledger and breaker counters.
func breakerMetrics(m map[string]float64, c CellMetrics) {
	attackMetrics(m, c)
	outageMetrics(m, c)
	m["breaker_trips"] = float64(c.BreakerTrips)
	m["readmissions"] = float64(c.Readmissions)
}

func intchaosMetrics(m map[string]float64, c CellMetrics) {
	breakerMetrics(m, c)
	intMetrics(m, c)
}

func hotplugMetrics(m map[string]float64, c CellMetrics) {
	intMetrics(m, c)
	outageMetrics(m, c)
	m["attaches"] = float64(c.Attaches)
	m["removals"] = float64(c.Removals)
	m["quarantines"] = float64(c.Quarantines)
	m["ghost_deliveries"] = float64(c.GhostDeliveries)
	m["early_dma_attempts"] = float64(c.Chaos.Attempts)
	m["early_dma_landed"] = float64(c.Chaos.Landed)
}

func tenantMetrics(m map[string]float64, c CellMetrics) {
	attackMetrics(m, c)
	m["tenant_checked"] = float64(c.TenantChecked)
	m["tenant_violations"] = float64(c.TenantViolations)
	m["cross_tenant"] = float64(c.CrossTenant)
	for _, reason := range audit.TenantReasons() {
		m["tviol_"+reason] = float64(c.TenantByReason[reason])
	}
	m["s2_hits"] = float64(c.S2Hits)
	m["s2_misses"] = float64(c.S2Misses)
	m["s2_faults"] = float64(c.S2Faults)
	m["s2_cycles"] = float64(c.S2Cycles)
	m["spoof_blocked"] = float64(c.SpoofBlocked)
	m["ballooned"] = float64(c.Ballooned)
	m["throttled"] = float64(c.Throttled)
	m["tenant_quarantines"] = float64(c.TenantQuarantines)
	m["hostile_availability"] = c.HostileAvailability
	m["victim_availability"] = c.VictimAvailability
}

// MarshalReport renders a Report to the canonical byte form.
func MarshalReport(rep Report) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteJSON writes the canonical report bytes to path.
func WriteJSON(path string, rep Report) error {
	b, err := MarshalReport(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
