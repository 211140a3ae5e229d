package campaign

// The connection-churn axis: each cell runs the internal/traffic fleet
// engine — a full connection table under seeded open/close churn with a
// mixed kernel/bypass fleet — with the shadow translation oracle attached.
// The target connection count sets the churn rate: the live table is a
// fixed-size window onto the fleet and the per-flow packet budget shrinks
// as connections grow, so high counts are the map/unmap storm regime the
// paper calls the IOMMU's worst case. Like every other cell, a churn cell
// is a pure function of (key, seed, rounds).

import (
	"fmt"

	"riommu/internal/device"
	"riommu/internal/stats"
	"riommu/internal/traffic"
)

// churnSlotCap bounds the simulated live table so a cell's wall-clock cost
// stays flat while the modeled fleet grows via shorter flows.
const churnSlotCap = 160

func churnKeys(dst []Key, o Options) []Key {
	for _, n := range o.Churn {
		if n < 1 {
			continue
		}
		for _, m := range o.Modes {
			dst = append(dst, Key{Family: Churn, Device: "nic", Mode: m, N: n})
		}
	}
	return dst
}

func churnCell(k Key, seed uint64, o Options) (CellMetrics, error) {
	conns, rounds := k.N, o.Rounds
	slots := conns
	if slots > churnSlotCap {
		slots = churnSlotCap
	}
	mean := (1 << 18) / conns
	if mean < 1 {
		mean = 1
	}
	e, err := traffic.NewEngine(traffic.Config{
		Mode:            k.Mode,
		Profile:         device.ProfileBRCM,
		Seed:            seed,
		TableSlots:      slots,
		MeanFlowPackets: mean,
		BypassPermille:  250, // a quarter of the fleet runs kernel-bypass
		Ticks:           rounds,
		WarmupTicks:     rounds / 4,
		MsgsPerTick:     4,
		IncastEvery:     5,
		IncastFan:       8,
		Diurnal:         true,
		Audit:           true,
	})
	if err != nil {
		return CellMetrics{}, err
	}
	r, err := e.RunSchedule()
	if err != nil {
		e.Close()
		return CellMetrics{}, err
	}
	c := CellMetrics{
		CyclesPerOp:   r.CyclesPerPkt,
		Gbps:          r.Gbps,
		DataPackets:   r.DataPackets,
		Opens:         r.Opens,
		Closes:        r.Closes,
		BypassPackets: r.BypassPackets,
		AppDigest:     r.AppDigest,
		MapDigest:     r.MapDigest,
	}
	recordAudit(&c, e.System().Auditor, r.DataPackets)
	if err := e.Close(); err != nil {
		return CellMetrics{}, err
	}
	return c, nil
}

func churnTable(r Result, cells []int) string {
	t := stats.NewTable(
		fmt.Sprintf("Connection-churn campaign — %s fleet traffic, %d ticks/cell", device.ProfileBRCM.Name, r.Opts.Rounds),
		"mode", "conns", "pkts", "opens", "closes", "bypass", "checked", "viol", "cyc/pkt", "Gbps")
	t.AlignLeft(0)
	for _, i := range cells {
		k, c := r.Keys[i], r.Cells[i]
		t.Row(k.Mode.String(), k.N, c.DataPackets, c.Opens, c.Closes,
			c.BypassPackets, c.Checked, c.Violations, c.CyclesPerOp, c.Gbps)
	}
	return t.String()
}
