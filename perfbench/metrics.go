package main

import (
	"sort"
	"strings"

	"riommu/internal/cycles"
	"riommu/internal/experiments"
	"riommu/internal/sim"
)

// metricSpec names one reported metric; BENCHMARK.json lists the same specs.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every untraced run prints, on every workload.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"cells_per_s", "1/s", "higher"},
	{"sim_pkts_per_s", "1/s", "higher"},
	{"alloc_mb", "MB", "lower"},
}

// churnModes are the protection modes the churn workloads run back to back:
// the Linux allocator with synchronous and with deferred invalidation, and
// the rIOMMU flat ring.
var churnModes = []sim.Mode{sim.Strict, sim.Defer, sim.RIOMMU}

// translatorLayer names the hardware unit behind each churn mode's
// dma.Engine translator.
func translatorLayer(m sim.Mode) string {
	if m == sim.RIOMMU {
		return "core"
	}
	return "iommu"
}

// vcycComponents are the Table 1 rows plus the stack bar of Figure 7.
var vcycComponents = []cycles.Component{
	cycles.MapIOVAAlloc, cycles.MapPageTable, cycles.MapOther,
	cycles.UnmapIOVAFind, cycles.UnmapIOVAFree, cycles.UnmapPageTable,
	cycles.UnmapIOTLBInv, cycles.UnmapOther, cycles.Stack,
}

// metricKey turns a component name such as "map/iova-alloc" into a metric
// name fragment ("map_iova_alloc").
func metricKey(s string) string {
	return strings.NewReplacer("/", "_", "-", "_").Replace(s)
}

// allocExperiments are the experiments whose allocation volume is traced.
var allocExperiments = []string{"figS2", "scalability", "figure12", "table2"}

// campaignFamilies are the fault-grid's cell families, in grid order.
var campaignFamilies = []string{"base", "cores", "chaos", "intchaos", "hotplug", "tenants", "churn"}

// perLayer lists every metric a traced run prints. A seam the workload never
// crosses reads 0.
func perLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) {
		out = append(out, metricSpec{name, unit, better})
	}
	for _, m := range churnModes {
		add("audit."+m.String()+".verify_ns", "ns/pkt", "lower")
		add("audit."+m.String()+".verify_share", "frac", "lower")
		add("audit."+m.String()+".checked_per_pkt", "count/pkt", "lower")
	}
	for _, m := range churnModes {
		add(translatorLayer(m)+"."+m.String()+".translate_ns", "ns/pkt", "lower")
		add("dma."+m.String()+".chunks_per_pkt", "count/pkt", "lower")
		add("dma."+m.String()+".batch_chunk_frac", "frac", "higher")
	}
	for _, m := range churnModes {
		add("traffic."+m.String()+".new_engine_ms", "ms", "lower")
		add("mem."+m.String()+".setup_alloc_mb", "MB", "lower")
		add("traffic."+m.String()+".run_self_ms", "ms", "lower")
		add("traffic."+m.String()+".close_ms", "ms", "lower")
		add("traffic."+m.String()+".run_alloc_mb", "MB", "lower")
		add("traffic."+m.String()+".map_events_per_pkt", "count/pkt", "lower")
	}
	add("iova.strict.max_alloc_visits", "count", "lower")
	add("iova.defer.max_alloc_visits", "count", "lower")
	for _, e := range experiments.All() {
		add("experiments."+e.ID+"_ms", "ms", "lower")
	}
	for _, id := range allocExperiments {
		add("experiments."+id+"_alloc_mb", "MB", "lower")
	}
	for _, f := range campaignFamilies {
		add("campaign."+f+"_ms", "ms", "lower")
		add("campaign."+f+"_alloc_mb", "MB", "lower")
	}
	add("runtime.gc_cycles", "count", "lower")
	add("runtime.gc_pause_ms", "ms", "lower")
	add("runtime.peak_rss_mb", "MB", "lower")
	add("host.reference_ms", "ms", "lower")
	for _, m := range churnModes {
		for _, c := range vcycComponents {
			add("vcyc."+m.String()+"."+metricKey(c.String())+"_per_pkt", "cycles/pkt", "lower")
		}
		add("vcyc."+m.String()+".total_per_pkt", "cycles/pkt", "lower")
	}
	for _, m := range churnModes {
		add("vgbps."+m.String(), "Gbps", "higher")
	}
	add("experiments.table1_err_pct", "%", "lower")
	add("experiments.table2_err_pct", "%", "lower")
	add("trace.overhead_pct", "%", "lower")
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
