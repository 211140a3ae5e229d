package main

import (
	"fmt"
	"time"

	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/sim"
	"riommu/internal/traffic"
)

// churnConfig is the shape of figS2's full-quality 1M-connection kernel
// cell: a 2048-slot connection table where every packet closes its flow, so
// each packet maps and unmaps a steering buffer (the map/unmap storm).
func churnConfig(mode sim.Mode, seed uint64, audit bool) traffic.Config {
	return traffic.Config{
		Mode:            mode,
		Profile:         device.ProfileMLX,
		Seed:            seed,
		TableSlots:      2048,
		MeanFlowPackets: 1,
		BypassPermille:  0,
		Ticks:           96,
		WarmupTicks:     24,
		MsgsPerTick:     16,
		IncastEvery:     4,
		IncastFan:       48,
		Diurnal:         true,
		Audit:           audit,
	}
}

// modeRun is one protection mode's world in a churn repetition.
type modeRun struct {
	mode sim.Mode
	res  traffic.Result
	err  error
}

// churnRep runs one world per churn mode back to back with the same seed
// and schedule. Set-up is traffic.NewEngine; the measured part is the
// schedule (warm-up, measured ticks, Finish) plus Close.
func churnRep(audit bool) func(seed uint64, tr *tracer) (sample, error) {
	return func(seed uint64, tr *tracer) (sample, error) {
		var s sample
		if tr != nil {
			s.layers = map[string]float64{}
		}
		runs := make([]modeRun, len(churnModes))
		for i, m := range churnModes {
			runs[i] = modeRun{mode: m}
			runs[i].res, runs[i].err = churnWorld(&s, churnConfig(m, seed, audit), tr)
		}
		checkChurn(&s, runs)
		s.cells = len(runs)
		s.pinned = map[string]float64{}
		for _, r := range runs {
			if r.err != nil {
				continue
			}
			s.pkts += r.res.DataPackets
			s.outputs += fmt.Sprintf("%s %+v\n", r.mode, r.res)
			pinSimulated(s.pinned, r.mode.String(), r.res)
		}
		return s, nil
	}
}

// churnWorld builds, runs and closes one world, adding its host times to s.
// A traced world runs with timing wrappers around its DMA engine's
// translator and (when audited) its auditor.
func churnWorld(s *sample, cfg traffic.Config, tr *tracer) (traffic.Result, error) {
	m := cfg.Mode.String()
	sid := tr.begin("traffic."+m+".new_engine", true)
	t := time.Now()
	e, err := traffic.NewEngine(cfg)
	s.setup += time.Since(t)
	tr.end(sid)
	if err != nil {
		return traffic.Result{}, err
	}

	var (
		aud *timedAuditor
		tt  *timedTranslator
	)
	if tr != nil {
		sys := e.System()
		if sys.Auditor != nil {
			aud = &timedAuditor{inner: sys.Auditor}
			sys.Eng.SetAudit(aud)
		}
		var wrapped dma.Translator
		wrapped, tt = wrapTranslator(sys.Eng.Translator())
		sys.Eng.SetTranslator(wrapped)
	}

	rid := tr.begin("traffic."+m+".run", true)
	t = time.Now()
	res, err := e.RunSchedule()
	run := time.Since(t)
	tr.end(rid)
	var verifyNs, translateNs int64
	var checked, chunks, batchChunks uint64
	if aud != nil {
		verifyNs, checked = aud.ns, aud.calls
	}
	if tt != nil {
		translateNs, chunks, batchChunks = tt.ns, tt.chunks, tt.batchChunks
	}

	cid := tr.begin("traffic."+m+".close", false)
	t = time.Now()
	cerr := e.Close()
	closeT := time.Since(t)
	tr.end(cid)
	s.wall += run + closeT
	if err == nil {
		err = cerr
	}
	if err != nil || tr == nil {
		return res, err
	}

	pkts := float64(res.DataPackets)
	if pkts == 0 {
		pkts = 1
	}
	tr.attr(rid, "verify_ns", float64(verifyNs))
	tr.attr(rid, "verify_calls", float64(checked))
	tr.attr(rid, "translate_ns", float64(translateNs))
	tr.attr(rid, "chunks", float64(chunks))
	tr.attr(rid, "data_packets", float64(res.DataPackets))
	l := s.layers
	l["audit."+m+".verify_ns"] = float64(verifyNs) / pkts
	l["audit."+m+".verify_share"] = float64(verifyNs) / float64(run+closeT)
	l["audit."+m+".checked_per_pkt"] = float64(checked) / pkts
	l[translatorLayer(cfg.Mode)+"."+m+".translate_ns"] = float64(translateNs) / pkts
	l["dma."+m+".chunks_per_pkt"] = float64(chunks) / pkts
	if chunks > 0 {
		l["dma."+m+".batch_chunk_frac"] = float64(batchChunks) / float64(chunks)
	}
	l["traffic."+m+".new_engine_ms"] = tr.ms(sid)
	l["mem."+m+".setup_alloc_mb"] = tr.allocMB(sid)
	l["traffic."+m+".run_self_ms"] = float64(run.Nanoseconds()-verifyNs-translateNs) / 1e6
	l["traffic."+m+".close_ms"] = tr.ms(cid)
	l["traffic."+m+".run_alloc_mb"] = tr.allocMB(rid)
	l["traffic."+m+".map_events_per_pkt"] = float64(res.MapEvents) / pkts
	if cfg.Mode == sim.Strict || cfg.Mode == sim.Defer {
		l["iova."+m+".max_alloc_visits"] = float64(res.MaxAllocVisits)
	}
	return res, nil
}

// checkChurn fails every mode whose run errored or recorded an isolation
// violation, and every mode whose application byte stream differs from the
// one most modes agree on (the stream depends on seed and schedule only).
func checkChurn(s *sample, runs []modeRun) {
	s.units = len(runs)
	votes := map[uint64]int{}
	for _, r := range runs {
		if r.err == nil {
			votes[r.res.AppDigest]++
		}
	}
	var want uint64
	for d, n := range votes {
		if n > votes[want] || (n == votes[want] && d < want) {
			want = d
		}
	}
	for _, r := range runs {
		switch {
		case r.err != nil:
			s.fail(1, "%s: %v", r.mode, r.err)
		case r.res.AuditViolations != 0:
			s.fail(1, "%s: %d audit violations", r.mode, r.res.AuditViolations)
		case r.res.AppDigest != want:
			s.fail(1, "%s: AppDigest %#x differs from the other modes' %#x", r.mode, r.res.AppDigest, want)
		}
	}
}

// pinSimulated records one mode's virtual-clock results: cycles per data
// packet for each Table 1 component, the stack and the total, and Gbps.
func pinSimulated(pinned map[string]float64, m string, r traffic.Result) {
	pkts := float64(r.DataPackets)
	if pkts == 0 {
		pkts = 1
	}
	var total uint64
	for _, v := range r.Cycles.ByComponent {
		total += v
	}
	for _, c := range vcycComponents {
		pinned["vcyc."+m+"."+metricKey(c.String())+"_per_pkt"] = float64(r.Cycles.Total(c)) / pkts
	}
	pinned["vcyc."+m+".total_per_pkt"] = float64(total) / pkts
	pinned["vgbps."+m] = r.Gbps
}
