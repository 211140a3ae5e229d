package main

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"time"

	"riommu/internal/campaign"
	"riommu/internal/chaos"
)

// faultGridRounds is riommu-faults' default. The grid keeps its campaign
// seed fixed, like paper-quick: an injected fault that corrupts an Rx
// descriptor's length makes the driver allocate and copy a buffer of that
// length on the host, so host time and memory swing with the seed (peak
// heap 0.4 to 6.3 GB over seeds 1 to 16, 1.9 GB for the default 42). Seed
// 14 passes every gate with a peak heap under 0.4 GB.
const (
	faultGridRounds = 150
	faultGridSeed   = 14
)

// faultGridOptions is the fault-grid workload: the default safe modes at
// rates {0, 0.01}, every chaos, interrupt-chaos and hot-plug scenario, two
// cores, three tenants and a 2000-connection churn axis, on one worker.
func faultGridOptions() campaign.Options {
	return campaign.Options{
		Seed:     faultGridSeed,
		Rates:    []float64{0, 0.01},
		Modes:    campaign.SafeModes,
		Rounds:   faultGridRounds,
		Workers:  1,
		Audit:    true,
		Chaos:    chaos.Scenarios(),
		Cores:    []int{2},
		IntChaos: chaos.IntScenarios(),
		Hotplug:  campaign.HotplugScenarios(),
		Tenants:  []int{3},
		Churn:    []int{2000},
	}
}

// familyOptions returns the options that run one cell family of full. The
// cores and churn families cannot run without the base family's anchor
// cells, so they carry the whole base family and are reported net of it.
func familyOptions(full campaign.Options, family string) campaign.Options {
	o := campaign.Options{Seed: full.Seed, Rounds: full.Rounds, Workers: full.Workers, Audit: full.Audit}
	switch family {
	case "base", "cores", "churn":
		o.Modes, o.Rates = full.Modes, full.Rates
		if family == "cores" {
			o.Cores = full.Cores
		}
		if family == "churn" {
			o.Churn = full.Churn
		}
	case "chaos":
		o.Chaos = full.Chaos
	case "intchaos":
		o.IntChaos = full.IntChaos
	case "hotplug":
		o.Hotplug = full.Hotplug
	case "tenants":
		o.Tenants, o.TenantChaos = full.Tenants, full.TenantChaos
	}
	return o
}

// faultGridRep ignores the workload seed; see faultGridSeed.
func faultGridRep(_ uint64, tr *tracer) (sample, error) {
	var (
		s    sample
		opts campaign.Options
		keys []campaign.Key
	)
	s.setup, _ = medianSetup(func() error {
		opts = faultGridOptions()
		keys = opts.Grid()
		return nil
	})

	start := time.Now()
	var (
		res    campaign.Result
		runErr error
		rerun  time.Duration // base cells the traced family split runs twice over
	)
	if tr == nil {
		res, runErr = campaign.Run(opts)
	} else {
		res, rerun, runErr = runFamilies(opts, keys, tr, &s)
	}
	rep, err := campaign.MarshalReport(campaign.BuildReport(res))
	s.wall = time.Since(start) - rerun
	if err != nil {
		return s, err
	}
	checkGrid(&s, res, runErr)
	for i := range res.Cells {
		if res.Completed == nil || res.Completed[i] {
			s.pkts += res.Cells[i].DataPackets
		}
	}
	s.cells = len(keys)
	sum := sha256.Sum256(rep)
	s.outputs = fmt.Sprintf("%x", sum)
	return s, nil
}

// runFamilies runs the grid one family at a time under a span each and
// reassembles the full grid's Result from the cells, which are pure
// functions of their key and seed. A base cell a cores or churn family
// recomputed must equal the base family's.
func runFamilies(opts campaign.Options, keys []campaign.Key, tr *tracer, s *sample) (campaign.Result, time.Duration, error) {
	s.layers = map[string]float64{}
	cells := map[string]campaign.CellMetrics{}
	var firstErr error
	var rerun time.Duration
	for _, f := range campaignFamilies {
		id := tr.begin("campaign."+f, true)
		r, err := campaign.Run(familyOptions(opts, f))
		tr.end(id)
		ms, mb := tr.ms(id), tr.allocMB(id)
		if f == "cores" || f == "churn" {
			ms -= s.layers["campaign.base_ms"]
			mb -= s.layers["campaign.base_alloc_mb"]
			rerun += time.Duration(s.layers["campaign.base_ms"] * 1e6)
		}
		s.layers["campaign."+f+"_ms"], s.layers["campaign."+f+"_alloc_mb"] = ms, mb
		if err != nil && firstErr == nil {
			firstErr = err
		}
		for i, k := range r.Keys {
			if r.Completed != nil && !r.Completed[i] {
				continue
			}
			if prev, ok := cells[k.String()]; ok && !reflect.DeepEqual(prev, r.Cells[i]) {
				s.fail(1, "fault-grid: %s differs between the %s family and the base family", k, f)
				continue
			}
			cells[k.String()] = r.Cells[i]
		}
	}
	res := campaign.Result{Opts: opts, Keys: keys, Cells: make([]campaign.CellMetrics, len(keys)), Completed: make([]bool, len(keys))}
	for i, k := range keys {
		res.Cells[i], res.Completed[i] = cells[k.String()]
	}
	return res, rerun, firstErr
}

// checkGrid counts the grid's failed cells: every cell that did not
// complete, plus every cell one of the three violation gates names. A gate
// failure that names no cell (a liveness check) counts as one.
func checkGrid(s *sample, res campaign.Result, runErr error) {
	s.units = len(res.Keys)
	bad := map[string]bool{}
	if runErr != nil {
		s.problems = append(s.problems, fmt.Sprintf("fault-grid: %v", runErr))
	}
	for i, k := range res.Keys {
		if res.Completed != nil && !res.Completed[i] {
			bad[k.String()] = true
		}
	}
	unnamed := 0
	for _, gate := range [][]string{res.AuditViolationsGate(), res.IntremapViolationsGate(), res.CrossTenantViolationsGate()} {
		for _, msg := range gate {
			s.problems = append(s.problems, "fault-grid: gate: "+msg)
			if key, _, ok := strings.Cut(msg, ": "); ok && hasKey(res.Keys, key) {
				bad[key] = true
			} else {
				unnamed++
			}
		}
	}
	n := len(bad) + unnamed
	if n > s.units {
		n = s.units
	}
	if n > 0 {
		s.fail(n, "fault-grid: %d of %d cells failed", n, s.units)
	}
}

func hasKey(keys []campaign.Key, id string) bool {
	for _, k := range keys {
		if k.String() == id {
			return true
		}
	}
	return false
}
