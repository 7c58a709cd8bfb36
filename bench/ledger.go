package main

import "fmt"

// fillLedger computes every per-layer metric of a traced run. The named
// workload's traced slices are already in tr; one traced slice of each
// other workload is added so every span-derived metric has samples
// whichever workload was named, then the probes run. It returns the
// operations those extra slices attempted and failed.
func fillLedger(cfg config, named string, tr *tracer, set metricSet) (sliceResult, error) {
	var total sliceResult
	for _, w := range workloads {
		if w.name == named {
			continue
		}
		inst, err := w.setup(cfg)
		if err != nil {
			return total, err
		}
		res, err := inst.slice(1, tr)
		if err != nil {
			return total, err
		}
		total.add(res)
	}
	spanMetrics(tr, set)
	if err := runProbes(cfg, set); err != nil {
		return total, err
	}
	// What Launch adds to a collective: the step span (binding, the
	// collective, the safe-point vote) minus the same collective over
	// mpicore alone.
	for _, c := range collProbes {
		label := stepLabel(c.kind, c.ranks)
		set.put("core.step_overhead_ms."+label, set["core.step_ms."+label].Value-set[c.metric].Value, "ms")
	}
	return total, nil
}

// spanMetrics derives the per-layer metrics that come from spans and
// observed values rather than probes.
func spanMetrics(tr *tracer, set metricSet) {
	// matrix_cold: where a cold matrix's cell time goes, by cell class.
	var all float64
	sums := make(map[string]float64)
	for _, class := range cellClasses {
		for _, d := range tr.durationsMS("scenario.run_cell." + class) {
			sums[class] += d
			all += d
		}
	}
	for _, class := range cellClasses {
		set.put("scenario.cell_ms_p50."+class, median(tr.durationsMS("scenario.run_cell."+class)), "ms")
		set.put("scenario.cell_share_pct."+class, sums[class]/all*100, "%")
	}

	// collective_scale: rank 0's step-to-step period per collective.
	for _, c := range collProbes {
		label := stepLabel(c.kind, c.ranks)
		set.put("core.step_ms."+label, median(tr.durationsMS("core.step."+label)), "ms")
	}

	// stack_sweep: simulated overhead of the paper's stack over native.
	sum := func(xs []float64) (t float64) {
		for _, x := range xs {
			t += x
		}
		return t
	}
	shim, native := sum(tr.observed("virt.mpich_muk_mana")), sum(tr.observed("virt.mpich"))
	set.put("mukautuva_mana.virt_overhead_pct", (shim/native-1)*100, "%")

	// matrix_service: the protocol's three calls, and the two reports.
	for _, call := range []string{"lease", "put", "get"} {
		d := tr.durationsMS("remote." + call)
		set.put(fmt.Sprintf("remote.%s_us_p50", call), median(d)*1e3, "us")
		set.put(fmt.Sprintf("remote.%s_us_p95", call), percentile(d, 95)*1e3, "us")
	}
	set.put("remote.report_ms", median(tr.durationsMS("remote.report")), "ms")
	// A warm Run's self time: hashing, the pool and report assembly, with
	// the GETs it waited for taken out.
	rounds := len(tr.durationsMS("scenario.run_warm"))
	set.put("scenario.report_ms", float64(selfTimes(tr.snapshot())["scenario.run_warm"])/1e6/float64(rounds), "ms")
}
