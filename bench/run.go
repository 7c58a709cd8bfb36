package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart is as close to process start as Go code gets: set-up time
// runs from here to the first timed operation.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// put stores a metric; a value that could not be measured (no samples)
// reads 0, which JSON can carry and NaN cannot.
func (s metricSet) put(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s[name] = metric{v, unit}
}

func (s metricSet) names() []string {
	out := make([]string, 0, len(s))
	for name := range s {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// endToEnd lists the gated metrics in print order; BENCHMARK.json carries
// the same names with their direction and bound.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"virt_us_per_op", "us"},
}

// outcome is the line the driver reads: the last line of standard output.
type outcome struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string // directory for span files; empty writes none
}

// usage is the process's resource reading at a slice boundary.
type usage struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runWorkload sets one workload up, measures it for o.seconds and checks
// its outputs. Untraced it returns the end-to-end metrics; traced it
// alternates traced and untraced slices (their rates give the tracing
// overhead) and then fills the per-layer ledger.
func runWorkload(o runOptions, log io.Writer) (outcome, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return outcome{}, err
	}
	tmp, err := os.MkdirTemp("", "bench-*")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(tmp)
	spreadSubdirs(tmp)
	cfg := config{seed: o.seed, smoke: o.smoke, tmp: tmp}

	var total sliceResult
	// Set-up, timed: build the instance and run one untimed warm-up
	// slice, so lazy initialisation and first-touch costs are paid before
	// the timed section. Repeated, because one set-up is too short to
	// repeat within a tenth: three times, and a cheap one up to nine
	// times or until 2.5 s are spent. The first starts at process start.
	minSetups, maxSetups := 3, 9
	if o.smoke || o.trace {
		minSetups, maxSetups = 1, 1
	}
	var setupS []float64
	var inst instance
	for k := 0; k < minSetups || (k < maxSetups && time.Since(processStart).Seconds() < 2.5); k++ {
		start := time.Now()
		if k == 0 {
			start = processStart
		}
		if inst, err = w.setup(cfg); err != nil {
			return outcome{}, err
		}
		res, err := inst.slice(warmupSlice, nil)
		if err != nil {
			return outcome{}, err
		}
		total.add(res)
		setupS = append(setupS, time.Since(start).Seconds())
	}

	var tr *tracer
	minSlices, pass := 3, w.pass
	if o.trace {
		tr, minSlices = newTracer(), 4
	}
	if o.smoke {
		minSlices, pass = 1, 1
		if o.trace {
			minSlices = 2
		}
	}
	var rates, tracedRates, cpuMS []float64 // one sample per slice
	var ops, allocKB, virtUS float64        // totals over the untraced slices
	begin := time.Now()
	for i := 0; ; i++ {
		sliceTracer := tr
		if i%2 == 1 {
			sliceTracer = nil // a traced run alternates, starting traced
		}
		before := readUsage()
		res, err := inst.slice(i, sliceTracer)
		after := readUsage()
		if err != nil {
			return outcome{}, err
		}
		total.add(res)
		rate := float64(res.ops) / after.at.Sub(before.at).Seconds()
		if sliceTracer != nil {
			tracedRates = append(tracedRates, rate)
		} else {
			rates = append(rates, rate)
			cpuMS = append(cpuMS, float64(after.cpu-before.cpu)/1e6/float64(res.ops))
			ops += float64(res.ops)
			allocKB += float64(after.alloc-before.alloc) / 1024
			virtUS += res.virtUS
		}
		// Stop on a pass boundary, where one more pass would overshoot
		// the window by more than stopping undershoots it.
		elapsed := time.Since(begin).Seconds()
		next := elapsed / float64(i+1) * float64(pass)
		if (i+1)%pass == 0 && i+1 >= minSlices && elapsed+next/2 >= o.seconds {
			break
		}
	}
	rss := peakRSSMB()

	if v, ok := inst.(verifier); ok {
		res, err := v.verify()
		if err != nil {
			return outcome{}, err
		}
		total.add(res)
	}

	out := outcome{Metrics: metricSet{}}
	if !o.trace {
		out.Metrics.put("setup_s", median(setupS), "s")
		out.Metrics.put("ops_per_s", median(rates), "op/s")
		out.Metrics.put("cpu_ms_per_op", median(cpuMS), "ms")
		// Allocation and virtual time do not feel the machine's noise, so
		// they are taken over all the work done rather than as medians:
		// whole passes make that work the same set of operations each run.
		out.Metrics.put("alloc_kb_per_op", allocKB/ops, "KiB")
		out.Metrics.put("virt_us_per_op", virtUS/ops, "us")
		fmt.Fprintf(log, "%s: %d slices in %.1fs, %d ops attempted, %d failed\n",
			w.name, len(rates), time.Since(begin).Seconds(), total.ops, total.failed)
		fmt.Fprintf(log, "  op/s by slice: %.5g\n", rates)
	} else {
		ledger, err := fillLedger(cfg, w.name, tr, out.Metrics)
		if err != nil {
			return outcome{}, err
		}
		total.add(ledger)
		out.Metrics.put("host.peak_rss_mb", rss, "MB")
		out.Metrics.put("bench.trace_overhead_pct", (median(rates)/median(tracedRates)-1)*100, "%")
		fmt.Fprintf(log, "%s traced: %d slices with spans and %d without, %d spans, %d ops attempted, %d failed\n",
			w.name, len(tracedRates), len(rates), len(tr.snapshot()), total.ops, total.failed)
		printSelfTimes(log, tr)
		if o.out != "" {
			if err := tr.write(o.out, w.name); err != nil {
				return outcome{}, err
			}
		}
	}
	out.Attempted, out.Failed, out.Correct = total.ops, total.failed, total.failed == 0
	return out, nil
}

// printMetrics lists a run's metrics by name and unit.
func printMetrics(log io.Writer, set metricSet) {
	for _, name := range set.names() {
		fmt.Fprintf(log, "  %-44s %14.4f %s\n", name, set[name].Value, set[name].Unit)
	}
}

// printSelfTimes prints where the traced wall time went: each span name's
// self time (its spans minus what their children cover), its median and
// the highest percentile the sample count supports, with that count.
func printSelfTimes(log io.Writer, tr *tracer) {
	self := selfTimes(tr.snapshot())
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(log, "  %-36s %10s %6s %10s %s\n", "span", "self ms", "n", "p50 ms", "tail")
	for _, name := range names {
		d := tr.durationsMS(name)
		tail := "-"
		if p, ok := highestPercentile(len(d)); ok {
			tail = fmt.Sprintf("p%g %.3f ms", p, percentile(d, p))
		}
		fmt.Fprintf(log, "  %-36s %10.1f %6d %10.3f %s\n", name, float64(self[name])/1e6, len(d), median(d), tail)
	}
}
