// Command bench is the repository's benchmark: four closed-loop workloads
// with checked outputs, five end-to-end metrics per workload, and a
// per-layer ledger measured from outside the program under test. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// runs one workload and prints, as the last line of standard output, one
// JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1. Without
// -workload it runs all four, each in a process of its own so CPU time,
// allocation and peak memory are per workload; -repeat N runs N such sets
// and holds their disagreement against each metric's bound.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() {
	// Two workers everywhere, on two Ps: see `workers`.
	runtime.GOMAXPROCS(workers)
	var o runOptions
	var trace, repeat int
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs all four, each in its own process")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed section")
	flag.IntVar(&trace, "trace", 0, "1 records spans, runs the layer probes and prints the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "shrink every workload to the scale `go test` uses")
	flag.StringVar(&o.out, "out", os.Getenv("BENCH_OUT"), "directory for a traced run's span files")
	flag.IntVar(&repeat, "repeat", 1, "full sets to run when no -workload is given")
	flag.Parse()
	if flag.NArg() != 0 || trace < 0 || trace > 1 || repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	fmt.Printf("bench: %s GOMAXPROCS=%d nproc=%d commit=%s seed=%d seconds=%g trace=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit(), o.seed, o.seconds, trace)

	if o.workload == "" {
		os.Exit(runSets(o, repeat))
	}
	out, err := runWorkload(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printMetrics(os.Stdout, out.Metrics)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// commit is the revision the binary was built from, when the build
// stamped one (a checkout that is not a git repository stamps none).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "unknown"
}

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// loadBenchmarkFile finds BENCHMARK.json from the repository root or from
// this directory.
func loadBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var f benchmarkFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &f, nil
	}
	return nil, firstErr
}

// child runs one workload in a process of its own and parses its last
// line. The child's other output is passed through.
func child(o runOptions, workload string, seed int64, trace int) (outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return outcome{}, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", o.out}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run() // waits for the child to end
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println("  " + l)
	}
	var out outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		if runErr != nil {
			return out, fmt.Errorf("%s: %w", workload, runErr)
		}
		return out, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return out, nil
}

// runSets runs `repeat` full sets of the four workloads (set k on seed
// o.seed+k), prints each metric's median, quartiles and spread (the
// distance between the quartiles as a share of the median, the driver's
// measure) against its bound, and returns the exit code: nonzero when an
// output check failed or the sets disagree by more than a bound.
func runSets(o runOptions, repeat int) int {
	spec, err := loadBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: no bounds, spreads are printed without a verdict:", err)
		spec = &benchmarkFile{}
	}
	code := 0
	values := make(map[string][]float64) // "workload metric" -> one value per set
	for set := 0; set < repeat; set++ {
		for _, w := range workloads {
			out, err := child(o, w.name, o.seed+int64(set), 0)
			if err != nil || !out.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s failed (set %d): %v, %d of %d operations failed\n",
					w.name, set, err, out.Failed, out.Attempted)
				code = 1
				continue
			}
			for name, m := range out.Metrics {
				values[w.name+" "+name] = append(values[w.name+" "+name], m.Value)
			}
		}
	}
	fmt.Printf("\n%-18s %-16s %12s %12s %12s %8s %7s  (%d sets)\n",
		"workload", "metric", "median", "q1", "q3", "spread", "bound", repeat)
	for _, w := range workloads {
		for _, m := range endToEnd {
			xs := values[w.name+" "+m.name]
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			row := fmt.Sprintf("%-18s %-16s %12.4f %12.4f %12.4f %7.2f%%", w.name, m.name, median(xs), q1, q3, relSpread(xs)*100)
			for _, e := range spec.EndToEnd {
				if e.Name != m.name {
					continue
				}
				row += fmt.Sprintf(" %6.1f%%", e.Bound*100)
				if relSpread(xs) > e.Bound {
					row += "  DISAGREE"
					code = 1
				}
			}
			fmt.Println(row)
		}
	}
	if !o.trace {
		return code
	}
	fmt.Println("\nper-layer ledger (traced runs; informational):")
	for _, w := range workloads {
		out, err := child(o, w.name, o.seed, 1)
		if err != nil || !out.Correct {
			fmt.Fprintf(os.Stderr, "bench: traced %s failed: %v\n", w.name, err)
			code = 1
			continue
		}
		if w.name == "matrix_cold" {
			cells := float64(matrixCells())
			rate := median(values["matrix_cold ops_per_s"])
			fmt.Printf("budget: a cold %0.f-cell matrix costs %.1f s on %d workers, of which %.0f%% is crash-recovery cells (checkpoint image I/O and restart), %.0f%% restart cells, %.0f%% plain cells\n",
				cells, cells/rate, workers,
				out.Metrics["scenario.cell_share_pct.crash_restart"].Value,
				out.Metrics["scenario.cell_share_pct.restart"].Value,
				out.Metrics["scenario.cell_share_pct.plain"].Value)
		}
	}
	return code
}
