package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// SchemaVersion is bumped whenever the JSON shape of Report changes, so
// matrix results stay diffable (and comparable tooling can refuse
// mismatched versions) across revisions of this repository.
//
// v2 added the fault axis: Spec.Fault/FaultStep/CkptEvery,
// Result.Faults, and Options.CkptEvery/MaxRestarts.
//
// v3 added the incremental-execution layer: Result.CellHash/Cached and
// Report.Provenance (live-vs-cached cell counts, per-slice wall times),
// so a report records which cells ran live and who ran them.
//
// v4 added the recovery-mode axis: Spec.Recovery ("shrink" selects ULFM
// in-place recovery for rank-crash cells) and the shrink half of
// FaultRecord (Recovery/Shrinks/Survivors).
//
// v5 added the third recovery mode: Spec.Recovery "replicate" (warm
// shadow replicas, promotion in place of a dead primary) and the
// promotion half of FaultRecord (Promotions/Promoted).
const SchemaVersion = 5

// Status is a scenario outcome.
type Status string

// Scenario outcomes.
const (
	StatusPass Status = "pass"
	StatusFail Status = "fail"
)

// Curve is a per-message-size latency series aggregated over repetitions
// (medians with standard deviations, the paper's protocol).
type Curve struct {
	Sizes    []int     `json:"sizes"`
	MedianUS []float64 `json:"median_us"`
	StdDevUS []float64 `json:"stddev_us"`
}

// Lineage records one repetition's checkpoint image provenance: which
// stack wrote the images, which stack resumed them, and at which program
// step the checkpoint was taken. Dir names the image set within the
// repetition's in-memory store (<cell-id-path>/repNN), the same on every
// machine; Options.KeepImages (paperfigs -matrix -images) keeps a copy
// on disk under that name.
type Lineage struct {
	Rep          int    `json:"rep"`
	Dir          string `json:"dir"`
	Step         uint64 `json:"step"`
	LaunchStack  string `json:"launch_stack"`
	RestartStack string `json:"restart_stack"`
}

// FaultRecord is one repetition's injected fault and its recovery, in
// the terms the report can keep deterministic: resolved targets, trigger
// step, and virtual times (wall clocks would differ between two runs of
// the same seed, and the report must diff cleanly).
type FaultRecord struct {
	Rep  int    `json:"rep"`
	Kind string `json:"kind"`
	// Ranks are the ranks the fault killed; Node is the dead node for
	// node-scoped faults (-1 otherwise); Step is the trigger step.
	Ranks []int  `json:"ranks,omitempty"`
	Node  int    `json:"node"`
	Step  uint64 `json:"step,omitempty"`
	// DetectVirtMS is the virtual time at which the failure was detected.
	DetectVirtMS float64 `json:"detect_virt_ms,omitempty"`
	// ImageDir (the set's name in the repetition's image store, like
	// Lineage.Dir) and ImageStep name the complete image recovery resumed
	// from; empty/zero means the failure beat the first checkpoint and
	// the job relaunched from scratch. LostVirtMS is the recomputation window (detection minus
	// image time): the recovery cost the checkpoint interval buys down.
	ImageDir   string  `json:"image_dir,omitempty"`
	ImageStep  uint64  `json:"image_step,omitempty"`
	LostVirtMS float64 `json:"lost_virt_ms,omitempty"`
	// Restarts is the number of recovery legs used (retry budget spent).
	Restarts int `json:"restarts"`
	// RestartStack labels the stack the recovery legs ran under.
	RestartStack string `json:"restart_stack,omitempty"`
	// Recovery marks the recovery mode ("shrink" for ULFM in-place
	// cells; empty for the restart protocol). Shrink cells never
	// restart: Shrinks counts the in-place recoveries and Survivors is
	// the shrunken world size after the first one.
	Recovery  string `json:"recovery,omitempty"`
	Shrinks   int    `json:"shrinks,omitempty"`
	Survivors int    `json:"survivors,omitempty"`
	// Replicate cells ("replicate") never restart or shrink either:
	// Promotions counts the logical ranks that failed over to their warm
	// shadow, and Promoted lists them. The world keeps its full logical
	// size throughout — promotion is membership-preserving by design.
	Promotions int   `json:"promotions,omitempty"`
	Promoted   []int `json:"promoted,omitempty"`
}

// Result is one scenario's aggregated outcome.
type Result struct {
	ID     string `json:"id"`
	Spec   Spec   `json:"spec"`
	Status Status `json:"status"`
	Error  string `json:"error,omitempty"`
	// Reps and Seeds document the repetition protocol (Seeds are the
	// deterministic per-repetition jitter seeds actually used).
	Reps  int     `json:"reps"`
	Seeds []int64 `json:"seeds,omitempty"`
	// Time is the virtual completion time over repetitions; Curve is the
	// per-size latency sweep (OSU scenarios only).
	Time  *stats.Summary `json:"time_secs,omitempty"`
	Curve *Curve         `json:"curve,omitempty"`
	// RestartTime/RestartCurve are the restarted run's measurements, and
	// Lineage the image provenance, for scenarios with a restart leg.
	RestartTime  *stats.Summary `json:"restart_time_secs,omitempty"`
	RestartCurve *Curve         `json:"restart_curve,omitempty"`
	Lineage      []Lineage      `json:"lineage,omitempty"`
	// Faults records each repetition's injected fault and recovery, for
	// fault-axis scenarios. Time then measures the virtual
	// time-to-solution: recovered completion plus the recomputation
	// windows the failures threw away (restart rewinds the virtual
	// clocks to the image, so completion alone would hide the crash).
	Faults []FaultRecord `json:"faults,omitempty"`
	// CellHash is the cell's content address (see CellHash): a stable
	// hash of the spec, the result-determining options, the derived
	// seeds and the engine version. Equal inputs hash equally across
	// processes and machines, which is what lets concurrent runs share a
	// result cache without coordination.
	CellHash string `json:"cell_hash,omitempty"`
	// Cached marks a result served from the on-disk cache instead of a
	// live execution; its measurements (and WallMS) are those of the run
	// that originally produced it.
	Cached bool `json:"cached,omitempty"`
	// WallMS is the wall-clock cost of the scenario (all repetitions).
	WallMS int64 `json:"wall_ms"`
}

// ShardInfo is the provenance of one slice of a run: one worker's share
// of a matrixd work-stealing run, named by Label, with the cells it
// carried (split live vs cached) and its own wall time. Index numbers
// the workers in Label order. Count is 0 for a worker's slice; the
// field stays so the schema-v5 JSON keeps its shape.
type ShardInfo struct {
	Index     int    `json:"index"`
	Count     int    `json:"count"`
	Label     string `json:"label,omitempty"`
	Scenarios int    `json:"scenarios"`
	Live      int    `json:"live"`
	Cached    int    `json:"cached"`
	WallMS    int64  `json:"wall_ms"`
}

// Provenance records how the report's results were obtained: how many
// cells actually executed (Live) versus were served from the result
// cache (Cached), and — for a matrixd-assembled report — the per-worker
// breakdown. It is the schema-v3 answer to "what did this run cost and
// can I trust a warm-cache run": a fully warm re-run shows Live 0.
type Provenance struct {
	Live   int         `json:"live"`
	Cached int         `json:"cached"`
	Shards []ShardInfo `json:"shards,omitempty"`
}

// Report is a matrix run: versioned, ID-sorted, and JSON-stable, so two
// runs of the same cells at the same scale diff cleanly, whether one
// process ran them or a matrixd fleet did.
type Report struct {
	SchemaVersion int         `json:"schema_version"`
	Paper         string      `json:"paper"`
	Options       Options     `json:"options"`
	Scenarios     int         `json:"scenarios"`
	Passed        int         `json:"passed"`
	Failed        int         `json:"failed"`
	WallMS        int64       `json:"wall_ms"`
	Provenance    *Provenance `json:"provenance,omitempty"`
	Results       []Result    `json:"results"`
}

// AssembleReport builds a Report from a run's results, which it sorts by
// ID in place and keeps: pass/fail counted, provenance split
// live-vs-cached from each Result's Cached mark. wall is the cost to
// record. Run-local Options fields are zeroed so the report carries no
// machine locals.
func AssembleReport(o Options, results []Result, wall time.Duration) *Report {
	o = o.withDefaults()
	o.Parallel = 0
	o.Scratch = ""
	o.KeepImages = ""
	o.CacheDir = ""
	o.Store = nil
	sort.Slice(results, func(i, j int) bool { return results[i].ID < results[j].ID })
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Paper:         "The Case for ABI Interoperability in a Fault Tolerant MPI (IPPS 2025)",
		Options:       o,
		Scenarios:     len(results),
		WallMS:        wall.Milliseconds(),
		Provenance:    &Provenance{},
		Results:       results,
	}
	for _, r := range results {
		if r.Status == StatusPass {
			rep.Passed++
		} else {
			rep.Failed++
		}
		if r.Cached {
			rep.Provenance.Cached++
		} else {
			rep.Provenance.Live++
		}
	}
	return rep
}

// Find returns the result with the given scenario ID, or nil. Reports
// written by AssembleReport are ID-sorted and looked up by
// binary search; a hand-assembled (unsorted) report falls back to a
// linear scan, so queries tolerate reports from any source.
func (r *Report) Find(id string) *Result {
	i := sort.Search(len(r.Results), func(i int) bool { return r.Results[i].ID >= id })
	if i < len(r.Results) && r.Results[i].ID == id {
		return &r.Results[i]
	}
	for j := range r.Results {
		if r.Results[j].ID == id {
			return &r.Results[j]
		}
	}
	return nil
}

// FirstFailure returns the first failed result, or nil when all passed.
func (r *Report) FirstFailure() *Result {
	for i := range r.Results {
		if r.Results[i].Status != StatusPass {
			return &r.Results[i]
		}
	}
	return nil
}

// WriteJSON persists the report (indented, trailing newline) at path,
// creating parent directories as needed.
func (r *Report) WriteJSON(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: encoding report: %w", err)
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("scenario: creating report dir: %w", err)
		}
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Save is the epilogue every matrix driver shares: it prints the table,
// the provenance (one line per worker of a fleet) and the path it writes
// the report to, and returns an error when a cell failed.
func (r *Report) Save(path string, out io.Writer) error {
	fmt.Fprintln(out, r.Render())
	if p := r.Provenance; p != nil {
		fmt.Fprintf(out, "provenance: %d live, %d cached\n", p.Live, p.Cached)
		for _, w := range p.Shards {
			fmt.Fprintf(out, "  worker %s: %d cells, %.1fs wall\n", w.Label, w.Scenarios, float64(w.WallMS)/1000)
		}
	}
	if err := r.WriteJSON(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (schema v%d)\n", path, SchemaVersion)
	if r.Failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", r.Failed, r.Scenarios)
	}
	return nil
}

// ReadReport loads a report written by WriteJSON, rejecting unknown
// schema versions.
//
//mpivet:allow deadexport -- test-facing: the paperfigs and matrixd command tests read back the report each command writes
func ReadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: reading report: %w", err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("scenario: decoding report: %w", err)
	}
	if rep.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("scenario: report schema v%d, this build reads v%d",
			rep.SchemaVersion, SchemaVersion)
	}
	return &rep, nil
}

// Render formats the report as an aligned text table, one scenario per
// line, pass/fail first.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== SCENARIO MATRIX (schema v%d): %d scenarios, %d pass, %d fail, %.1fs wall",
		r.SchemaVersion, r.Scenarios, r.Passed, r.Failed, float64(r.WallMS)/1000)
	if p := r.Provenance; p != nil && p.Cached > 0 {
		fmt.Fprintf(&b, " (%d live, %d cached)", p.Live, p.Cached)
	}
	b.WriteString(" ==\n")
	for _, res := range r.Results {
		line := fmt.Sprintf("%-4s  %-64s", res.Status, res.ID)
		switch {
		case res.Status != StatusPass:
			line += "  " + res.Error
		case res.Time != nil:
			line += fmt.Sprintf("  t=%.3fs", res.Time.Median)
			if res.RestartTime != nil && len(res.Lineage) > 0 {
				line += fmt.Sprintf("  restart t=%.3fs (ckpt step %d)", res.RestartTime.Median, res.Lineage[0].Step)
			}
			if len(res.Faults) > 0 {
				f := res.Faults[0]
				line += fmt.Sprintf("  fault=%s", f.Kind)
				if f.Step > 0 {
					line += fmt.Sprintf("@%d", f.Step)
				}
				if f.Restarts > 0 {
					line += fmt.Sprintf(" recovered(%d)", f.Restarts)
				}
				if f.Shrinks > 0 {
					line += fmt.Sprintf(" shrunk(x%d, %d survive)", f.Shrinks, f.Survivors)
				}
				if f.Promotions > 0 {
					line += fmt.Sprintf(" failover(x%d promoted)", f.Promotions)
				}
			}
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}
