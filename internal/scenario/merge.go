package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
)

// OptionsMismatchError is MergeReports' refusal to combine reports that
// ran under different experiment conditions. Every Options field that
// is serialized into the report — cluster shape (nodes, ranks_per_node),
// reps, the OSU sweep knobs (max_size, iters, warmup, iters_large),
// app_scale, timeout_ns, base_seed, ckpt_every and max_restarts — must
// match across all merged reports, because those fields determine every
// cell's result (they are exactly the fields CellHash folds into the
// cell identity). Fields excluded from report JSON — Parallel, Scratch,
// KeepImages, CacheDir, Shard — may differ freely: shard membership and pool width
// are how a sharded run differs from an unsharded one in the first
// place.
type OptionsMismatchError struct {
	// Field is the JSON name of the first differing Options field.
	Field string
	// Report is the index (in MergeReports argument order) of the report
	// that disagrees with report 0.
	Report int
	// A and B are report 0's and report Report's values for Field.
	A, B any
}

func (e *OptionsMismatchError) Error() string {
	return fmt.Sprintf("scenario: cannot merge reports: options field %q is %v in report 0 but %v in report %d",
		e.Field, e.A, e.B, e.Report)
}

// DuplicateCellError is MergeReports' refusal to combine reports whose
// cell sets overlap: shards of one run are disjoint by construction, so
// a duplicate ID means the inputs are not shards of the same run (or
// the same shard was passed twice), and silently picking one result
// would hide that.
type DuplicateCellError struct {
	// ID is the scenario ID present in more than one report.
	ID string
	// A and B are the indices of two reports that both carry ID.
	A, B int
}

func (e *DuplicateCellError) Error() string {
	return fmt.Sprintf("scenario: cannot merge reports: scenario %s appears in both report %d and report %d",
		e.ID, e.A, e.B)
}

// optionsJSON flattens the report-serialized Options fields for
// comparison, so the merge-compatibility rule automatically tracks the
// struct: any field added to the report schema becomes part of the rule.
func optionsJSON(o Options) map[string]any {
	raw, err := json.Marshal(o)
	if err != nil {
		panic(fmt.Sprintf("scenario: encoding options: %v", err))
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		panic(fmt.Sprintf("scenario: decoding options: %v", err))
	}
	return m
}

// diffOptions returns the first (alphabetically) serialized field on
// which a and b disagree, or ok=false when they agree everywhere.
func diffOptions(a, b Options) (field string, av, bv any, differ bool) {
	am, bm := optionsJSON(a), optionsJSON(b)
	keys := make([]string, 0, len(am))
	for k := range am {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !reflect.DeepEqual(am[k], bm[k]) {
			return k, am[k], bm[k], true
		}
	}
	return "", nil, nil, false
}

// MergeReports combines shard (or otherwise partial) reports of one
// matrix run into a single report, as if the union had run in one
// process: results are re-sorted by ID, pass/fail counts recomputed,
// and provenance records where each slice came from (per-shard cell
// counts, live-vs-cached splits and wall times). The merged top-level
// WallMS is the *sum* of the inputs' — total compute spent, not elapsed
// time; shards typically run concurrently, and the per-shard elapsed
// times live in Provenance.Shards.
//
// All inputs must carry the current SchemaVersion (ReadReport already
// enforces this for reports read from disk) and agree on every
// serialized Options field (see OptionsMismatchError); their cell sets
// must be disjoint (see DuplicateCellError). Find, Select and the
// harness figure queries work identically over a merged report and an
// unsharded one.
func MergeReports(reports ...*Report) (*Report, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("scenario: nothing to merge")
	}
	for i, r := range reports {
		if r.SchemaVersion != SchemaVersion {
			return nil, fmt.Errorf("scenario: cannot merge report %d: schema v%d, this build merges v%d",
				i, r.SchemaVersion, SchemaVersion)
		}
	}
	for i, r := range reports[1:] {
		if field, av, bv, differ := diffOptions(reports[0].Options, r.Options); differ {
			return nil, &OptionsMismatchError{Field: field, Report: i + 1, A: av, B: bv}
		}
	}

	owner := make(map[string]int)
	var results []Result
	var wall int64
	var shards []ShardInfo
	for i, r := range reports {
		for _, res := range r.Results {
			if prev, dup := owner[res.ID]; dup {
				return nil, &DuplicateCellError{ID: res.ID, A: prev, B: i}
			}
			owner[res.ID] = i
			results = append(results, res)
		}
		wall += r.WallMS
		shards = append(shards, shardInfos(r, i)...)
	}

	opts := reports[0].Options
	// The non-serialized fields are run-local (pool width, image and
	// cache paths, result store, shard membership); zero them so an
	// in-memory merge carries none of one input's locals.
	opts.Parallel = 0
	opts.Scratch = ""
	opts.KeepImages = ""
	opts.CacheDir = ""
	opts.Store = nil
	opts.Shard = Shard{}

	merged := newReport(opts, results, 0)
	merged.WallMS = wall
	merged.Provenance.Shards = renumberPartials(shards)
	return merged, nil
}

// renumberPartials gives every Count-0 slice (hand-merged partials,
// matrixd workers) a distinct index in the merged provenance. Without
// this, merging two reports that are THEMSELVES merges collides their
// partials' indices — merge(merge(w0,w1), merge(w2,w3)) used to carry
// two "partial 0" and two "partial 1" entries, flattening the lineage
// even though each entry's wall time survived. Deterministic -shard
// entries (Count > 0) keep their index/count identity untouched: i/n is
// their name. Labels are never rewritten — they are the durable name a
// renumbered partial keeps.
func renumberPartials(shards []ShardInfo) []ShardInfo {
	out := append([]ShardInfo(nil), shards...)
	next := 0
	for i := range out {
		if out[i].Count == 0 {
			out[i].Index = next
			next++
		}
	}
	return out
}

// shardInfos extracts report i's per-shard provenance: its own shard
// entries when it ran sharded, or a synthesized entry (Count 0 marks
// "unsharded input") so the merged provenance accounts for every input.
func shardInfos(r *Report, i int) []ShardInfo {
	if r.Provenance != nil && len(r.Provenance.Shards) > 0 {
		return r.Provenance.Shards
	}
	info := ShardInfo{Index: i, Count: 0, Scenarios: r.Scenarios, WallMS: r.WallMS}
	if r.Provenance != nil {
		info.Live, info.Cached = r.Provenance.Live, r.Provenance.Cached
	} else {
		info.Live = r.Scenarios
	}
	return []ShardInfo{info}
}
