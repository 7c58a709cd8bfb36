package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

func hashSpec() Spec {
	return Spec{Program: "app.wave", Impl: core.ImplMPICH, ABI: core.ABIMukautuva, Ckpt: core.CkptMANA}
}

func TestCellHashStableAndComplete(t *testing.T) {
	s, o := hashSpec(), Quick()
	if CellHash(s, o) != CellHash(s, o) {
		t.Fatal("hash not deterministic")
	}
	// The hash must survive withDefaults: hashing raw options and hashing
	// the defaults-applied options the engine actually runs with must
	// agree, or Run and out-of-band tooling would disagree on addresses.
	if CellHash(s, o) != CellHash(s, o.withDefaults()) {
		t.Fatal("hash differs across withDefaults")
	}

	// Every result-determining input changes the address.
	base := CellHash(s, o)
	s2 := s
	s2.Fault = "rank-crash"
	if CellHash(s2, o) == base {
		t.Error("spec change did not change hash")
	}
	for name, mutate := range map[string]func(*Options){
		"base_seed":  func(o *Options) { o.BaseSeed++ },
		"reps":       func(o *Options) { o.Reps++ },
		"nodes":      func(o *Options) { o.Nodes++ },
		"app_scale":  func(o *Options) { o.AppScale *= 2 },
		"timeout":    func(o *Options) { o.Timeout *= 2 },
		"ckpt_every": func(o *Options) { o.CkptEvery = 7 },
	} {
		m := o
		mutate(&m)
		if CellHash(s, m) == base {
			t.Errorf("options change %q did not change hash", name)
		}
	}

	// Run-local knobs must NOT change the address: pool width, scratch
	// and cache paths, shard membership never affect a cell's result.
	for name, mutate := range map[string]func(*Options){
		"parallel": func(o *Options) { o.Parallel = 1 },
		"scratch":  func(o *Options) { o.Scratch = "/elsewhere" },
		"images":   func(o *Options) { o.KeepImages = "/elsewhere" },
		"cache":    func(o *Options) { o.CacheDir = "/elsewhere" },
		"shard":    func(o *Options) { o.Shard = Shard{Index: 1, Count: 4} },
	} {
		m := o
		mutate(&m)
		if CellHash(s, m) != base {
			t.Errorf("run-local knob %q changed the hash", name)
		}
	}
}

// The pinned hash guards cross-process / cross-revision stability: two
// shard processes (or two CI runs) must address the same cell with the
// same hash, or the cache never hits. If this test breaks, cell
// identity changed — that invalidates every cached result, which is
// only correct when intentional: bump EngineVersion and re-pin.
func TestCellHashPinned(t *testing.T) {
	s := hashSpec()
	o := Options{Nodes: 2, RanksPerNode: 4, Reps: 2, MaxSize: 64, Iters: 2, Warmup: 1, BaseSeed: 42}
	// Re-pinned for EngineVersion 5 (one execution engine; every v4
	// result deliberately invalidated).
	const want = "feca1a47b920b90ea3e8a9c6a3f222f384955c8b9d7d483391b1ba3487e356b2"
	if got := CellHash(s, o); got != want {
		t.Fatalf("pinned cell hash drifted (engine version %d):\n got %s\nwant %s",
			EngineVersion, got, want)
	}
}

// There is one execution engine and nothing in a run's options may select
// another: the serialized options — the hash preimage, the report header,
// what matrixd hands its workers — carry no engine field.
func TestOptionsCarryNoEngineKnob(t *testing.T) {
	raw, err := json.Marshal(Full())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"progress", "engine"} {
		if strings.Contains(strings.ToLower(string(raw)), key) {
			t.Errorf("serialized Options mention %q: %s", key, raw)
		}
	}
}

func TestCacheHitSkipsExecution(t *testing.T) {
	var live atomic.Int32
	withStubRunner(t, func(s Spec, o Options) Result {
		live.Add(1)
		return Result{ID: s.ID(), Spec: s, Status: StatusPass, Reps: o.Reps, WallMS: 7}
	})
	o := Options{Parallel: 4, Reps: 2, CacheDir: t.TempDir()}
	specs := DefaultMatrix().Enumerate()

	cold := Run(specs, o)
	if n := int(live.Load()); n != len(specs) {
		t.Fatalf("cold run executed %d cells, want %d", n, len(specs))
	}
	if cold.Provenance == nil || cold.Provenance.Live != len(specs) || cold.Provenance.Cached != 0 {
		t.Fatalf("cold provenance = %+v", cold.Provenance)
	}

	live.Store(0)
	warm := Run(specs, o)
	if n := int(live.Load()); n != 0 {
		t.Fatalf("warm run executed %d cells, want 0", n)
	}
	if warm.Provenance.Live != 0 || warm.Provenance.Cached != len(specs) {
		t.Fatalf("warm provenance = %+v", warm.Provenance)
	}
	// Warm results equal cold results cell-for-cell, modulo the Cached
	// provenance mark.
	for i := range cold.Results {
		c, w := cold.Results[i], warm.Results[i]
		if !w.Cached {
			t.Fatalf("warm result %s not marked cached", w.ID)
		}
		w.Cached = false
		if c.ID != w.ID || c.CellHash != w.CellHash || c.WallMS != w.WallMS || c.Status != w.Status {
			t.Fatalf("warm result diverged:\ncold %+v\nwarm %+v", c, w)
		}
	}

	// Changing the base seed re-addresses every cell: full re-run.
	o.BaseSeed = 99
	Run(specs, o)
	if n := int(live.Load()); n != len(specs) {
		t.Fatalf("seed change re-ran %d cells, want %d", n, len(specs))
	}
}

func TestCacheDoesNotPinFailures(t *testing.T) {
	var live atomic.Int32
	withStubRunner(t, func(s Spec, o Options) Result {
		live.Add(1)
		return Result{ID: s.ID(), Spec: s, Status: StatusFail, Error: "transient"}
	})
	o := Options{Parallel: 2, Reps: 1, CacheDir: t.TempDir()}
	specs := DefaultMatrix().Enumerate()[:4]
	Run(specs, o)
	Run(specs, o)
	if n := int(live.Load()); n != 2*len(specs) {
		t.Fatalf("failing cells executed %d times, want %d (failures must never be served from cache)",
			n, 2*len(specs))
	}
}

func TestCacheCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := CellHash(hashSpec(), Quick())
	if err := c.Put(h, Result{ID: hashSpec().ID(), Status: StatusPass}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(h); !ok {
		t.Fatal("fresh entry missed")
	}
	if err := os.WriteFile(filepath.Join(dir, h[:2], h+".json"), []byte("{torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(h); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	// A stale engine version is a miss too.
	raw := strings.Replace(`{"engine_version": 999999, "hash": "H", "result": {"id": "x", "status": "pass"}}`,
		"H", h, 1)
	if err := os.WriteFile(filepath.Join(dir, h[:2], h+".json"), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(h); ok {
		t.Fatal("stale-engine entry served as a hit")
	}
}

// The cache is shared by the pool's workers and by concurrent shard
// processes; this is the -race exercise for racing Put/Get on
// overlapping hash sets.
func TestCacheConcurrentPutGet(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := DefaultMatrix().Enumerate()[:16]
	o := Quick()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range specs {
				h := CellHash(s, o)
				if res, ok := c.Get(h); ok && res.ID != s.ID() {
					t.Errorf("hash %s returned result for %s, want %s", h[:8], res.ID, s.ID())
				}
				if err := c.Put(h, Result{ID: s.ID(), Spec: s, Status: StatusPass}); err != nil {
					t.Errorf("put %s: %v", s.ID(), err)
				}
				if res, ok := c.Get(h); !ok || res.ID != s.ID() {
					t.Errorf("get-after-put %s: ok=%v", s.ID(), ok)
				}
			}
		}()
	}
	wg.Wait()
}

// WallHints is the scheduler's warm start: recorded per-cell costs,
// keyed by ID so they survive engine bumps and seed changes, with
// graceful backfill for entries written before the top-level wall_ms
// field existed.
func TestCacheWallHints(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := Quick()
	s := hashSpec()
	h := CellHash(s, o)
	if err := c.Put(h, Result{ID: s.ID(), Spec: s, Status: StatusPass, WallMS: 120}); err != nil {
		t.Fatal(err)
	}
	if hints := c.WallHints(); hints[s.ID()] != 120 {
		t.Fatalf("hints = %v, want %s -> 120", hints, s.ID())
	}

	// A stale-engine entry still contributes: wall time is a hint, not a
	// result, and the stale cost is exactly the warm-start estimate for
	// the re-run the engine bump forces. Plant it under a different
	// address for the same ID with a LARGER cost — the pessimistic
	// maximum must win.
	raw, err := os.ReadFile(filepath.Join(dir, h[:2], h+".json"))
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(raw),
		`"engine_version": `+fmt.Sprint(EngineVersion),
		`"engine_version": `+fmt.Sprint(EngineVersion-1), 1)
	stale = strings.Replace(stale, `"wall_ms": 120`, `"wall_ms": 900`, -1)
	h2 := strings.Repeat("ef", 32)
	stale = strings.Replace(stale, h, h2, -1)
	if err := os.MkdirAll(filepath.Join(dir, h2[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, h2[:2], h2+".json"), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if hints := c.WallHints(); hints[s.ID()] != 900 {
		t.Fatalf("stale-engine hint lost or maximum not taken: %v", hints)
	}

	// An entry written before the top-level wall_ms existed backfills
	// from the embedded result's own wall time.
	s3 := hashSpec()
	s3.Program = "app.comd"
	h3 := CellHash(s3, o)
	legacy := fmt.Sprintf(`{"engine_version": %d, "hash": %q, "result": {"id": %q, "status": "pass", "wall_ms": 55}}`,
		EngineVersion, h3, s3.ID())
	if err := os.MkdirAll(filepath.Join(dir, h3[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, h3[:2], h3+".json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	// And corruption contributes nothing (no panic, no phantom key).
	h4 := strings.Repeat("09", 32)
	if err := os.MkdirAll(filepath.Join(dir, h4[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, h4[:2], h4+".json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	hints := c.WallHints()
	if hints[s3.ID()] != 55 {
		t.Fatalf("legacy entry did not backfill from result wall_ms: %v", hints)
	}
	if len(hints) != 2 {
		t.Fatalf("hints = %v, want exactly 2 IDs", hints)
	}
}

func TestShardPartitionDisjointAndExhaustive(t *testing.T) {
	specs := DefaultMatrix().Enumerate()
	const n = 4
	seen := make(map[string]int)
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		part := Shard{Index: i, Count: n}.Select(specs)
		sizes[i] = len(part)
		for _, s := range part {
			if prev, dup := seen[s.ID()]; dup {
				t.Fatalf("scenario %s in shards %d and %d", s.ID(), prev, i)
			}
			seen[s.ID()] = i
		}
	}
	if len(seen) != len(specs) {
		t.Fatalf("union covers %d of %d specs", len(seen), len(specs))
	}
	for i := 1; i < n; i++ {
		if d := sizes[i] - sizes[0]; d < -1 || d > 1 {
			t.Fatalf("unbalanced shards: %v", sizes)
		}
	}
	// Unsharded selectors pass everything through.
	if got := (Shard{}).Select(specs); len(got) != len(specs) {
		t.Fatalf("zero shard selected %d of %d", len(got), len(specs))
	}
}

func TestShardValidateAndParse(t *testing.T) {
	for _, bad := range []string{"", "3", "4/4", "-1/4", "1/0", "a/b", "1/4/8", "1/4x", " 1/4"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
	sh, err := ParseShard("2/4")
	if err != nil || sh != (Shard{Index: 2, Count: 4}) {
		t.Fatalf("ParseShard(2/4) = %+v, %v", sh, err)
	}
	if err := (Shard{Index: 1, Count: 0}).Validate(); err == nil {
		t.Error("index without count accepted")
	}
	if err := (Shard{}).Validate(); err != nil {
		t.Errorf("zero shard rejected: %v", err)
	}
}

// TestCachePrune: stale-engine and corrupt entries are deleted, live
// entries survive and still serve.
func TestCachePrune(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := Quick()
	live := CellHash(hashSpec(), o)
	if err := c.Put(live, Result{ID: hashSpec().ID(), Status: StatusPass}); err != nil {
		t.Fatal(err)
	}

	// A stale-engine entry: a valid entry body stamped with the previous
	// engine version, planted the way an old build would have left it.
	s2 := hashSpec()
	s2.Program = "app.comd"
	stale := CellHash(s2, o)
	raw, err := os.ReadFile(filepath.Join(dir, live[:2], live+".json"))
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(raw),
		`"engine_version": `+fmt.Sprint(EngineVersion),
		`"engine_version": `+fmt.Sprint(EngineVersion-1), 1)
	old = strings.Replace(old, live, stale, -1)
	if err := os.MkdirAll(filepath.Join(dir, stale[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, stale[:2], stale+".json"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	// A corrupt entry.
	corrupt := strings.Repeat("ab", 32)
	if err := os.MkdirAll(filepath.Join(dir, corrupt[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, corrupt[:2], corrupt+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A newer-engine entry (a shared cache directory written by a more
	// recent checkout) must survive an older build's prune.
	future := strings.Repeat("cd", 32)
	futureRaw := strings.Replace(old,
		`"engine_version": `+fmt.Sprint(EngineVersion-1),
		`"engine_version": `+fmt.Sprint(EngineVersion+1), 1)
	futureRaw = strings.Replace(futureRaw, stale, future, -1)
	if err := os.MkdirAll(filepath.Join(dir, future[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, future[:2], future+".json"), []byte(futureRaw), 0o644); err != nil {
		t.Fatal(err)
	}

	removed, err := c.Prune()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("pruned %d entries, want 2 (stale + corrupt)", removed)
	}
	if _, ok := c.Get(live); !ok {
		t.Fatal("prune removed a live-engine entry")
	}
	if _, err := os.Stat(filepath.Join(dir, future[:2], future+".json")); err != nil {
		t.Fatal("prune removed a newer-engine entry a future build can serve")
	}
	if _, err := os.Stat(filepath.Join(dir, stale[:2], stale+".json")); !os.IsNotExist(err) {
		t.Fatal("stale-engine entry survived prune")
	}
	if _, err := os.Stat(filepath.Join(dir, corrupt[:2], corrupt+".json")); !os.IsNotExist(err) {
		t.Fatal("corrupt entry survived prune")
	}
	// Idempotent.
	if removed, err := c.Prune(); err != nil || removed != 0 {
		t.Fatalf("second prune = (%d, %v), want (0, nil)", removed, err)
	}
}

// Scan is Get's rule applied to the whole directory in one pass: it
// yields exactly the entries Get would serve, with the bytes on disk,
// and PutEntry returns those same bytes without reading them back.
func TestCacheScanYieldsWhatGetServes(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := Quick()
	s := hashSpec()
	h := CellHash(s, o)
	published, err := c.PutEntry(h, Result{ID: s.ID(), Spec: s, Status: StatusPass, WallMS: 7, Cached: true})
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, h[:2], h+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(published) != string(onDisk) {
		t.Fatalf("PutEntry returned %d bytes that are not the file's %d", len(published), len(onDisk))
	}
	// A second entry under the same fan-out prefix takes the path that
	// skips MkdirAll; one under a fresh prefix takes the one that needs it.
	sibling := h[:2] + strings.Repeat("0", 62)
	if err := c.Put(sibling, Result{ID: "sibling", Status: StatusPass}); err != nil {
		t.Fatal(err)
	}
	// The good entry's bytes filed under another address, and under the
	// right name in the wrong fan-out directory: Get misses both.
	misfiled := strings.Repeat("ab", 32)
	for _, path := range []string{
		filepath.Join(dir, misfiled[:2], misfiled+".json"),
		filepath.Join(dir, "zz", h+".json"),
	} {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, onDisk, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A failing result someone planted by hand.
	failing := strings.Replace(string(onDisk), `"status": "pass"`, `"status": "fail"`, 1)
	fh := strings.Repeat("cd", 32)
	failing = strings.Replace(failing, h, fh, -1)
	if err := os.MkdirAll(filepath.Join(dir, fh[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fh[:2], fh+".json"), []byte(failing), 0o644); err != nil {
		t.Fatal(err)
	}

	got := map[string]string{}
	hints := c.Scan(func(hash string, res Result, raw []byte) {
		if want, ok := c.Get(hash); !ok || want.ID != res.ID {
			t.Errorf("Scan yielded %s (%s), which Get does not serve", hash[:8], res.ID)
		}
		if res.Cached {
			t.Errorf("stored result %s is marked cached", res.ID)
		}
		got[hash] = string(raw)
	})
	if len(got) != 2 || got[h] != string(onDisk) || got[sibling] == "" {
		t.Fatalf("Scan yielded %d entries, want the two well-filed passing ones with their file bytes", len(got))
	}
	if hints[s.ID()] != 7 {
		t.Fatalf("hints = %v, want %s -> 7", hints, s.ID())
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*", ".*")); len(files) != 0 {
		t.Fatalf("temp files left behind: %v", files)
	}
}

// FuzzCacheEntryDecode feeds arbitrary bytes to the one decoder every
// store read now goes through, as a file at a real cell's address. The
// scan must never panic, must agree with Get on whether the file is
// servable, and must never yield an entry whose engine stamp, status or
// embedded hash disagree with the current engine, "pass" and the file's
// name. The seeds are entries this build writes, and truncations of them.
func FuzzCacheEntryDecode(f *testing.F) {
	o := Quick()
	s := hashSpec()
	h := CellHash(s, o)
	dir := f.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		f.Fatal(err)
	}
	virt := stats.Summarize([]float64{0.25, 0.5, 0.75})
	for _, res := range []Result{
		{ID: s.ID(), Spec: s, Status: StatusPass, Reps: 1, WallMS: 120, CellHash: h},
		{ID: s.ID(), Spec: s, Status: StatusPass, Reps: 3, Time: &virt},
		{ID: s.ID(), Spec: s, Status: StatusFail, Error: "boom"},
	} {
		raw, err := c.PutEntry(h, res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:len(raw)-3])
		f.Add([]byte(strings.Replace(string(raw), h, strings.Repeat("ef", 32), 1)))
		f.Add([]byte(strings.Replace(string(raw),
			`"engine_version": `+fmt.Sprint(EngineVersion), `"engine_version": `+fmt.Sprint(EngineVersion-1), 1)))
	}
	f.Add([]byte(`{"engine_version": 4, "HASH": "` + h + `", "result": {"id": "x", "status": "pass", "wall_ms": "soon"}}`))
	path := filepath.Join(dir, h[:2], h+".json")

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, servable := c.Get(h)
		yielded := 0
		hints := c.Scan(func(hash string, res Result, raw []byte) {
			yielded++
			// An oracle that shares no code with decodeEntry.
			var e struct {
				Engine int    `json:"engine_version"`
				Hash   string `json:"hash"`
				Result struct {
					Status Status `json:"status"`
				} `json:"result"`
			}
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("scan yielded undecodable bytes: %v", err)
			}
			if e.Engine != EngineVersion || e.Result.Status != StatusPass || e.Hash != h || hash != h {
				t.Fatalf("scan yielded engine %d, status %q, hash %q (as %q) from the file at %s", e.Engine, e.Result.Status, e.Hash, hash, h)
			}
			if string(raw) != string(data) {
				t.Fatal("scan yielded bytes other than the file's")
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("scan decoded %+v, Get decoded %+v", res, want)
			}
		})
		if (yielded == 1) != servable || yielded > 1 {
			t.Fatalf("Get servable=%v but scan yielded %d entries", servable, yielded)
		}
		for id := range hints {
			if id == "" {
				t.Fatal("hint recorded under an empty ID")
			}
		}
	})
}
