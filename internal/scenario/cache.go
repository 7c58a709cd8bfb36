package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// EngineVersion stamps every cell hash with the execution semantics
// that produced the result. Bump it whenever Run/runOne change what a
// cell *means* — measurement extraction, seed derivation, recovery
// protocol, fault resolution — so every cached result from the old
// engine misses and re-runs. Schema changes alone (report shape) do not
// require a bump: cached entries already embed the result and are
// invalidated by the entry decoding below when Result's JSON changes
// incompatibly.
//
// Version history:
//
//	1: PR 3's initial content-addressed cache.
//	2: the mpicore extraction and the stdabi implementation. The matrix
//	   grew a third implementation axis (120 -> 216 cells) and every MPI
//	   stack now executes over the shared internal/mpicore runtime; the
//	   refactor preserves algorithms and thresholds, but cell semantics
//	   are owned by a different code path, so every v1 result must
//	   re-run rather than be trusted across the boundary.
//	3: the ULFM subsystem and the recovery-mode axis (216 -> 234 cells:
//	   a shrink-recovery rank-crash cell per checkpointer-free straight
//	   cell). Every cell's progress engine gained failure sweeps,
//	   revocation checks and the control-plane dispatch path, so all v2
//	   results execute over changed runtime semantics and must re-run.
//	4: the replication subsystem (234 -> 252 cells: a replicate-recovery
//	   rank-crash cell beside every shrink one). The shared runtime's
//	   send, dispatch and failure-notice paths gained the replica-layer
//	   interception hooks; the hooks are no-ops on unreplicated worlds,
//	   but the paths' semantics are owned by new code, so v3 results
//	   must re-run rather than be trusted across the boundary.
//	5: one execution engine. The goroutine-per-rank engine is gone and
//	   every world runs on fabric's event scheduler, so every cell that
//	   used to run on the default engine now reports the virtual times
//	   the event engine always produced; the progress_mode options field
//	   left the hash preimage with the knob.
const EngineVersion = 5

// CellHash is the content address of one matrix cell: a stable SHA-256
// over everything that determines the cell's Result.
//
// The preimage is the canonical JSON of (EngineVersion, Spec, the
// report-serialized Options fields, and the derived per-repetition
// seeds). Options fields excluded from report JSON — Parallel, Scratch,
// KeepImages, CacheDir, Store, TraceDir, OnCell — are excluded here too,
// deliberately: pool width, directories and observers never change a
// cell's result (a cell keeps its checkpoint images in memory and reads
// no file), so they must not change its address. Conversely, every serialized
// field (cluster shape, repetition count, sweep sizes, timeout, base
// seed, checkpoint interval, retry budget) is part of the identity, and
// changing any of them re-runs the cell. This is the cache invalidation
// rule: a cell re-runs exactly when its spec, its scale, its seeds or
// the engine version changed.
func CellHash(s Spec, o Options) string {
	o = o.withDefaults()
	seeds := make([]int64, o.Reps)
	for rep := 0; rep < o.Reps; rep++ {
		seeds[rep] = seedFor(o.BaseSeed, s.Program, rep)
	}
	preimage := struct {
		Engine int     `json:"engine"`
		Spec   Spec    `json:"spec"`
		Opts   Options `json:"options"`
		Seeds  []int64 `json:"seeds"`
	}{EngineVersion, s, o, seeds}
	raw, err := json.Marshal(preimage)
	if err != nil {
		// Spec and Options are plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("scenario: hashing cell %s: %v", s.ID(), err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// Cache is a persistent, content-addressed store of completed cell
// Results, shared safely between concurrent workers and concurrent
// processes (local runs and matrixd pointing at one directory). Entries live at
// <dir>/<hash[:2]>/<hash>.json and are written atomically (temp file +
// rename), so a reader never observes a half-written entry; two
// processes racing to write the same hash write the same bytes, and
// either rename winning is correct.
//
// Only passing Results are stored (see Run): a failure is re-attempted
// on every run rather than pinned, because failures are where the
// un-modeled world (timeouts, resource exhaustion) leaks in.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scenario: opening cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Entry is the stored shape of one cell, on disk and on the wire. WallMS
// duplicates the result's wall-clock cost at the top level so schedulers
// can read expected durations (Scan's hints) without decoding — or trusting
// — the whole Result: a wall time is a scheduling hint, useful even from
// an entry whose result a newer engine version must not serve.
type Entry struct {
	Engine int    `json:"engine_version"`
	Hash   string `json:"hash"`
	WallMS int64  `json:"wall_ms,omitempty"`
	Result Result `json:"result"`
}

// path fans entries out over 256 subdirectories so no single directory
// grows unboundedly as the matrix does.
func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash[:2], hash+".json")
}

// Get returns the cached Result for hash, or ok=false on any miss —
// absent, unreadable, corrupt, stale-engine or mismatched entries all
// read as misses (the cell simply runs live and overwrites).
func (c *Cache) Get(hash string) (Result, bool) {
	if len(hash) < 2 {
		return Result{}, false
	}
	raw, err := os.ReadFile(c.path(hash))
	if err != nil {
		return Result{}, false
	}
	var e Entry
	if err := json.Unmarshal(raw, &e); err != nil {
		return Result{}, false
	}
	if e.Engine != EngineVersion || e.Hash != hash || e.Result.Status != StatusPass {
		return Result{}, false
	}
	return e.Result, true
}

// walk visits every entry file in the store — <dir>/<fan>/<file>, file
// ending in .json — with its bytes. Unreadable directories and files
// are skipped: to every caller they are indistinguishable from absent
// ones.
func (c *Cache) walk(visit func(fan, file string, raw []byte)) error {
	fanouts, err := os.ReadDir(c.dir)
	if err != nil {
		return err
	}
	for _, fan := range fanouts {
		if !fan.IsDir() {
			continue
		}
		dir := filepath.Join(c.dir, fan.Name())
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, ent := range entries {
			if ent.IsDir() || filepath.Ext(ent.Name()) != ".json" {
				continue
			}
			if raw, err := os.ReadFile(filepath.Join(dir, ent.Name())); err == nil {
				visit(fan.Name(), ent.Name(), raw)
			}
		}
	}
	return nil
}

// Prune deletes cache entries no current-or-future engine can serve:
// entries stamped with an OLDER EngineVersion (every version bump would
// otherwise leave its whole generation of results dead on disk forever
// — Get treats them as misses but nothing ever removed them) and
// entries too corrupt to decode. Live-engine entries are untouched, and
// so are entries from a NEWER engine: a shared cache directory may be
// written by a more recent checkout, and an older build's prune must
// not eat results only the newer build can serve.
// Returns how many files were removed.
func (c *Cache) Prune() (int, error) {
	removed := 0
	err := c.walk(func(fan, file string, raw []byte) {
		var e Entry
		stale := json.Unmarshal(raw, &e) != nil || e.Engine < EngineVersion
		if stale && os.Remove(filepath.Join(c.dir, fan, file)) == nil {
			removed++
		}
	})
	if err != nil {
		return 0, fmt.Errorf("scenario: pruning cache: %w", err)
	}
	return removed, nil
}

// Scan walks the store once, reading and decoding each file once, and
// yields the two things a scheduler wants from a store at start-up.
//
// The return value is the recorded per-cell wall-clock costs (the
// top-level wall_ms), keyed by scenario ID rather than address: an ID
// outlives engine, option and seed changes, which is exactly when a
// re-run needs a duration estimate. Every decodable entry contributes,
// stale-engine ones included (a wall time is a hint, never a correctness
// input), and the largest cost of an ID wins: schedulers order
// pessimistically.
//
// visit, when non-nil, is called with every entry Get would serve and
// the bytes on disk (the caller's to keep). An entry counts only if the
// address it embeds is also the one its file name and fan-out directory
// spell, so a misfiled entry is as invisible here as it is to Get.
func (c *Cache) Scan(visit func(hash string, res Result, raw []byte)) map[string]int64 {
	hints := make(map[string]int64)
	_ = c.walk(func(fan, file string, raw []byte) { // an unreadable store is an empty one
		e, servable := decodeEntry(fan, file, raw)
		if id := e.Result.ID; id != "" && e.WallMS > hints[id] {
			hints[id] = e.WallMS
		}
		if servable && visit != nil {
			visit(e.Hash, e.Result, raw)
		}
	})
	return hints
}

// decodeEntry decodes the store file <fan>/<file>. servable reports
// whether Get would serve it from there: current engine, passing
// result, and an embedded hash that is the file's own address. An entry
// this build cannot fully decode is decoded for its hint surface alone
// (ID and wall time): it may be from any engine generation, with a
// Result shape that has since changed, and is never served.
func decodeEntry(fan, file string, raw []byte) (e Entry, servable bool) {
	if json.Unmarshal(raw, &e) == nil {
		return e, e.Engine == EngineVersion && e.Result.Status == StatusPass &&
			len(e.Hash) >= 2 && fan == e.Hash[:2] && file == e.Hash+".json"
	}
	var hint struct {
		WallMS int64 `json:"wall_ms"`
		Result struct {
			ID string `json:"id"`
		} `json:"result"`
	}
	if json.Unmarshal(raw, &hint) != nil {
		return Entry{}, false
	}
	e = Entry{WallMS: hint.WallMS}
	e.Result.ID = hint.Result.ID
	return e, false
}

// Put stores res under hash. Best-effort by design: a failed Put only
// means the cell re-runs next time, so Run ignores the error; callers
// that care (tests) can check it.
func (c *Cache) Put(hash string, res Result) error {
	_, err := c.PutEntry(hash, res)
	return err
}

// PutEntry is Put returning the bytes it published — exactly the file's
// contents — so a caller that serves entries (matrixd) need not read
// back what it has just written.
func (c *Cache) PutEntry(hash string, res Result) ([]byte, error) {
	if len(hash) < 2 {
		return nil, fmt.Errorf("scenario: cache put with malformed hash %q", hash)
	}
	res.Cached = false // stored results are canonical, not themselves hits
	raw, err := json.MarshalIndent(Entry{Engine: EngineVersion, Hash: hash, WallMS: res.WallMS, Result: res}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding cache entry: %w", err)
	}
	raw = append(raw, '\n')
	// The fan-out directory exists for all but the first entry under its
	// prefix, so it is created only when the temp file says it is missing.
	dir := filepath.Dir(c.path(hash))
	pattern := "." + hash[:min(8, len(hash))] + "-*"
	tmp, err := os.CreateTemp(dir, pattern)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("scenario: cache fanout dir: %w", err)
		}
		tmp, err = os.CreateTemp(dir, pattern)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: cache temp file: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("scenario: writing cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("scenario: closing cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(hash)); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("scenario: publishing cache entry: %w", err)
	}
	return raw, nil
}
