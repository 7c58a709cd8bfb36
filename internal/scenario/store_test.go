package scenario

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// mapStore is the minimal in-memory Store, with operation counters so
// tests can see which tier a read was served from. Run's workers call it
// concurrently, so mu guards the map; tests read m directly only while no
// Run is in flight.
type mapStore struct {
	mu         sync.Mutex
	m          map[string]Result
	gets, puts atomic.Int32
	putErr     error
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string]Result)} }

func (s *mapStore) Get(hash string) (Result, bool) {
	s.gets.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.m[hash]
	return res, ok
}

func (s *mapStore) Put(hash string, res Result) error {
	s.puts.Add(1)
	if s.putErr != nil {
		return s.putErr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[hash] = res
	return nil
}

// The directory cache is the Store archetype; the compiler holds it to
// the interface.
var _ Store = (*Cache)(nil)

func TestTieredReadThroughWriteBack(t *testing.T) {
	local, upstream := newMapStore(), newMapStore()
	st := Tiered(local, upstream)

	upstream.m["aa"] = Result{ID: "cell/a", Status: StatusPass}

	// First read falls through to upstream and writes back into local.
	res, ok := st.Get("aa")
	if !ok || res.ID != "cell/a" {
		t.Fatalf("Get = %+v, %v", res, ok)
	}
	if local.puts.Load() != 1 {
		t.Fatalf("upstream hit not written back to local (%d local puts)", local.puts.Load())
	}
	// Second read is served locally: upstream sees no new Get.
	before := upstream.gets.Load()
	if _, ok := st.Get("aa"); !ok {
		t.Fatal("write-back entry missed")
	}
	if upstream.gets.Load() != before {
		t.Fatal("local hit still consulted upstream")
	}

	// Put writes both tiers.
	if err := st.Put("bb", Result{ID: "cell/b", Status: StatusPass}); err != nil {
		t.Fatal(err)
	}
	if _, ok := local.m["bb"]; !ok {
		t.Fatal("Put skipped the local tier")
	}
	if _, ok := upstream.m["bb"]; !ok {
		t.Fatal("Put skipped the upstream tier")
	}

	// Misses everywhere are misses.
	if _, ok := st.Get("cc"); ok {
		t.Fatal("phantom hit")
	}
}

func TestTieredErrorDiscipline(t *testing.T) {
	local, upstream := newMapStore(), newMapStore()
	st := Tiered(local, upstream)

	// A failing local write-back must not turn an upstream hit into a
	// miss, and a failing local Put must not mask upstream success.
	local.putErr = fmt.Errorf("disk full")
	upstream.m["aa"] = Result{ID: "cell/a", Status: StatusPass}
	if _, ok := st.Get("aa"); !ok {
		t.Fatal("local write-back failure became an upstream miss")
	}
	if err := st.Put("bb", Result{ID: "cell/b", Status: StatusPass}); err != nil {
		t.Fatalf("local-tier failure surfaced from Put: %v", err)
	}

	// The upstream is the shared store; its Put failure is THE failure.
	local.putErr = nil
	upstream.putErr = fmt.Errorf("server gone")
	if err := st.Put("cc", Result{ID: "cell/c", Status: StatusPass}); err == nil {
		t.Fatal("upstream Put failure swallowed")
	}
}

func TestTieredNilCollapses(t *testing.T) {
	only := newMapStore()
	if st := Tiered(nil, only); st != Store(only) {
		t.Fatal("nil local did not collapse to upstream")
	}
	if st := Tiered(only, nil); st != Store(only) {
		t.Fatal("nil upstream did not collapse to local")
	}
}

// Options.Store takes precedence over CacheDir and serves cells without
// execution, exactly like the directory cache — the seam matrixd
// workers and tests plug into.
func TestRunUsesInjectedStore(t *testing.T) {
	var live atomic.Int32
	withStubRunner(t, func(s Spec, o Options) Result {
		live.Add(1)
		return Result{ID: s.ID(), Spec: s, Status: StatusPass, Reps: o.Reps}
	})
	st := newMapStore()
	o := Options{Parallel: 2, Reps: 1, Store: st}
	specs := DefaultMatrix().Enumerate()[:8]

	cold := Run(specs, o)
	if int(live.Load()) != len(specs) || cold.Provenance.Cached != 0 {
		t.Fatalf("cold: %d live, provenance %+v", live.Load(), cold.Provenance)
	}
	if len(st.m) != len(specs) {
		t.Fatalf("store holds %d entries after cold run, want %d", len(st.m), len(specs))
	}

	live.Store(0)
	warm := Run(specs, o)
	if live.Load() != 0 {
		t.Fatalf("warm run executed %d cells through an injected store", live.Load())
	}
	if warm.Provenance.Cached != len(specs) {
		t.Fatalf("warm provenance = %+v", warm.Provenance)
	}

	// Store wins over CacheDir when both are set: one store per run.
	live.Store(0)
	o.CacheDir = t.TempDir()
	Run(specs, o)
	if live.Load() != 0 {
		t.Fatal("CacheDir overrode the injected Store")
	}
}

// RunCell is the single-cell entry matrixd workers execute leases with:
// same defaults, same stamped hash, no shard or store interaction.
func TestRunCellMatchesRun(t *testing.T) {
	withStubRunner(t, richStubRunner)
	specs := DefaultMatrix().Enumerate()[:4]
	o := Options{Reps: 2, BaseSeed: 3}
	whole := Run(specs, o)
	for _, s := range specs {
		res := RunCell(s, o)
		if res.CellHash != CellHash(s, o) {
			t.Fatalf("RunCell(%s) stamped hash %s, want %s", s.ID(), res.CellHash, CellHash(s, o))
		}
		want := whole.Find(s.ID())
		res.WallMS, want.WallMS = 0, 0
		if fmt.Sprintf("%+v", res) != fmt.Sprintf("%+v", *want) {
			t.Fatalf("RunCell(%s) diverges from Run:\n cell: %+v\n run:  %+v", s.ID(), res, *want)
		}
	}
}
