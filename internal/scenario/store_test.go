package scenario

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// mapStore is the minimal in-memory Store. Run's workers call it
// concurrently, so mu guards the map; tests read m directly only while no
// Run is in flight.
type mapStore struct {
	mu sync.Mutex
	m  map[string]Result
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string]Result)} }

func (s *mapStore) Get(hash string) (Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.m[hash]
	return res, ok
}

func (s *mapStore) Put(hash string, res Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[hash] = res
	return nil
}

// The directory cache is the Store archetype; the compiler holds it to
// the interface.
var _ Store = (*Cache)(nil)

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

// richStubRunner produces deterministic, structurally rich results so
// reports can be compared byte-for-byte.
func richStubRunner(s Spec, o Options) Result {
	res := Result{ID: s.ID(), Spec: s, Status: StatusPass, Reps: o.Reps}
	for rep := 0; rep < o.Reps; rep++ {
		res.Seeds = append(res.Seeds, seedFor(o.BaseSeed, s.Program, rep))
	}
	if s.HasRestart() {
		res.Lineage = []Lineage{{Rep: 0, Dir: idPath(s.ID()), Step: 1,
			LaunchStack: string(s.Impl), RestartStack: string(s.RestartImpl)}}
	}
	return res
}
