package core

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/mana"
	"repro/internal/simnet"
	"repro/internal/types"
)

// buildTableStacks are the three stack shapes BenchmarkBuildTable and
// TestBuildTableAllocs measure: the native binding alone, and a
// translator under MANA, presenting the standard ABI (Mukautuva) and
// MPICH's (Wi4MPI).
var buildTableStacks = []struct {
	name  string
	stack Stack
}{
	{"mpich+native", Stack{Impl: ImplMPICH, ABI: ABINative, Ckpt: CkptNone}},
	{"mpich+mukautuva+mana", Stack{Impl: ImplMPICH, ABI: ABIMukautuva, Ckpt: CkptMANA, Kernel: mana.KernelPre5_9}},
	{"openmpi+wi4mpi+mana", Stack{Impl: ImplOpenMPI, ABI: ABIWi4MPI, Ckpt: CkptMANA, Kernel: mana.KernelPre5_9}},
}

func buildTableWorld(tb testing.TB) *fabric.World {
	tb.Helper()
	w, err := fabric.NewWorld(simnet.SingleNode(2))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(w.Close)
	return w
}

// BenchmarkBuildTable times one rank's binding stack as a launch builds
// it; run with -benchmem for its bytes and allocations.
func BenchmarkBuildTable(b *testing.B) {
	for _, tc := range buildTableStacks {
		b.Run(tc.name, func(b *testing.B) {
			w := buildTableWorld(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := buildTable(tc.stack, w, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildTableAllocs bounds one rank's binding stack: what every rank
// of an implementation shares (predefined objects, handle tables,
// policy, a translator's predefined rows) is built once per process, so
// a rank allocates only its own state. The bounds hold the bytes and
// allocations of BenchmarkBuildTable with some room; before the shared
// tables a native MPICH rank took 5,960 B in 76 allocations, and a
// translator under MANA 12,736 B.
func TestBuildTableAllocs(t *testing.T) {
	bounds := map[string]struct{ bytes, allocs float64 }{
		"mpich+native":         {3000, 30},
		"mpich+mukautuva+mana": {6000, 60},
		"openmpi+wi4mpi+mana":  {6000, 60},
	}
	for _, tc := range buildTableStacks {
		t.Run(tc.name, func(t *testing.T) {
			w := buildTableWorld(t)
			build := func() {
				if _, _, _, err := buildTable(tc.stack, w, 1); err != nil {
					t.Fatal(err)
				}
			}
			build() // the first build of a stack makes the shared tables
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				build()
			}
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
			allocs := testing.AllocsPerRun(runs, build)
			if b := bounds[tc.name]; bytes > b.bytes || allocs > b.allocs {
				t.Errorf("one rank's stack: %.0f B in %.0f allocations, want at most %.0f B in %.0f",
					bytes, allocs, b.bytes, b.allocs)
			}
		})
	}
}

// TestBuildTableConcurrent: the ranks of two worlds build their stacks
// and resolve predefined handles at once, as the benchmark's two matrix
// workers do. The tables they share are only read after the first build;
// go test -race is the check.
func TestBuildTableConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		w := buildTableWorld(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tc := range buildTableStacks {
				for r := 0; r < w.Size(); r++ {
					table, _, _, err := buildTable(tc.stack, w, r)
					if err != nil {
						t.Error(err)
						return
					}
					size, err := table.TypeSize(table.Lookup(abi.SymForKind(types.KindInt32)))
					if err != nil || size != 4 {
						t.Errorf("%s rank %d: MPI_INT32 size = %d, %v", tc.name, r, size, err)
					}
					if n, err := table.CommSize(table.Lookup(abi.SymCommWorld)); err != nil || n != w.Size() {
						t.Errorf("%s rank %d: world size = %d, %v", tc.name, r, n, err)
					}
				}
			}
		}()
	}
	wg.Wait()
}
