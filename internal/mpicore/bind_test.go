package mpicore_test

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/abi"
	"repro/internal/fabric/fabrictest"
	"repro/internal/mpicore"
	"repro/internal/ops"
	"repro/internal/types"
)

// TestWarmCollectivesAllocateNothingThroughBinding is
// TestWarmCollectivesAllocateNothing one layer up: through each
// implementation's native FuncTable, a warmed iteration of allreduce,
// bcast (rotating root, see the runtime-level test), alltoall and
// barrier, plus the local calls local_call_ns times (CommRank, CommSize,
// TypeSize), allocates nothing on any of the 8 ranks. Handle resolution
// and code wrapping are the binding's whole per-call work; neither may
// cost an allocation on the success path.
func TestWarmCollectivesAllocateNothingThroughBinding(t *testing.T) {
	if mpicore.RaceBuild {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, warm, runs = 8, 4 * 8, 2 * 8
	for _, impl := range nativeImpls {
		for _, size := range []int{64, 16 << 10} {
			t.Run(fmt.Sprintf("%s/%dB", impl.name, size), func(t *testing.T) {
				w := fabrictest.World(t, n)
				var allocs float64
				fabrictest.Run(t, w, func(r int) error {
					b := impl.bind(w, r)
					world := b.Lookup(abi.SymCommWorld)
					bt := b.Lookup(abi.SymForKind(types.KindByte))
					sum := b.Lookup(abi.SymForOp(ops.OpSum))
					send, recv := make([]byte, n*size), make([]byte, n*size)
					var first error
					keep := func(err error) {
						if err != nil && first == nil {
							first = err
						}
					}
					root := 0
					iter := func() {
						keep(b.Allreduce(send, recv, size, bt, sum, world))
						keep(b.Bcast(recv, size, bt, root, world))
						keep(b.Alltoall(send, size, bt, recv, size, bt, world))
						keep(b.Barrier(world))
						_, err := b.CommRank(world)
						keep(err)
						_, err = b.CommSize(world)
						keep(err)
						_, err = b.TypeSize(bt)
						keep(err)
						root = (root + 1) % n
					}
					for i := 0; i < warm-1; i++ { // AllocsPerRun's warm-up call is the last
						iter()
					}
					if r != 0 {
						for i := 0; i < runs+1; i++ {
							iter()
						}
					} else {
						allocs = testing.AllocsPerRun(runs, iter)
					}
					return first
				})
				if allocs != 0 {
					t.Fatalf("%v allocations per warmed iteration across %d ranks, want 0", allocs, n)
				}
			})
		}
	}
}
