package wavempi

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/abi"
	"repro/internal/simnet"
)

// stubWorld binds one rank of a size-rank world whose point-to-point
// calls complete at once and move nothing: enough for Setup, and for the
// local work of a Step that is not the last. Any other call panics on the
// nil embedded table.
type stubWorld struct {
	abi.FuncTable
	rank, size int
}

func (w stubWorld) Lookup(abi.Sym) abi.Handle        { return 0 }
func (w stubWorld) LookupInt(abi.IntSym) int         { return -1 }
func (w stubWorld) CommSize(abi.Handle) (int, error) { return w.size, nil }
func (w stubWorld) CommRank(abi.Handle) (int, error) { return w.rank, nil }
func (w stubWorld) Send([]byte, int, abi.Handle, int, int, abi.Handle) error {
	return nil
}
func (w stubWorld) Irecv([]byte, int, abi.Handle, int, int, abi.Handle) (abi.Handle, error) {
	return 0, nil
}
func (w stubWorld) Waitall([]abi.Handle, []abi.Status) error { return nil }

func stubEnv(rank, size int) *abi.Env {
	env, err := abi.NewEnv(stubWorld{rank: rank, size: size}, new(simnet.Clock))
	if err != nil {
		panic(err) // the stub answers CommSize and CommRank without fail
	}
	return env
}

// setupMatchesSin runs Setup for one rank of a grid and requires both time
// levels to hold, bit for bit, sin(2πx) at each of the rank's points.
func setupMatchesSin(points, size, rank int) error {
	w := &Wave{GlobalPoints: points}
	if err := w.Setup(stubEnv(rank, size)); err != nil {
		return err
	}
	lo, hi := split(points, size, rank)
	if len(w.U) != hi-lo || len(w.UPrev) != hi-lo {
		return fmt.Errorf("%d points, rank %d of %d: %d current and %d previous points, want %d",
			points, rank, size, len(w.U), len(w.UPrev), hi-lo)
	}
	dx := 1.0 / float64(points-1)
	for i := range w.U {
		x := float64(lo+i) * dx
		want := math.Float64bits(math.Sin(2 * math.Pi * x))
		if math.Float64bits(w.U[i]) != want || math.Float64bits(w.UPrev[i]) != want {
			return fmt.Errorf("%d points, rank %d of %d: point %d is %v and %v, want %v",
				points, rank, size, lo+i, w.U[i], w.UPrev[i], math.Float64frombits(want))
		}
	}
	if &w.U[0] == &w.UPrev[0] {
		return fmt.Errorf("%d points, rank %d of %d: the time levels share storage", points, rank, size)
	}
	return nil
}

// The standing-wave table Setup copies from holds the bits the direct
// formula gives, whichever grid it was last built for: grids alternate
// here, so the one-entry table is rebuilt between Setups.
func TestWaveSetupMatchesSin(t *testing.T) {
	for _, c := range []struct{ points, size, rank int }{
		{256, 2, 0}, {1000, 3, 2}, {256, 2, 1}, {1000, 3, 0}, {1000, 3, 1},
		{83886, 8, 0}, {256, 8, 7}, {83886, 8, 5}, {83886, 1, 0}, {2, 1, 0},
	} {
		if err := setupMatchesSin(c.points, c.size, c.rank); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("concurrent", func(t *testing.T) {
		// Two launches on different grids set up at once: each Setup may
		// replace the table the other is copying from.
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g, points := range []int{4096, 5000} {
			wg.Add(1)
			go func(g, points int) {
				defer wg.Done()
				for i := 0; i < 20 && errs[g] == nil; i++ {
					errs[g] = setupMatchesSin(points+i%2*(g+1), 4, i%4)
				}
			}(g, points)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}

// A Step that is not the last allocates nothing of its own: its halo
// buffers and requests live in the program's step buffers. (The stack
// below a real world allocates per message; TestWaveStepAllocatesNoSlab
// bounds the whole.)
func TestWaveStepAllocatesNothing(t *testing.T) {
	env := stubEnv(3, 8)
	w := &Wave{GlobalPoints: 4096, Steps: math.MaxInt, C: 1, Dt: 0.00005}
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	var err error
	if allocs := testing.AllocsPerRun(20, func() { _, err = w.Step(env) }); allocs != 0 || err != nil {
		t.Fatalf("a step allocated %v times (err %v), want none", allocs, err)
	}
}

// BenchmarkWaveSetup times one rank's Setup at the quick matrix's grid
// (83,886 points over 8 ranks), with the grid's table already built.
func BenchmarkWaveSetup(b *testing.B) {
	env := stubEnv(3, 8)
	w := &Wave{GlobalPoints: 83886}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Setup(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaveStep times one Step of a middle rank at the quick
// matrix's grid and time step (scale 0.08: 83,886 points), its halo
// exchange answered by a world that moves nothing: the stencil and the
// step's own overhead.
func BenchmarkWaveStep(b *testing.B) {
	env := stubEnv(3, 8)
	w := New()
	w.ScaleSteps(0.08)
	w.Steps = math.MaxInt
	if err := w.Setup(env); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Step(env); err != nil {
			b.Fatal(err)
		}
	}
}
