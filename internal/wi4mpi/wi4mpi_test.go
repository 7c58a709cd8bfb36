package wi4mpi

import (
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/fabric/fabrictest"
	"repro/internal/mpich"
	"repro/internal/mukautuva"
	"repro/internal/ops"
	"repro/internal/types"
)

// runPreload runs fn per rank over the preload translator targeting the
// given implementation.
func runPreload(t *testing.T, target string, n int, fn func(p *Preload, rank int) error) {
	t.Helper()
	w := fabrictest.World(t, n)
	fabrictest.Run(t, w, func(r int) error {
		im, err := mukautuva.Native(target)
		if err != nil {
			return err
		}
		return fn(New(im.Init(w, r), im.Dialect, w.Endpoint(r).Clock()), r)
	})
}

func TestDialectIsMPICH(t *testing.T) {
	runPreload(t, "openmpi", 1, func(p *Preload, rank int) error {
		// The application sees MPICH's constants even though Open MPI runs
		// underneath — that is the preload conceit.
		if p.Lookup(abi.SymCommWorld) != widen(mpich.CommWorld) {
			return fmt.Errorf("CommWorld not MPICH-valued: %v", p.Lookup(abi.SymCommWorld))
		}
		if p.LookupInt(abi.IntAnySource) != mpich.AnySource {
			return fmt.Errorf("AnySource = %d, want MPICH's %d",
				p.LookupInt(abi.IntAnySource), mpich.AnySource)
		}
		if p.ImplName() != "wi4mpi->openmpi" {
			return fmt.Errorf("identity wrong: %q", p.ImplName())
		}
		return nil
	})
}

// An "MPICH-compiled" program (using MPICH constants throughout) must run
// unchanged over Open MPI through the translator.
func TestMPICHProgramOverOpenMPI(t *testing.T) {
	runPreload(t, "openmpi", 4, func(p *Preload, rank int) error {
		world := widen(mpich.CommWorld)
		f64 := widen(mpich.TypeHandle(types.KindFloat64))
		sum := widen(mpich.OpHandle(ops.OpSum))
		n, err := p.CommSize(world)
		if err != nil {
			return err
		}
		me, err := p.CommRank(world)
		if err != nil {
			return err
		}
		// Ring with MPICH wildcards (ANY_SOURCE = -2).
		rb := make([]byte, 8)
		req, err := p.Irecv(rb, 1, f64, mpich.AnySource, mpich.AnyTag, world)
		if err != nil {
			return err
		}
		if err := p.Send(abi.Float64Bytes([]float64{float64(me)}), 1, f64, (me+1)%n, 3, world); err != nil {
			return err
		}
		var st abi.Status
		if err := p.Wait(req, &st); err != nil {
			return err
		}
		left := (me - 1 + n) % n
		if got := abi.Float64sOf(rb)[0]; got != float64(left) {
			return fmt.Errorf("ring got %v, want %d", got, left)
		}
		// Allreduce via MPICH op handle.
		out := make([]byte, 8)
		if err := p.Allreduce(abi.Float64Bytes([]float64{2}), out, 1, f64, sum, world); err != nil {
			return err
		}
		if got := abi.Float64sOf(out)[0]; got != float64(2*n) {
			return fmt.Errorf("allreduce = %v, want %d", got, 2*n)
		}
		// PROC_NULL with MPICH's value (-1), status back in MPICH terms.
		var pn abi.Status
		if err := p.Recv(nil, 0, f64, mpich.ProcNull, 0, world, &pn); err != nil {
			return err
		}
		if pn.Source != mpich.ProcNull {
			return fmt.Errorf("PROC_NULL status source = %d, want MPICH's %d", pn.Source, mpich.ProcNull)
		}
		return nil
	})
}

func TestDynamicObjectsThroughPreload(t *testing.T) {
	runPreload(t, "openmpi", 4, func(p *Preload, rank int) error {
		world := widen(mpich.CommWorld)
		i64 := widen(mpich.TypeHandle(types.KindInt64))
		sum := widen(mpich.OpHandle(ops.OpSum))
		sub, err := p.CommSplit(world, rank%2, rank)
		if err != nil {
			return err
		}
		rb := make([]byte, 8)
		if err := p.Allreduce(abi.Int64Bytes([]int64{int64(rank)}), rb, 1, i64, sum, sub); err != nil {
			return err
		}
		want := int64(0 + 2)
		if rank%2 == 1 {
			want = 1 + 3
		}
		if got := abi.Int64sOf(rb)[0]; got != want {
			return fmt.Errorf("split allreduce = %d, want %d", got, want)
		}
		if err := p.CommFree(sub); err != nil {
			return err
		}
		// MPI_UNDEFINED color: MPICH's value translated to the target's.
		null, err := p.CommSplit(world, mpich.Undefined, 0)
		if err != nil {
			return err
		}
		if null != widen(mpich.CommNull) {
			return fmt.Errorf("undefined split = %v, want MPICH's COMM_NULL", null)
		}
		return nil
	})
}

func TestUnknownTargetRejected(t *testing.T) {
	if _, err := mukautuva.Native("intel-mpi"); err == nil {
		t.Fatal("unknown target accepted")
	}
}
