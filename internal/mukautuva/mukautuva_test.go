package mukautuva

import (
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/fabric/fabrictest"
	"repro/internal/mpich"
	"repro/internal/openmpi"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/types"
)

// runStd runs fn as an SPMD program over the standard ABI on the given
// implementation.
func runStd(t *testing.T, impl string, n int, fn func(s *Shim, rank int) error) {
	t.Helper()
	w := fabrictest.World(t, n)
	fabrictest.Run(t, w, func(r int) error {
		im, err := Native(impl)
		if err != nil {
			return err
		}
		return fn(New(im.Init(w, r), im.Dialect, w.Endpoint(r).Clock()), r)
	})
}

// bothImpls runs the same standard-ABI program over both implementations —
// the "compile once, run everywhere" property under test.
func bothImpls(t *testing.T, n int, fn func(s *Shim, rank int) error) {
	t.Helper()
	for _, impl := range Implementations() {
		t.Run(impl, func(t *testing.T) { runStd(t, impl, n, fn) })
	}
}

func TestRegistryHasAllImplementations(t *testing.T) {
	impls := Implementations()
	if len(impls) != 3 || impls[0] != "mpich" || impls[1] != "openmpi" || impls[2] != "stdabi" {
		t.Fatalf("Implementations() = %v", impls)
	}
}

func TestLoadUnknownImplementation(t *testing.T) {
	if _, err := Native("lam-mpi"); err == nil {
		t.Fatal("loading an unknown implementation succeeded")
	} else if abi.ClassOf(err) != abi.ErrArg {
		t.Fatalf("error class = %v, want ErrArg", abi.ClassOf(err))
	}
}

func TestLookupReturnsStandardConstants(t *testing.T) {
	bothImpls(t, 1, func(s *Shim, rank int) error {
		if s.Lookup(abi.SymCommWorld) != abi.CommWorld {
			return fmt.Errorf("Lookup(CommWorld) = %v, not the standard value", s.Lookup(abi.SymCommWorld))
		}
		if s.LookupInt(abi.IntAnySource) != abi.AnySource {
			return fmt.Errorf("LookupInt(AnySource) = %d", s.LookupInt(abi.IntAnySource))
		}
		if s.Lookup(abi.SymForKind(types.KindFloat64)) != abi.TypeFloat64 {
			return fmt.Errorf("type constant not standard")
		}
		return nil
	})
}

// The heart of the matter: identical application code, standard constants
// only, running over two ABIs that disagree about everything.
func TestSameProgramBothImplementations(t *testing.T) {
	bothImpls(t, 4, func(s *Shim, rank int) error {
		world := s.Lookup(abi.SymCommWorld)
		f64 := s.Lookup(abi.SymForKind(types.KindFloat64))
		sum := s.Lookup(abi.SymForOp(ops.OpSum))
		n, err := s.CommSize(world)
		if err != nil {
			return err
		}
		me, err := s.CommRank(world)
		if err != nil {
			return err
		}
		// Ring p2p with standard wildcards.
		right := (me + 1) % n
		rb := make([]byte, 8)
		req, err := s.Irecv(rb, 1, f64, abi.AnySource, abi.AnyTag, world)
		if err != nil {
			return err
		}
		if err := s.Send(abi.Float64Bytes([]float64{float64(me)}), 1, f64, right, 11, world); err != nil {
			return err
		}
		var st abi.Status
		if err := s.Wait(req, &st); err != nil {
			return err
		}
		left := (me - 1 + n) % n
		if got := abi.Float64sOf(rb)[0]; got != float64(left) {
			return fmt.Errorf("ring got %v, want %d", got, left)
		}
		if st.Source != int32(left) || st.Tag != 11 || st.CountBytes != 8 {
			return fmt.Errorf("status = %+v", st)
		}
		// Allreduce.
		out := make([]byte, 8)
		if err := s.Allreduce(abi.Float64Bytes([]float64{1}), out, 1, f64, sum, world); err != nil {
			return err
		}
		if got := abi.Float64sOf(out)[0]; got != float64(n) {
			return fmt.Errorf("allreduce = %v, want %d", got, n)
		}
		// Send to PROC_NULL via the standard sentinel.
		if err := s.Send(nil, 0, f64, abi.ProcNull, 0, world); err != nil {
			return err
		}
		var pn abi.Status
		if err := s.Recv(nil, 0, f64, abi.ProcNull, 0, world, &pn); err != nil {
			return err
		}
		if pn.Source != int32(abi.ProcNull) {
			return fmt.Errorf("PROC_NULL status source = %d, want standard %d", pn.Source, abi.ProcNull)
		}
		return nil
	})
}

func TestDynamicHandlesAcrossShim(t *testing.T) {
	bothImpls(t, 4, func(s *Shim, rank int) error {
		world := s.Lookup(abi.SymCommWorld)
		i64 := s.Lookup(abi.SymForKind(types.KindInt64))
		sum := s.Lookup(abi.SymForOp(ops.OpSum))
		// Split: returned handle must be a standard-encoded dynamic handle.
		sub, err := s.CommSplit(world, rank%2, rank)
		if err != nil {
			return err
		}
		if sub.HandleClass() != abi.ClassComm || sub.Payload() < abi.PredefinedLimit {
			return fmt.Errorf("split handle %v not a dynamic standard handle", sub)
		}
		rb := make([]byte, 8)
		if err := s.Allreduce(abi.Int64Bytes([]int64{int64(rank)}), rb, 1, i64, sum, sub); err != nil {
			return err
		}
		want := int64(0 + 2)
		if rank%2 == 1 {
			want = 1 + 3
		}
		if got := abi.Int64sOf(rb)[0]; got != want {
			return fmt.Errorf("split allreduce = %d, want %d", got, want)
		}
		if err := s.CommFree(sub); err != nil {
			return err
		}
		// Derived datatype round trip through the shim.
		vec, err := s.TypeVector(2, 1, 2, i64)
		if err != nil {
			return err
		}
		if err := s.TypeCommit(vec); err != nil {
			return err
		}
		sz, err := s.TypeSize(vec)
		if err != nil || sz != 16 {
			return fmt.Errorf("TypeSize = %d err=%v", sz, err)
		}
		ext, err := s.TypeExtent(vec)
		if err != nil || ext != 24 {
			return fmt.Errorf("TypeExtent = %d err=%v", ext, err)
		}
		return s.TypeFree(vec)
	})
}

func TestShimChargesVirtualTime(t *testing.T) {
	w, err := fabric.NewWorld(simnet.SingleNode(1))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := New(mpich.Impl.Init(w, 0), mpich.Dialect, w.Endpoint(0).Clock())
	before := w.Endpoint(0).Clock().Now()
	for i := 0; i < 10; i++ {
		if _, err := s.CommRank(s.Lookup(abi.SymCommWorld)); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := w.Endpoint(0).Clock().Now().Sub(before)
	if elapsed < 10*PerCall {
		t.Fatalf("10 shim calls advanced only %v; per-call overhead not charged", elapsed)
	}
}

// TestErrClassRoundTripAllImpls is the cross-ABI error-class
// translation table, pinned bit-exactly: for every standard error class
// — the two new ULFM MPIX classes included — the class maps to each
// implementation's own native code (standard -> native), and each
// implementation's MPI_Error_class maps that code back to the standard
// class (native -> standard, the direction every translated status and
// return value takes through the shim). The native numbering is pinned
// on purpose: these values ARE the ABI divergence (MPICH says
// proc-failed=71 where Open MPI says 54 and the standard ABI says 17),
// and a silent renumbering would invalidate every cross-implementation
// claim the fault-tolerance cells make.
func TestErrClassRoundTripAllImpls(t *testing.T) {
	classes := []abi.ErrClass{
		abi.ErrSuccess, abi.ErrBuffer, abi.ErrCount, abi.ErrType, abi.ErrTag,
		abi.ErrComm, abi.ErrRank, abi.ErrRequest, abi.ErrRoot, abi.ErrGroup,
		abi.ErrOp, abi.ErrArg, abi.ErrTruncate, abi.ErrUnsupported,
		abi.ErrPending, abi.ErrIntern, abi.ErrOther,
		abi.ErrProcFailed, abi.ErrRevoked,
	}
	// Pinned native codes per implementation, in `classes` order. -1
	// marks a class the implementation's table cannot express: it
	// collapses to the impl's ErrOther on the way down and therefore
	// does not round-trip (exactly what a real errhandler sees).
	native := map[string][]int{
		"mpich":   {0, 1, 2, 3, 4, 5, 6, 19, 7, 8, 9, 12, 14, -1, 18, 16, 15, 71, 72},
		"openmpi": {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 15, -1, -1, 17, 16, 54, 56},
		"stdabi":  {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18},
	}
	otherCode := map[string]int{"mpich": 15, "openmpi": 16, "stdabi": 16}

	for _, impl := range []string{"mpich", "openmpi", "stdabi"} {
		im, err := Native(impl)
		if err != nil {
			t.Fatal(err)
		}
		for i, class := range classes {
			want := native[impl][i]
			got := im.Dialect.Codes.CodeOf(class)
			if want == -1 {
				// Inexpressible class: collapses to the native ErrOther.
				if got != otherCode[impl] {
					t.Errorf("%s: CodeOf(%v) = %d, want native ErrOther %d",
						impl, class, got, otherCode[impl])
				}
				continue
			}
			if got != want {
				t.Errorf("%s: CodeOf(%v) = %d, want %d (pinned native code)",
					impl, class, got, want)
			}
			// The shim's upward direction: native code -> standard class,
			// through the same table's MPI_Error_class direction.
			if back := im.Dialect.Codes.ClassOf(want); back != class {
				t.Errorf("%s: ErrClass(%d) = %v, want %v (impl->standard->impl must be exact)",
					impl, want, back, class)
			}
		}
	}

	// The MPIX numbering must actually diverge across the native tables —
	// if two implementations ever agreed, the cell would no longer test a
	// translation.
	if mpich.ErrProcFailed == openmpi.ErrProcFailed ||
		mpich.ErrProcFailed == abi.Std.Codes.ErrProcFailed ||
		openmpi.ErrProcFailed == abi.Std.Codes.ErrProcFailed {
		t.Error("proc-failed codes coincide across implementations; the translation cells test nothing")
	}
	if mpich.ErrRevoked == openmpi.ErrRevoked ||
		mpich.ErrRevoked == abi.Std.Codes.ErrRevoked ||
		openmpi.ErrRevoked == abi.Std.Codes.ErrRevoked {
		t.Error("revoked codes coincide across implementations; the translation cells test nothing")
	}
}
