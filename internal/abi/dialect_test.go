package abi_test

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/mpich"
	"repro/internal/openmpi"
	"repro/internal/ops"
)

// widen is an MPICH handle as the opaque slot holds it.
func widen(h mpich.Handle) abi.Handle { return abi.Handle(uint64(uint32(int32(h)))) }

// dialects pins each vocabulary's fixed handles by symbol, from
// SymInvalid (the answer for any symbol without a value) to
// SymRequestNull, and its integer constants by symbol.
var dialects = []struct {
	d     *abi.Dialect
	fixed []abi.Handle
	ints  []int
}{
	{abi.Std,
		[]abi.Handle{abi.HandleNull, abi.CommWorld, abi.CommSelf, abi.CommNull,
			abi.GroupNull, abi.GroupEmpty, abi.TypeNull, abi.OpNull, abi.RequestNull},
		[]int{abi.AnySource, abi.AnyTag, abi.ProcNull, abi.Root, abi.Undefined, abi.TagUB}},
	{mpich.Dialect,
		[]abi.Handle{widen(mpich.DatatypeNull), widen(mpich.CommWorld), widen(mpich.CommSelf), widen(mpich.CommNull),
			widen(mpich.GroupNull), widen(mpich.GroupEmpty), widen(mpich.DatatypeNull), widen(mpich.OpNull),
			widen(mpich.RequestNull)},
		[]int{mpich.AnySource, mpich.AnyTag, mpich.ProcNull, mpich.Root, mpich.Undefined, mpich.TagUB}},
	// Open MPI's registry slots: the datatype null's slot (6) for an
	// unknown symbol.
	{openmpi.Dialect,
		[]abi.Handle{6, 2, 3, 1, 4, 5, 6, 7, 8},
		[]int{openmpi.AnySource, openmpi.AnyTag, openmpi.ProcNull, openmpi.Root, openmpi.Undefined, openmpi.TagUB}},
}

// Every fixed symbol resolves to the dialect's handle, and a symbol with
// no value (SymInvalid, or one past the last operator) to its fallback.
func TestStdLookupFixedSymbols(t *testing.T) {
	all := ops.Ops()
	pastOps := abi.SymForOp(all[len(all)-1]) + 1
	for _, c := range dialects {
		for s, want := range c.fixed {
			if got := c.d.Lookup(abi.Sym(s)); got != want {
				t.Errorf("%s: Lookup(%d) = %#x, want %#x", c.d.Name, s, uint64(got), uint64(want))
			}
		}
		if got := c.d.Lookup(pastOps); got != c.fixed[abi.SymInvalid] {
			t.Errorf("%s: Lookup(%d) = %#x, want the fallback %#x", c.d.Name, pastOps, uint64(got), uint64(c.fixed[0]))
		}
	}
}

// Every integer symbol resolves to the dialect's value, and an unknown
// one to MPI_UNDEFINED.
func TestStdLookupInt(t *testing.T) {
	for _, c := range dialects {
		for s, want := range c.ints {
			if got := c.d.LookupInt(abi.IntSym(s)); got != want {
				t.Errorf("%s: LookupInt(%d) = %d, want %d", c.d.Name, s, got, want)
			}
		}
		for _, s := range []abi.IntSym{abi.IntTagUB + 1, 250} {
			if got := c.d.LookupInt(s); got != abi.Undefined {
				t.Errorf("%s: LookupInt(%d) = %d, want MPI_UNDEFINED", c.d.Name, s, got)
			}
		}
	}
}
