package abi_test

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/mpich"
	"repro/internal/mpicore"
	"repro/internal/openmpi"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/stdabi"
	"repro/internal/types"
)

// TestTranslatorInMapsPredefinedHandles: over every implementation and
// presenting every dialect, In maps each predefined handle to the one
// below with the same symbol, and any other handle to the inner null of
// its class. The predefined rows are a hash table with one slot per
// handle, so the second half probes many handles that are not in it.
func TestTranslatorInMapsPredefinedHandles(t *testing.T) {
	syms := []abi.Sym{}
	for s := abi.SymCommWorld; s <= abi.SymRequestNull; s++ {
		syms = append(syms, s)
	}
	for _, k := range types.Kinds() {
		syms = append(syms, abi.SymForKind(k))
	}
	for _, op := range ops.Ops() {
		syms = append(syms, abi.SymForOp(op))
	}
	w, err := fabric.NewWorld(simnet.SingleNode(1))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, im := range []*mpicore.Impl{mpich.Impl, openmpi.Impl, stdabi.Impl} {
		below := im.Dialect
		for _, d := range []*abi.Dialect{abi.Std, mpich.Dialect, openmpi.Dialect} {
			tr := abi.NewTranslator(im.Init(w, 0), below, d, "test", nil, w.Endpoint(0).Clock(), 0)
			predefined := map[abi.Handle]bool{}
			for _, s := range syms {
				h := d.Lookup(s)
				predefined[h] = true
				if got, want := tr.In(h), below.Lookup(s); got != want {
					t.Errorf("%s over %s: In(%#x) = %#x, want %#x (symbol %d)", d.Name, below.Name, uint64(h), uint64(got), uint64(want), s)
				}
			}
			lo := abi.ConstsOf(below)
			x := uint64(1)
			for i := 0; i < 4096; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				h := abi.Handle(x >> (i % 64))
				if predefined[h] {
					continue
				}
				c := d.ClassOf(h)
				if c > abi.ClassRequest {
					c = abi.ClassNone
				}
				if got := tr.In(h); got != lo.Null[c] {
					t.Fatalf("%s over %s: In(%#x), not predefined, = %#x, want the inner null %#x", d.Name, below.Name, uint64(h), uint64(got), uint64(lo.Null[c]))
				}
			}
		}
	}
}
