package abi_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/abi/abitest"
	"repro/internal/fabric"
	"repro/internal/mana"
	"repro/internal/mpicore"
	"repro/internal/mukautuva"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/wi4mpi"
)

// The conformance suite for abi.Translator, run through every stack that
// embeds it — Mukautuva, Wi4MPI, MANA over a native binding, MANA over
// Mukautuva — on every implementation. A skewed spy table sits directly
// under the layer under test, so what the layer hands down is observed
// rather than inferred (package abitest).

// Per-call charges far above any network time on a one-node world, so a
// clock delta decodes into call counts: delta/outerUnit calls charged by
// MANA over the shim, (delta%outerUnit)/innerUnit by the layer below it
// (or by the only layer, on single-translator stacks).
const (
	innerUnit = time.Second
	outerUnit = 1000 * time.Second
)

var impls = []string{"mpich", "openmpi", "stdabi"}

func init() {
	if err := ops.RegisterUser("abi.conformance.sum", true,
		func(acc, in []byte, k types.Kind, count int) { _ = ops.Apply(ops.OpSum, k, acc, in, count) }); err != nil {
		panic(err)
	}
}

// stack is one way of putting a Translator on top of an implementation.
type stack struct {
	name    string
	mana    bool // the top layer is MANA (its p2p, creation and refusal overrides apply)
	mpich   bool // the upper dialect is MPICH's, not the standard ABI's
	overMuk bool // a charging shim sits under the top layer
	build   func(impl string, w *fabric.World, rank int) (abi.FuncTable, *abitest.Spy, error)
}

func manaConfig(unit time.Duration, errClass func(int) abi.ErrClass) mana.Config {
	return mana.Config{
		Kernel:   mana.Kernel5_9Plus,
		VidCost:  unit - mana.Kernel5_9Plus.CallCost(),
		ErrClass: errClass,
	}
}

var stacks = []stack{
	{name: "mukautuva",
		build: func(impl string, w *fabric.World, rank int) (abi.FuncTable, *abitest.Spy, error) {
			im, sp, err := spied(impl, w, rank)
			if err != nil {
				return nil, nil, err
			}
			return mukautuva.New(sp, im.ClassOfCode, w.Endpoint(rank).Clock(), mukautuva.Config{PerCall: innerUnit}), sp, nil
		}},
	{name: "wi4mpi", mpich: true,
		build: func(impl string, w *fabric.World, rank int) (abi.FuncTable, *abitest.Spy, error) {
			im, sp, err := spied(impl, w, rank)
			if err != nil {
				return nil, nil, err
			}
			return wi4mpi.New(sp, im.ClassOfCode, w.Endpoint(rank).Clock(), wi4mpi.Config{PerCall: innerUnit}), sp, nil
		}},
	{name: "mana/native", mana: true,
		build: func(impl string, w *fabric.World, rank int) (abi.FuncTable, *abitest.Spy, error) {
			im, sp, err := spied(impl, w, rank)
			if err != nil {
				return nil, nil, err
			}
			return mana.NewWrapper(sp, w, rank, manaConfig(innerUnit, im.ClassOfCode)), sp, nil
		}},
	{name: "mana/mukautuva", mana: true, overMuk: true,
		build: func(impl string, w *fabric.World, rank int) (abi.FuncTable, *abitest.Spy, error) {
			s, err := mukautuva.Load(impl, w, rank, mukautuva.Config{PerCall: innerUnit})
			if err != nil {
				return nil, nil, err
			}
			sp := abitest.New(s, w.Endpoint(rank).Clock())
			return mana.NewWrapper(sp, w, rank, manaConfig(outerUnit, nil)), sp, nil
		}},
}

// spied initializes impl on one rank under a Spy.
func spied(impl string, w *fabric.World, rank int) (*mpicore.Impl, *abitest.Spy, error) {
	im, err := mukautuva.Native(impl)
	if err != nil {
		return nil, nil, err
	}
	return im, abitest.New(im.Init(w, rank), w.Endpoint(rank).Clock()), nil
}

// forEachStack runs fn on rank 0 of a fresh n-rank world for every stack
// on every implementation. Ranks are driven by hand from the test
// goroutine; the other ranks' tables are built (MANA's constructor asks
// the lower half for the world size) but never run.
func forEachStack(t *testing.T, n int, fn func(t *testing.T, e *env)) {
	for _, st := range stacks {
		for _, impl := range impls {
			st, impl := st, impl
			t.Run(st.name+"/"+impl, func(t *testing.T) {
				w, err := fabric.NewWorld(simnet.SingleNode(n))
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				var e *env
				for r := n - 1; r >= 0; r-- {
					table, sp, err := st.build(impl, w, r)
					if err != nil {
						t.Fatal(err)
					}
					if r == 0 {
						e = newEnv(st, table, sp, w)
					}
				}
				fn(t, e)
			})
		}
	}
}

// env is rank 0's view: the table under test, its constants and clock.
type env struct {
	st    stack
	t     abi.FuncTable
	spy   *abitest.Spy
	w     *fabric.World
	clock *simnet.Clock

	world, i64, bt, sum  abi.Handle
	anySource, undefined int

	delta time.Duration // clock movement of the last measured call
}

func newEnv(st stack, t abi.FuncTable, sp *abitest.Spy, w *fabric.World) *env {
	return &env{
		st: st, t: t, spy: sp, w: w, clock: w.Endpoint(0).Clock(),
		world:     t.Lookup(abi.SymCommWorld),
		i64:       t.Lookup(abi.SymForKind(types.KindInt64)),
		bt:        t.Lookup(abi.SymForKind(types.KindByte)),
		sum:       t.Lookup(abi.SymForOp(ops.OpSum)),
		anySource: t.LookupInt(abi.IntAnySource),
		undefined: t.LookupInt(abi.IntUndefined),
	}
}

// measured runs the one call a charge case is about.
func (e *env) measured(call func() error) error {
	before := e.clock.Now()
	err := call()
	e.delta = e.clock.Now().Sub(before)
	return err
}

// selfIrecv and selfIsend post one int64 to/from rank 0 itself.
func (e *env) selfIrecv(buf []byte) (abi.Handle, error) {
	return e.t.Irecv(buf, 1, e.i64, 0, 5, e.world)
}

func (e *env) selfIsend() (abi.Handle, error) {
	return e.t.Isend(make([]byte, 8), 1, e.i64, 0, 5, e.world)
}

// chargeCase performs one FuncTable call inside e.measured, with whatever
// setup and cleanup it needs outside. want is the golden count of
// per-call charges, recorded at the commit before the translators were
// unified: by a plain translator (Mukautuva or Wi4MPI), by MANA itself,
// and by the shim underneath one MANA call.
type chargeCase struct {
	name string
	want [3]int
	run  func(e *env) error
}

var chargeCases = []chargeCase{
	{"ImplName", [3]int{0, 0, 0}, func(e *env) error {
		return e.measured(func() error { e.t.ImplName(); return nil })
	}},
	{"Lookup", [3]int{0, 0, 0}, func(e *env) error {
		return e.measured(func() error { e.t.Lookup(abi.SymCommSelf); return nil })
	}},
	{"LookupInt", [3]int{0, 0, 0}, func(e *env) error {
		return e.measured(func() error { e.t.LookupInt(abi.IntTagUB); return nil })
	}},
	{"Send", [3]int{1, 1, 1}, func(e *env) error {
		r, err := e.selfIrecv(make([]byte, 8))
		if err != nil {
			return err
		}
		if err := e.measured(func() error { return e.t.Send(make([]byte, 8), 1, e.i64, 0, 5, e.world) }); err != nil {
			return err
		}
		return e.t.Wait(r, nil)
	}},
	{"Recv", [3]int{1, 1, 1}, func(e *env) error {
		r, err := e.selfIsend()
		if err != nil {
			return err
		}
		if err := e.measured(func() error { return e.t.Recv(make([]byte, 8), 1, e.i64, 0, 5, e.world, nil) }); err != nil {
			return err
		}
		return e.t.Wait(r, nil)
	}},
	{"Isend", [3]int{1, 1, 1}, func(e *env) error {
		var r abi.Handle
		if err := e.measured(func() (err error) { r, err = e.selfIsend(); return }); err != nil {
			return err
		}
		if err := e.t.Recv(make([]byte, 8), 1, e.i64, 0, 5, e.world, nil); err != nil {
			return err
		}
		return e.t.Wait(r, nil)
	}},
	{"Irecv", [3]int{1, 1, 1}, func(e *env) error {
		var r abi.Handle
		if err := e.measured(func() (err error) { r, err = e.selfIrecv(make([]byte, 8)); return }); err != nil {
			return err
		}
		if err := e.t.Send(make([]byte, 8), 1, e.i64, 0, 5, e.world); err != nil {
			return err
		}
		return e.t.Wait(r, nil)
	}},
	{"Wait", [3]int{1, 1, 1}, func(e *env) error {
		r, err := e.selfIrecv(make([]byte, 8))
		if err != nil {
			return err
		}
		if err := e.t.Send(make([]byte, 8), 1, e.i64, 0, 5, e.world); err != nil {
			return err
		}
		return e.measured(func() error { return e.t.Wait(r, nil) })
	}},
	{"Test", [3]int{1, 1, 1}, func(e *env) error {
		r, err := e.selfIrecv(make([]byte, 8))
		if err != nil {
			return err
		}
		if err := e.t.Send(make([]byte, 8), 1, e.i64, 0, 5, e.world); err != nil {
			return err
		}
		var done bool
		if err := e.measured(func() (err error) { done, err = e.t.Test(r, nil); return }); err != nil {
			return err
		}
		if !done {
			return e.t.Wait(r, nil)
		}
		return nil
	}},
	// MANA's Waitall is its Wait per request: two charges for two requests.
	{"Waitall", [3]int{1, 2, 2}, func(e *env) error {
		rr, err := e.selfIrecv(make([]byte, 8))
		if err != nil {
			return err
		}
		sr, err := e.selfIsend()
		if err != nil {
			return err
		}
		return e.measured(func() error { return e.t.Waitall([]abi.Handle{rr, sr}, make([]abi.Status, 2)) })
	}},
	// MANA's Sendrecv is its Irecv + Send + Wait.
	{"Sendrecv", [3]int{1, 3, 3}, func(e *env) error {
		return e.measured(func() error {
			return e.t.Sendrecv(make([]byte, 8), 1, e.i64, 0, 5, make([]byte, 8), 1, e.i64, 0, 5, e.world, nil)
		})
	}},
	{"Probe", [3]int{1, 1, 1}, func(e *env) error {
		r, err := e.selfIsend()
		if err != nil {
			return err
		}
		if err := e.measured(func() error { return e.t.Probe(0, 5, e.world, nil) }); err != nil {
			return err
		}
		if err := e.t.Recv(make([]byte, 8), 1, e.i64, 0, 5, e.world, nil); err != nil {
			return err
		}
		return e.t.Wait(r, nil)
	}},
	{"Iprobe", [3]int{1, 1, 1}, func(e *env) error {
		return e.measured(func() error { _, err := e.t.Iprobe(0, 5, e.world, nil); return err })
	}},
	{"Barrier", [3]int{1, 1, 1}, func(e *env) error {
		return e.measured(func() error { return e.t.Barrier(e.world) })
	}},
	{"Bcast", [3]int{1, 1, 1}, func(e *env) error {
		return e.measured(func() error { return e.t.Bcast(make([]byte, 8), 1, e.i64, 0, e.world) })
	}},
	{"Reduce", [3]int{1, 1, 1}, func(e *env) error {
		return e.measured(func() error {
			return e.t.Reduce(make([]byte, 8), make([]byte, 8), 1, e.i64, e.sum, 0, e.world)
		})
	}},
	{"Allreduce", [3]int{1, 1, 1}, func(e *env) error {
		return e.measured(func() error {
			return e.t.Allreduce(make([]byte, 8), make([]byte, 8), 1, e.i64, e.sum, e.world)
		})
	}},
	{"Gather", [3]int{1, 1, 1}, func(e *env) error {
		return e.measured(func() error {
			return e.t.Gather(make([]byte, 8), 1, e.i64, make([]byte, 8), 1, e.i64, 0, e.world)
		})
	}},
	{"Allgather", [3]int{1, 1, 1}, func(e *env) error {
		return e.measured(func() error {
			return e.t.Allgather(make([]byte, 8), 1, e.i64, make([]byte, 8), 1, e.i64, e.world)
		})
	}},
	{"Scatter", [3]int{1, 1, 1}, func(e *env) error {
		return e.measured(func() error {
			return e.t.Scatter(make([]byte, 8), 1, e.i64, make([]byte, 8), 1, e.i64, 0, e.world)
		})
	}},
	{"Alltoall", [3]int{1, 1, 1}, func(e *env) error {
		return e.measured(func() error {
			return e.t.Alltoall(make([]byte, 8), 1, e.i64, make([]byte, 8), 1, e.i64, e.world)
		})
	}},
	{"CommSize", [3]int{1, 1, 1}, func(e *env) error {
		return e.measured(func() error { _, err := e.t.CommSize(e.world); return err })
	}},
	{"CommRank", [3]int{1, 1, 1}, func(e *env) error {
		return e.measured(func() error { _, err := e.t.CommRank(e.world); return err })
	}},
	// MANA asks the lower half for the new communicator's rank and size:
	// three shim calls under one wrapper call.
	{"CommDup", [3]int{1, 1, 3}, func(e *env) error {
		var c abi.Handle
		if err := e.measured(func() (err error) { c, err = e.t.CommDup(e.world); return }); err != nil {
			return err
		}
		return e.t.CommFree(c)
	}},
	{"CommSplit", [3]int{1, 1, 3}, func(e *env) error {
		var c abi.Handle
		if err := e.measured(func() (err error) { c, err = e.t.CommSplit(e.world, 0, 0); return }); err != nil {
			return err
		}
		return e.t.CommFree(c)
	}},
	{"CommCreate", [3]int{1, 1, 3}, func(e *env) error {
		g, err := e.t.CommGroup(e.world)
		if err != nil {
			return err
		}
		var c abi.Handle
		if err := e.measured(func() (err error) { c, err = e.t.CommCreate(e.world, g); return }); err != nil {
			return err
		}
		if err := e.t.GroupFree(g); err != nil {
			return err
		}
		return e.t.CommFree(c)
	}},
	{"CommGroup", [3]int{1, 1, 1}, func(e *env) error {
		var g abi.Handle
		if err := e.measured(func() (err error) { g, err = e.t.CommGroup(e.world); return }); err != nil {
			return err
		}
		return e.t.GroupFree(g)
	}},
	{"CommFree", [3]int{1, 1, 1}, func(e *env) error {
		c, err := e.t.CommDup(e.world)
		if err != nil {
			return err
		}
		return e.measured(func() error { return e.t.CommFree(c) })
	}},
	{"GroupSize", [3]int{1, 1, 1}, func(e *env) error {
		return e.withGroup(func(g abi.Handle) error { _, err := e.t.GroupSize(g); return err })
	}},
	{"GroupRank", [3]int{1, 1, 1}, func(e *env) error {
		return e.withGroup(func(g abi.Handle) error { _, err := e.t.GroupRank(g); return err })
	}},
	{"GroupIncl", [3]int{1, 1, 1}, func(e *env) error {
		var sub abi.Handle
		if err := e.withGroup(func(g abi.Handle) (err error) { sub, err = e.t.GroupIncl(g, []int{0}); return }); err != nil {
			return err
		}
		return e.t.GroupFree(sub)
	}},
	{"GroupExcl", [3]int{1, 1, 1}, func(e *env) error {
		var sub abi.Handle
		if err := e.withGroup(func(g abi.Handle) (err error) { sub, err = e.t.GroupExcl(g, []int{0}); return }); err != nil {
			return err
		}
		return e.t.GroupFree(sub)
	}},
	{"GroupTranslateRanks", [3]int{1, 1, 1}, func(e *env) error {
		return e.withGroup(func(g abi.Handle) error { _, err := e.t.GroupTranslateRanks(g, []int{0}, g); return err })
	}},
	{"GroupFree", [3]int{1, 1, 1}, func(e *env) error {
		g, err := e.t.CommGroup(e.world)
		if err != nil {
			return err
		}
		return e.measured(func() error { return e.t.GroupFree(g) })
	}},
	{"TypeContiguous", [3]int{1, 1, 1}, func(e *env) error {
		return e.newType(func() (abi.Handle, error) { return e.t.TypeContiguous(2, e.i64) })
	}},
	{"TypeVector", [3]int{1, 1, 1}, func(e *env) error {
		return e.newType(func() (abi.Handle, error) { return e.t.TypeVector(2, 1, 2, e.i64) })
	}},
	{"TypeIndexed", [3]int{1, 1, 1}, func(e *env) error {
		return e.newType(func() (abi.Handle, error) { return e.t.TypeIndexed([]int{1, 1}, []int{0, 2}, e.i64) })
	}},
	{"TypeCreateStruct", [3]int{1, 1, 1}, func(e *env) error {
		return e.newType(func() (abi.Handle, error) {
			return e.t.TypeCreateStruct([]int{1, 1}, []int{0, 8}, []abi.Handle{e.i64, e.bt})
		})
	}},
	{"TypeCommit", [3]int{1, 1, 1}, func(e *env) error {
		return e.withType(func(ty abi.Handle) error { return e.t.TypeCommit(ty) })
	}},
	{"TypeFree", [3]int{1, 1, 1}, func(e *env) error {
		ty, err := e.t.TypeContiguous(2, e.i64)
		if err != nil {
			return err
		}
		return e.measured(func() error { return e.t.TypeFree(ty) })
	}},
	{"TypeSize", [3]int{1, 1, 1}, func(e *env) error {
		return e.measured(func() error { _, err := e.t.TypeSize(e.i64); return err })
	}},
	{"TypeExtent", [3]int{1, 1, 1}, func(e *env) error {
		return e.measured(func() error { _, err := e.t.TypeExtent(e.i64); return err })
	}},
	{"GetCount", [3]int{1, 1, 1}, func(e *env) error {
		return e.measured(func() error { _, err := e.t.GetCount(&abi.Status{CountBytes: 16}, e.i64); return err })
	}},
	{"OpCreate", [3]int{1, 1, 1}, func(e *env) error {
		var op abi.Handle
		if err := e.measured(func() (err error) { op, err = e.t.OpCreate("abi.conformance.sum", true); return }); err != nil {
			return err
		}
		return e.t.OpFree(op)
	}},
	{"OpFree", [3]int{1, 1, 1}, func(e *env) error {
		op, err := e.t.OpCreate("abi.conformance.sum", true)
		if err != nil {
			return err
		}
		return e.measured(func() error { return e.t.OpFree(op) })
	}},
	{"CommRevoke", [3]int{1, 1, 1}, func(e *env) error {
		c, err := e.t.CommDup(e.world)
		if err != nil {
			return err
		}
		return e.measured(func() error { return e.t.CommRevoke(c) })
	}},
	// MANA refuses the two handle-creating MPIX calls before charging.
	{"CommShrink", [3]int{1, 0, 0}, func(e *env) error {
		var c abi.Handle
		err := e.measured(func() (err error) { c, err = e.t.CommShrink(e.world); return })
		if e.st.mana {
			return wantRefusal(err)
		}
		if err != nil {
			return err
		}
		return e.t.CommFree(c)
	}},
	{"CommAgree", [3]int{1, 1, 1}, func(e *env) error {
		return e.measured(func() error { _, err := e.t.CommAgree(e.world, 1); return err })
	}},
	{"CommFailureAck", [3]int{1, 1, 1}, func(e *env) error {
		return e.measured(func() error { return e.t.CommFailureAck(e.world) })
	}},
	{"CommFailureGetAcked", [3]int{1, 0, 0}, func(e *env) error {
		var g abi.Handle
		err := e.measured(func() (err error) { g, err = e.t.CommFailureGetAcked(e.world); return })
		if e.st.mana {
			return wantRefusal(err)
		}
		if err != nil {
			return err
		}
		return e.t.GroupFree(g)
	}},
	// Abort is never charged. It tears the world down, so it runs last.
	{"Abort", [3]int{0, 0, 0}, func(e *env) error {
		return e.measured(func() error { _ = e.t.Abort(e.world, 1); return nil })
	}},
}

// wantRefusal checks MANA's answer to a call it cannot replay.
func wantRefusal(err error) error {
	if abi.ClassOf(err) != abi.ErrUnsupported {
		return fmt.Errorf("%v, want MANA's ErrUnsupported refusal", err)
	}
	return nil
}

// withGroup measures call on the world group.
func (e *env) withGroup(call func(g abi.Handle) error) error {
	g, err := e.t.CommGroup(e.world)
	if err != nil {
		return err
	}
	if err := e.measured(func() error { return call(g) }); err != nil {
		return err
	}
	return e.t.GroupFree(g)
}

// withType measures call on a fresh derived datatype.
func (e *env) withType(call func(ty abi.Handle) error) error {
	ty, err := e.t.TypeContiguous(2, e.i64)
	if err != nil {
		return err
	}
	if err := e.measured(func() error { return call(ty) }); err != nil {
		return err
	}
	return e.t.TypeFree(ty)
}

// newType measures a datatype constructor.
func (e *env) newType(mk func() (abi.Handle, error)) error {
	var ty abi.Handle
	if err := e.measured(func() (err error) { ty, err = mk(); return }); err != nil {
		return err
	}
	return e.t.TypeFree(ty)
}

// (a) Every FuncTable method advances the rank clock by exactly the
// layer's per-call charge, the golden number of times. This is what pins
// "no virtual number moved" call by call.
func TestTranslatorChargesPerCall(t *testing.T) {
	if len(chargeCases) != 51 {
		t.Fatalf("%d charge cases for the 51 FuncTable methods", len(chargeCases))
	}
	forEachStack(t, 1, func(t *testing.T, e *env) {
		st := e.st
		for _, c := range chargeCases {
			if err := c.run(e); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			top, below := int(e.delta/innerUnit), 0
			if st.overMuk {
				top, below = int(e.delta/outerUnit), int(e.delta%outerUnit/innerUnit)
			}
			wantTop, wantBelow := c.want[0], 0
			if st.mana {
				wantTop = c.want[1]
			}
			if st.overMuk {
				wantBelow = c.want[2]
			}
			if top != wantTop || below != wantBelow {
				t.Errorf("%s: %d charges by the layer and %d beneath it (clock moved %v), want %d and %d",
					c.name, top, below, e.delta, wantTop, wantBelow)
			}
		}
	})
}

// unknownHandle forges a handle of a class that the stack never minted,
// in the stack's upper dialect.
func unknownHandle(st stack, class abi.Class) abi.Handle {
	if !st.mpich {
		return abi.MakeHandle(class, 0x99999)
	}
	// MPICH's HANDLE_KIND prefixes, with a payload below the translator's
	// dynamic range and outside the predefined constants.
	prefix := map[abi.Class]uint64{
		abi.ClassComm: 0x44000000, abi.ClassGroup: 0x48000000, abi.ClassType: 0x4c000000,
		abi.ClassOp: 0x58000000, abi.ClassRequest: 0x2c000000,
	}
	return abi.Handle(prefix[class] | 0x12345)
}

// (b) An unknown handle of each class reaches the inner table as that
// class's null and comes back as the right error class. An unknown
// request is MPI_ERR_REQUEST, as every native answers for a request it
// never issued, and the translator answers it with no inner call.
func TestTranslatorUnknownHandles(t *testing.T) {
	cases := []struct {
		class abi.Class
		null  abi.Sym
		want  abi.ErrClass
		call  func(e *env, h abi.Handle) error
	}{
		{abi.ClassComm, abi.SymCommNull, abi.ErrComm, func(e *env, h abi.Handle) error { return e.t.Barrier(h) }},
		{abi.ClassGroup, abi.SymGroupNull, abi.ErrGroup, func(e *env, h abi.Handle) error { _, err := e.t.GroupSize(h); return err }},
		{abi.ClassType, abi.SymTypeNull, abi.ErrType, func(e *env, h abi.Handle) error { _, err := e.t.TypeSize(h); return err }},
		{abi.ClassOp, abi.SymOpNull, abi.ErrOp, func(e *env, h abi.Handle) error { return e.t.OpFree(h) }},
		{abi.ClassRequest, abi.SymInvalid, abi.ErrRequest, func(e *env, h abi.Handle) error { return e.t.Wait(h, nil) }},
	}
	forEachStack(t, 1, func(t *testing.T, e *env) {
		for _, c := range cases {
			e.spy.Handles = nil
			err := c.call(e, unknownHandle(e.st, c.class))
			if got := abi.ClassOf(err); got != c.want {
				t.Errorf("unknown %v handle: error class %v (%v), want %v", c.class, got, err, c.want)
			}
			var want []abi.Handle
			if c.class != abi.ClassRequest {
				want = []abi.Handle{e.spy.FuncTable.Lookup(c.null)}
			}
			if fmt.Sprint(e.spy.Handles) != fmt.Sprint(want) {
				t.Errorf("unknown %v handle reached the inner table as %v, want %v", c.class, e.spy.Handles, want)
			}
		}
	})
}

// (c) MPI_UNDEFINED is translated in both directions: results from
// GroupRank, GroupTranslateRanks and GetCount upward, a split colour
// downward.
func TestTranslatorUndefined(t *testing.T) {
	forEachStack(t, 1, func(t *testing.T, e *env) {
		if e.undefined == abitest.SkewUndefined {
			t.Fatalf("upper MPI_UNDEFINED equals the spy's skewed %d; the test would see nothing", abitest.SkewUndefined)
		}
		g, err := e.t.CommGroup(e.world)
		if err != nil {
			t.Fatal(err)
		}
		empty, err := e.t.GroupExcl(g, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		if r, err := e.t.GroupRank(empty); err != nil || r != e.undefined {
			t.Errorf("GroupRank outside the group = %d (%v), want the upper Undefined %d", r, err, e.undefined)
		}
		if tr, err := e.t.GroupTranslateRanks(g, []int{0}, empty); err != nil || len(tr) != 1 || tr[0] != e.undefined {
			t.Errorf("GroupTranslateRanks into the empty group = %v (%v), want [%d]", tr, err, e.undefined)
		}
		if n, err := e.t.GetCount(&abi.Status{CountBytes: 12}, e.i64); err != nil || n != e.undefined {
			t.Errorf("GetCount of a partial element = %d (%v), want the upper Undefined %d", n, err, e.undefined)
		}
		sub, err := e.t.CommSplit(e.world, e.undefined, 0)
		if err != nil {
			t.Fatal(err)
		}
		if null := e.t.Lookup(abi.SymCommNull); sub != null {
			t.Errorf("Undefined split colour returned %v, want the upper CommNull %v", sub, null)
		}
		if len(e.spy.Colors) != 1 || e.spy.Colors[0] != abitest.SkewUndefined {
			t.Errorf("split colour reached the inner table as %v, want its Undefined %d", e.spy.Colors, abitest.SkewUndefined)
		}
	})
}

// (d) The five MPIX calls round-trip proc-failed and revoked in the upper
// dialect's numbering: the error's class, and the code inside a status
// (the standard ABI's 17/18 over any implementation, MPICH's 71/72
// through Wi4MPI — whatever the implementation underneath says).
func TestTranslatorULFMClasses(t *testing.T) {
	forEachStack(t, 2, func(t *testing.T, e *env) {
		st := e.st
		procFailed, revoked := int32(abi.ErrProcFailed), int32(abi.ErrRevoked)
		if st.mpich {
			procFailed, revoked = 71, 72
		}
		// A receive posted on a rank that then dies completes proc-failed.
		r, err := e.t.Irecv(make([]byte, 8), 1, e.i64, 1, 5, e.world)
		if err != nil {
			t.Fatal(err)
		}
		e.w.Kill(1)
		e.w.NotifyFailure(1)
		var status abi.Status
		if err := e.t.Wait(r, &status); abi.ClassOf(err) != abi.ErrProcFailed {
			t.Fatalf("Wait on a dead source: %v, want ErrProcFailed", err)
		}
		if status.Error != procFailed {
			t.Errorf("status.Error = %d, want the upper proc-failed code %d", status.Error, procFailed)
		}
		// Agreement completes among the survivors.
		if flag, err := e.t.CommAgree(e.world, 5); err != nil || flag != 5 {
			t.Errorf("CommAgree among survivors = %d (%v), want 5", flag, err)
		}
		if err := e.t.CommFailureAck(e.world); err != nil {
			t.Fatal(err)
		}
		acked, err := e.t.CommFailureGetAcked(e.world)
		if st.mana {
			if abi.ClassOf(err) != abi.ErrUnsupported {
				t.Errorf("MANA CommFailureGetAcked: %v, want the ErrUnsupported refusal", err)
			}
		} else if n, _ := e.t.GroupSize(acked); err != nil || n != 1 {
			t.Errorf("acknowledged group size %d (%v), want 1", n, err)
		}
		// Acknowledged failures re-arm wildcards; revoking then fails the
		// pending receive with the revoked class.
		r, err = e.t.Irecv(make([]byte, 8), 1, e.i64, e.anySource, 5, e.world)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.t.CommRevoke(e.world); err != nil {
			t.Fatal(err)
		}
		status = abi.Status{}
		if err := e.t.Wait(r, &status); abi.ClassOf(err) != abi.ErrRevoked {
			t.Fatalf("Wait across a revocation: %v, want ErrRevoked", err)
		}
		if status.Error != revoked {
			t.Errorf("status.Error = %d, want the upper revoked code %d", status.Error, revoked)
		}
		if err := e.t.Send(make([]byte, 8), 1, e.i64, 0, 5, e.world); abi.ClassOf(err) != abi.ErrRevoked {
			t.Errorf("Send on a revoked communicator: %v, want ErrRevoked", err)
		}
		// Shrink works on a revoked communicator and yields the survivors.
		shrunk, err := e.t.CommShrink(e.world)
		if st.mana {
			if abi.ClassOf(err) != abi.ErrUnsupported {
				t.Errorf("MANA CommShrink: %v, want the ErrUnsupported refusal", err)
			}
			return
		}
		if n, _ := e.t.CommSize(shrunk); err != nil || n != 1 {
			t.Errorf("shrunken communicator size %d (%v), want 1", n, err)
		}
	})
}
