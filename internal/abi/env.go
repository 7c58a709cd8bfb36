package abi

import (
	"time"

	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/types"
)

// Env is the application's view of one MPI rank: the bound function table,
// the resolved predefined constants, and the rank's virtual clock. It is
// the analog of a compiled MPI binary: constants were resolved once at bind
// time ("compile time") and all calls go through the table it was linked
// against.
type Env struct {
	// T is the bound MPI function table (native, Mukautuva, or MANA).
	T FuncTable

	// Resolved object constants.
	CommWorld, CommSelf            Handle
	TypeByte, TypeInt32, TypeInt64 Handle
	TypeFloat64, TypeFloat64Int32  Handle
	OpSum, OpProd, OpMax, OpMin    Handle
	OpMaxLoc                       Handle

	// Resolved integer constants.
	AnySource, AnyTag, ProcNull int

	rank, size int
	clock      *simnet.Clock
}

// NewEnv binds a function table and clock into an application environment,
// resolving the constants an application would get from mpi.h.
func NewEnv(t FuncTable, clock *simnet.Clock) (*Env, error) {
	e := &Env{
		T:                t,
		CommWorld:        t.Lookup(SymCommWorld),
		CommSelf:         t.Lookup(SymCommSelf),
		TypeByte:         t.Lookup(SymForKind(types.KindByte)),
		TypeInt32:        t.Lookup(SymForKind(types.KindInt32)),
		TypeInt64:        t.Lookup(SymForKind(types.KindInt64)),
		TypeFloat64:      t.Lookup(SymForKind(types.KindFloat64)),
		TypeFloat64Int32: t.Lookup(SymForKind(types.KindFloat64Int32)),
		OpSum:            t.Lookup(SymForOp(ops.OpSum)),
		OpProd:           t.Lookup(SymForOp(ops.OpProd)),
		OpMax:            t.Lookup(SymForOp(ops.OpMax)),
		OpMin:            t.Lookup(SymForOp(ops.OpMin)),
		OpMaxLoc:         t.Lookup(SymForOp(ops.OpMaxLoc)),
		AnySource:        t.LookupInt(IntAnySource),
		AnyTag:           t.LookupInt(IntAnyTag),
		ProcNull:         t.LookupInt(IntProcNull),
		clock:            clock,
	}
	var err error
	if e.size, err = t.CommSize(e.CommWorld); err != nil {
		return nil, err
	}
	if e.rank, err = t.CommRank(e.CommWorld); err != nil {
		return nil, err
	}
	return e, nil
}

// Rebind repoints the environment's world communicator — ULFM in-place
// recovery's final step: after the application revokes the damaged
// communicator and shrinks it to the survivors, the shrunken handle
// becomes the new "world" and rank/size are re-resolved against it. The
// rest of the environment (constants, types, ops, clock) is unchanged:
// the binding survives the failure, which is the point of recovering in
// place instead of restarting the process.
func (e *Env) Rebind(world Handle) error {
	size, err := e.T.CommSize(world)
	if err != nil {
		return err
	}
	rank, err := e.T.CommRank(world)
	if err != nil {
		return err
	}
	e.CommWorld = world
	e.size, e.rank = size, rank
	return nil
}

// Rank returns the caller's rank in the world communicator.
func (e *Env) Rank() int { return e.rank }

// Size returns the world communicator size.
func (e *Env) Size() int { return e.size }

// Now returns the rank's current virtual time.
func (e *Env) Now() simnet.Time { return e.clock.Now() }

// Compute advances virtual time by d, modeling local computation (or a
// sleep). It performs no real work.
func (e *Env) Compute(d time.Duration) { e.clock.Advance(d) }
