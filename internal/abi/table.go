package abi

import (
	"fmt"
	"sync"

	"repro/internal/ops"
	"repro/internal/types"
)

// Sym names a predefined object constant that an application resolves at
// bind time. This models compile-time constant substitution from mpi.h:
// binding an application to a native MPICH table yields MPICH's handle
// values, binding to a standard-ABI table (Mukautuva or MANA) yields the
// fixed values in this package. Application code never hardcodes handle
// bit patterns. A Dialect holds each vocabulary's values.
type Sym uint16

// Object constant symbols.
const (
	SymInvalid Sym = iota
	SymCommWorld
	SymCommSelf
	SymCommNull
	SymGroupNull
	SymGroupEmpty
	SymTypeNull
	SymOpNull
	SymRequestNull
	symTypeBase // + types.Kind
)

const symOpBase = symTypeBase + Sym(types.KindFloat64Int32) + 16 // + ops.Op

// SymForKind returns the symbol of a primitive datatype.
func SymForKind(k types.Kind) Sym {
	if !k.Valid() {
		panic(fmt.Sprintf("abi: no symbol for kind %v", k))
	}
	return symTypeBase + Sym(k)
}

// SymForOp returns the symbol of a predefined reduction operator.
func SymForOp(op ops.Op) Sym {
	if !op.Valid() {
		panic(fmt.Sprintf("abi: no symbol for op %v", op))
	}
	return symOpBase + Sym(op)
}

// KindForSym inverts SymForKind.
func KindForSym(s Sym) (types.Kind, bool) {
	if s < symTypeBase || s >= symOpBase {
		return types.KindInvalid, false
	}
	k := types.Kind(s - symTypeBase)
	return k, k.Valid()
}

// OpForSym inverts SymForOp.
func OpForSym(s Sym) (ops.Op, bool) {
	if s < symOpBase {
		return ops.OpNull, false
	}
	op := ops.Op(s - symOpBase)
	return op, op.Valid()
}

// IntSym names a predefined integer constant (compare Sym for handles).
type IntSym uint8

// Integer constant symbols.
const (
	IntAnySource IntSym = iota
	IntAnyTag
	IntProcNull
	IntRoot
	IntUndefined
	IntTagUB
)

// Dialect is one ABI vocabulary, written down once: the values an
// application compiled against one mpi.h holds, and the numbering its
// errors come in. This repository speaks three: Std (the standard ABI),
// mpich.Dialect and openmpi.Dialect. An implementation's native binding
// answers in its own (mpicore.Impl), and a Translator presents one
// upward over whatever table it wraps.
type Dialect struct {
	// Name names the implementation whose mpi.h this is.
	Name string
	// Fixed holds the object constants that are not datatypes or
	// operators, by symbol. Its SymInvalid slot is what a symbol with no
	// value resolves to.
	Fixed [symTypeBase]Handle
	// Type and Op give the predefined datatype and operator handles.
	Type func(types.Kind) Handle
	Op   func(ops.Op) Handle
	// Ints holds the integer constants by symbol; a symbol past them
	// resolves to MPI_UNDEFINED.
	Ints [IntTagUB + 1]int
	// ClassOf recognises the object class of a handle in this dialect,
	// ClassNone when its bits carry none.
	ClassOf func(Handle) Class
	// Codes is the error-code table, which serves both directions of
	// MPI_Error_class.
	Codes Codes

	// syms inverts Lookup over the predefined symbols, built once.
	once sync.Once
	syms map[Handle]Sym
	// over holds, per dialect below, the predefined rows of a Translator
	// presenting this dialect over it, each built once (predefOver).
	mu   sync.Mutex
	over map[*Dialect]*predefRows
}

// Lookup resolves a predefined object constant to the dialect's handle.
func (d *Dialect) Lookup(s Sym) Handle {
	if s < symTypeBase {
		return d.Fixed[s]
	}
	if k, ok := KindForSym(s); ok {
		return d.Type(k)
	}
	if op, ok := OpForSym(s); ok {
		return d.Op(op)
	}
	return d.Fixed[SymInvalid]
}

// symOf returns the predefined symbol whose handle in this dialect is h.
func (d *Dialect) symOf(h Handle) (Sym, bool) {
	d.once.Do(func() {
		d.syms = make(map[Handle]Sym, len(predefined))
		for _, s := range predefined {
			d.syms[d.Lookup(s)] = s
		}
	})
	s, ok := d.syms[h]
	return s, ok
}

// predefOver returns the predefined rows of a Translator that presents d
// over a table speaking below: each predefined handle of d with the
// handle below that it maps to. Every translator of the pair shares the
// rows the first built; none writes them.
func (d *Dialect) predefOver(below *Dialect) *predefRows {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.over[below]
	if !ok {
		r = newPredefRows(d, below)
		if d.over == nil {
			d.over = make(map[*Dialect]*predefRows)
		}
		d.over[below] = r
	}
	return r
}

// predefRows maps the predefined handles of one dialect to those of
// another by a multiplicative hash under which each handle has a slot of
// its own: a lookup is one multiply, one load and one compare, where a
// map would hash the handle and search a group of slots. The set of
// handles is small and fixed, so newPredefRows searches for such a
// multiplier once. An empty slot holds a predefined handle whose own
// slot is another, so no lookup can match it.
type predefRows struct {
	mul   uint64
	slots [1 << predefBits]predefSlot
}

// predefBits sizes predefRows: 1,024 slots for the 37 predefined handles,
// so that about one multiplier in two places them all apart.
const predefBits = 10

// predefSlot is one predefined handle and the handle below it maps to.
type predefSlot struct{ h, inner Handle }

// index is the slot where h would sit.
func (r *predefRows) index(h Handle) uint64 { return uint64(h) * r.mul >> (64 - predefBits) }

// newPredefRows lays out d's predefined handles, trying odd multipliers
// from a fixed sequence until one places them all apart.
func newPredefRows(d, below *Dialect) *predefRows {
	r := new(predefRows)
	for x := uint64(0x9e3779b97f4a7c15); ; {
		x = x*6364136223846793005 + 1442695040888963407
		r.mul, r.slots = x|1, [len(r.slots)]predefSlot{}
		if r.place(d, below) {
			return r
		}
	}
}

// place fills r under its multiplier, reporting false when two
// predefined handles share a slot.
func (r *predefRows) place(d, below *Dialect) bool {
	var taken [len(r.slots)]bool
	for _, sym := range predefined {
		h := d.Lookup(sym)
		i := r.index(h)
		if taken[i] && r.slots[i].h != h {
			return false
		}
		r.slots[i], taken[i] = predefSlot{h: h, inner: below.Lookup(sym)}, true
	}
	// The first handle has its own slot, so it can fill the others.
	first := d.Lookup(predefined[0])
	for i := range r.slots {
		if !taken[i] {
			r.slots[i].h = first
		}
	}
	return true
}

// symClass is the object class of a predefined symbol.
func symClass(s Sym) Class { return Std.Lookup(s).HandleClass() }

// LookupInt resolves an integer constant to the dialect's value.
func (d *Dialect) LookupInt(s IntSym) int {
	if int(s) < len(d.Ints) {
		return d.Ints[s]
	}
	return d.Ints[IntUndefined]
}

// Std is the standard ABI's vocabulary: the fixed constants of this
// package, the class in a handle's top byte, and the error classes
// themselves as codes. It is named for the implementation that speaks
// it natively (internal/stdabi); Mukautuva and MANA present it upward.
var Std = &Dialect{
	Name: "stdabi",
	Fixed: [...]Handle{
		SymInvalid:     HandleNull,
		SymCommWorld:   CommWorld,
		SymCommSelf:    CommSelf,
		SymCommNull:    CommNull,
		SymGroupNull:   GroupNull,
		SymGroupEmpty:  GroupEmpty,
		SymTypeNull:    TypeNull,
		SymOpNull:      OpNull,
		SymRequestNull: RequestNull,
	},
	Type: TypeHandle,
	Op:   OpHandle,
	Ints: [...]int{
		IntAnySource: AnySource,
		IntAnyTag:    AnyTag,
		IntProcNull:  ProcNull,
		IntRoot:      Root,
		IntUndefined: Undefined,
		IntTagUB:     TagUB,
	},
	ClassOf: Handle.HandleClass,
	Codes: Codes{
		Success:        int(ErrSuccess),
		ErrBuffer:      int(ErrBuffer),
		ErrCount:       int(ErrCount),
		ErrType:        int(ErrType),
		ErrTag:         int(ErrTag),
		ErrComm:        int(ErrComm),
		ErrRank:        int(ErrRank),
		ErrRequest:     int(ErrRequest),
		ErrRoot:        int(ErrRoot),
		ErrGroup:       int(ErrGroup),
		ErrOp:          int(ErrOp),
		ErrArg:         int(ErrArg),
		ErrTruncate:    int(ErrTruncate),
		ErrUnsupported: int(ErrUnsupported),
		ErrPending:     int(ErrPending),
		ErrIntern:      int(ErrIntern),
		ErrOther:       int(ErrOther),
		ErrProcFailed:  int(ErrProcFailed),
		ErrRevoked:     int(ErrRevoked),
	},
}

// Consts is one vocabulary's sentinels, read once so that a call path
// compares plain values: the integer constants, and each class's null
// handle.
type Consts struct {
	AnySource int
	AnyTag    int
	ProcNull  int
	Root      int
	Undefined int
	TagUB     int
	// Null is indexed by class; the ClassNone slot holds the datatype
	// null, the answer for a handle of no recognisable class.
	Null [ClassRequest + 1]Handle
}

// ConstsOf captures the sentinels a dialect, or a function table,
// resolves.
func ConstsOf(v interface {
	Lookup(Sym) Handle
	LookupInt(IntSym) int
}) Consts {
	k := Consts{
		AnySource: v.LookupInt(IntAnySource),
		AnyTag:    v.LookupInt(IntAnyTag),
		ProcNull:  v.LookupInt(IntProcNull),
		Root:      v.LookupInt(IntRoot),
		Undefined: v.LookupInt(IntUndefined),
		TagUB:     v.LookupInt(IntTagUB),
	}
	k.Null[ClassNone] = v.Lookup(SymTypeNull)
	k.Null[ClassComm] = v.Lookup(SymCommNull)
	k.Null[ClassGroup] = v.Lookup(SymGroupNull)
	k.Null[ClassType] = v.Lookup(SymTypeNull)
	k.Null[ClassOp] = v.Lookup(SymOpNull)
	k.Null[ClassRequest] = v.Lookup(SymRequestNull)
	return k
}

// FuncTable is the MPI function table — the ABI's callable surface. Every
// layer of the paper's stack implements it:
//
//	the native binding (internal/mpicore.Binding, one body for every
//	                    implementation's vocabulary)
//	the ABI shim       (internal/mukautuva.Shim)
//	the preload layer  (internal/wi4mpi.Preload)
//	the checkpointer   (internal/mana.Wrapper)
//
// so layers stack by simple interface wrapping, the Go analog of function
// interposition via LD_PRELOAD.
//
// Buffers are byte slices interpreted through datatype handles, counts are
// element counts, and non-nil *Status out-parameters are filled on receive
// completion, mirroring the C API shape.
type FuncTable interface {
	// ImplName identifies the bottom MPI library (e.g. "mpich",
	// "openmpi"), like MPI_Get_library_version.
	ImplName() string

	// Lookup resolves predefined object constants at bind time; LookupInt
	// resolves integer constants (wildcards, PROC_NULL, ...).
	Lookup(Sym) Handle
	LookupInt(IntSym) int

	// Point-to-point.
	Send(buf []byte, count int, dtype Handle, dest, tag int, comm Handle) error
	Recv(buf []byte, count int, dtype Handle, source, tag int, comm Handle, status *Status) error
	Isend(buf []byte, count int, dtype Handle, dest, tag int, comm Handle) (Handle, error)
	Irecv(buf []byte, count int, dtype Handle, source, tag int, comm Handle) (Handle, error)
	Wait(req Handle, status *Status) error
	Test(req Handle, status *Status) (bool, error)
	Waitall(reqs []Handle, statuses []Status) error
	Sendrecv(sendbuf []byte, scount int, stype Handle, dest, stag int,
		recvbuf []byte, rcount int, rtype Handle, source, rtag int,
		comm Handle, status *Status) error
	// Probe blocks until a matching message is available without receiving
	// it; Iprobe polls. The status carries the pending message's source,
	// tag and byte count (MANA's drain protocol depends on these).
	Probe(source, tag int, comm Handle, status *Status) error
	Iprobe(source, tag int, comm Handle, status *Status) (bool, error)

	// Collectives.
	Barrier(comm Handle) error
	Bcast(buf []byte, count int, dtype Handle, root int, comm Handle) error
	Reduce(sendbuf, recvbuf []byte, count int, dtype, op Handle, root int, comm Handle) error
	Allreduce(sendbuf, recvbuf []byte, count int, dtype, op Handle, comm Handle) error
	Gather(sendbuf []byte, scount int, stype Handle,
		recvbuf []byte, rcount int, rtype Handle, root int, comm Handle) error
	Allgather(sendbuf []byte, scount int, stype Handle,
		recvbuf []byte, rcount int, rtype Handle, comm Handle) error
	Scatter(sendbuf []byte, scount int, stype Handle,
		recvbuf []byte, rcount int, rtype Handle, root int, comm Handle) error
	Alltoall(sendbuf []byte, scount int, stype Handle,
		recvbuf []byte, rcount int, rtype Handle, comm Handle) error

	// Communicator management.
	CommSize(comm Handle) (int, error)
	CommRank(comm Handle) (int, error)
	CommDup(comm Handle) (Handle, error)
	CommSplit(comm Handle, color, key int) (Handle, error)
	CommCreate(comm, group Handle) (Handle, error)
	CommGroup(comm Handle) (Handle, error)
	CommFree(comm Handle) error

	// Groups.
	GroupSize(group Handle) (int, error)
	GroupRank(group Handle) (int, error)
	GroupIncl(group Handle, ranks []int) (Handle, error)
	GroupExcl(group Handle, ranks []int) (Handle, error)
	GroupTranslateRanks(g1 Handle, ranks []int, g2 Handle) ([]int, error)
	GroupFree(group Handle) error

	// Derived datatypes.
	TypeContiguous(count int, inner Handle) (Handle, error)
	TypeVector(count, blocklen, stride int, inner Handle) (Handle, error)
	TypeIndexed(blocklens, displs []int, inner Handle) (Handle, error)
	TypeCreateStruct(blocklens, displs []int, typs []Handle) (Handle, error)
	TypeCommit(dtype Handle) error
	TypeFree(dtype Handle) error
	TypeSize(dtype Handle) (int, error)
	TypeExtent(dtype Handle) (int, error)
	GetCount(status *Status, dtype Handle) (int, error)

	// ULFM fault tolerance (the MPIX_Comm_* extensions). CommRevoke
	// poisons a communicator so every member's subsequent traffic on it
	// raises ErrRevoked; CommShrink derives a survivors-only
	// communicator (it works on revoked communicators); CommAgree is the
	// fault-tolerant agreement (bitwise AND over living participants'
	// flags, acknowledging failures as it goes); CommFailureAck /
	// CommFailureGetAcked manage the acknowledged-failure set that
	// re-arms wildcard receives. Error codes surface in each
	// implementation's own MPIX numbering below the translation layers —
	// the newest, least-standardized corner of the ABI.
	CommRevoke(comm Handle) error
	CommShrink(comm Handle) (Handle, error)
	CommAgree(comm Handle, flag uint64) (uint64, error)
	CommFailureAck(comm Handle) error
	CommFailureGetAcked(comm Handle) (Handle, error)

	// Reduction operators. User operators are registered by name in
	// internal/ops so they survive checkpoint/restart.
	OpCreate(name string, commute bool) (Handle, error)
	OpFree(op Handle) error

	// Abort terminates the job with the given error code.
	Abort(comm Handle, code int) error
}

// WaitEach runs MPI_Waitall as one wait per request, as every native
// binding does, so each request keeps its own lifetime: each status (sts
// may be nil) is zeroed, then filled, and the last failure is the answer.
func WaitEach(reqs []Handle, sts []Status, label string, wait func(Handle, *Status) error) error {
	if sts != nil && len(sts) != len(reqs) {
		return Errorf(ErrArg, label, "waitall status slice length mismatch")
	}
	var rc error
	for i, r := range reqs {
		var st *Status
		if sts != nil {
			sts[i] = Status{}
			st = &sts[i]
		}
		if err := wait(r, st); err != nil {
			rc = err
		}
	}
	return rc
}
