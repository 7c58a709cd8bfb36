// Package mana reproduces the MANA transparent checkpointing package for
// MPI (MPI-Agnostic Network-Agnostic checkpointing, built as a DMTCP
// plugin), revised as in the paper to speak the standard MPI ABI:
//
//   - the Wrapper interposes on every MPI call (libmana.so's LD_PRELOAD
//     wrappers), presenting the standard ABI to the application;
//   - application-visible handles are virtual ids that stay constant
//     across checkpoint/restart, while the lower-half handles they map to
//     are rebuilt at restart by re-issuing the recorded calls;
//   - on checkpoint, in-flight point-to-point messages are drained into
//     upper-half buffers using send/receive counter exchange, MANA's
//     actual algorithm: each rank publishes its send counters over the
//     OOB plane as fixed-width records sorted by (communicator,
//     destination), and each receiver finds the records naming itself by
//     binary search in one shared snapshot of every payload (drain.go);
//   - each call pays VidCost (60 ns) of virtual-id bookkeeping plus the
//     split-process FSGSBASE context-switch cost of the kernel it is
//     built for (KernelVersion.CallCost, fsgsbase.go), reproducing the
//     paper's overhead explanation; the kernel is the one per-layer cost
//     setting that varies, as the FSGSBASE ablation's axis.
//
// Stacked over the Mukautuva shim (internal/mukautuva), the wrapper's
// serialized state is implementation-independent, which is what lets a
// job checkpoint under Open MPI and restart under MPICH (Figure 6). The
// wrapper also runs directly over a native binding — the paper's older
// "virtual id" configuration — in which case restart is only legal under
// the same implementation.
//
// In the README's layer diagram MANA is the checkpointer-interposition
// entry of the bindings-and-shims row (Sections 3 and 5.3): it wraps
// whatever function table it is given, native or shimmed.
package mana

import (
	"time"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/types"
)

// VidCost is the bookkeeping cost of one wrapper call (virtual id lookup
// and counter updates).
const VidCost = 60 * time.Nanosecond

// vidBase is the first payload for virtual-id handles. It sits far above
// the standard ABI's predefined payloads, so predefined constants pass
// through unvirtualized — exactly the property that keeps them stable in
// checkpoint images.
const vidBase = 0x00f00000

// reqBase is the payload range for request virtual ids (not logged; they
// never survive a checkpoint because safe points require quiescence).
const reqBase = 0x00400000

// commInfo tracks the drain-relevant facts of a communicator vid.
type commInfo struct {
	gid     uint64 // globally consistent communicator identity
	myRank  int    // my rank within the communicator
	size    int
	nextOrd uint32 // per-parent child ordinal (gid derivation)
}

// Drained is one in-flight message pulled into the upper half at
// checkpoint time: packed bytes plus the matching envelope facts.
type Drained struct {
	Source int // communicator rank of the sender
	Tag    int32
	Data   []byte
}

// Wrapper is libmana.so: an abi.FuncTable interposed above the lower half.
// The standard-ABI surface and the one handle table (vid, request or
// predefined -> inner handle) are the embedded abi.Translator, which alone
// decides when a handle maps, mints and dies: predefined constants are
// never minted or released, MPI_REQUEST_NULL completes at once, an unknown
// request is MPI_ERR_REQUEST, and a request is released only when the
// lower half completes it. The wrapper keeps no request map of its own:
// a request's entry notes the communicator a receive counts against, or
// the completion served from the drain buffers. It overrides the calls a
// checkpointer must see — point-to-point (counted, and served from the
// drain buffers), object creation and destruction (recorded for replay) —
// and refuses the two ULFM calls it cannot replay.
type Wrapper struct {
	abi.Translator

	inner abi.FuncTable // the lower half, for uncharged calls (drain, buffered delivery, a new communicator's rank and size)
	oob   *fabric.OOB
	rank  int // world rank

	nextVid uint64
	log     []Event

	comms   map[abi.Handle]*commInfo
	nextReq uint64

	// The drain state, each map made on its first write: most ranks never
	// checkpoint. canon encodes a nil map as an empty one.
	sent     map[abi.Handle]map[int]uint64 // comm vid -> dest comm rank -> msgs
	recvd    map[abi.Handle]map[int]uint64 // comm vid -> src comm rank -> msgs
	buffered map[abi.Handle][]Drained

	iByteType abi.Handle // inner constant captured at bind time
	st        abi.Status // the status Recv and complete count from when the caller passes nil
}

var _ abi.FuncTable = (*Wrapper)(nil)

// NewWrapper interposes MANA above an inner function table for one rank;
// below is the inner table's vocabulary and kernel prices its context
// switches (the paper's testbed is KernelPre5_9). The world provides the
// out-of-band plane used by the drain protocol.
func NewWrapper(inner abi.FuncTable, below *abi.Dialect, w *fabric.World, rank int, kernel KernelVersion) *Wrapper {
	mw := &Wrapper{
		inner:   inner,
		oob:     w.OOB(),
		rank:    rank,
		nextVid: vidBase,
		comms:   make(map[abi.Handle]*commInfo),
		nextReq: reqBase,
	}
	mw.iByteType = inner.Lookup(abi.SymForKind(types.KindByte))
	// One wrapper call costs virtual-id bookkeeping plus the split-process
	// fs-register round trip.
	mw.Translator = abi.NewTranslator(inner, below, abi.Std, "mana", mw.vid,
		w.Endpoint(rank).Clock(), VidCost+kernel.CallCost())

	// Predefined communicators are live from the start.
	size, _ := inner.CommSize(inner.Lookup(abi.SymCommWorld))
	mw.comms[abi.CommWorld] = &commInfo{gid: 1, myRank: rank, size: size}
	mw.comms[abi.CommSelf] = &commInfo{gid: selfGID(rank), myRank: 0, size: 1}
	return mw
}

// selfGID keeps each rank's MPI_COMM_SELF distinct in the drain exchange.
func selfGID(rank int) uint64 { return 0x5e1f_0000_0000_0000 | uint64(rank) }

// vid mints a fresh virtual id of a class (the translator binds it);
// requests count in their own range.
func (w *Wrapper) vid(class abi.Class) abi.Handle {
	if class == abi.ClassRequest {
		w.nextReq++
		return abi.MakeHandle(class, w.nextReq)
	}
	w.nextVid++
	return abi.MakeHandle(class, w.nextVid)
}

// bump increments a nested counter map, making either level on its first
// write.
func bump(m *map[abi.Handle]map[int]uint64, comm abi.Handle, peer int) {
	if *m == nil {
		*m = make(map[abi.Handle]map[int]uint64)
	}
	inner, ok := (*m)[comm]
	if !ok {
		inner = make(map[int]uint64)
		(*m)[comm] = inner
	}
	inner[peer]++
}
