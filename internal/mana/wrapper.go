// Package mana reproduces the MANA transparent checkpointing package for
// MPI (MPI-Agnostic Network-Agnostic checkpointing, built as a DMTCP
// plugin), revised as in the paper to speak the standard MPI ABI:
//
//   - the Wrapper interposes on every MPI call (libmana.so's LD_PRELOAD
//     wrappers), presenting the standard ABI to the application;
//   - application-visible handles are virtual ids that stay constant
//     across checkpoint/restart, while the lower-half handles they map to
//     are rebound at restart by replaying recorded construction recipes;
//   - on checkpoint, in-flight point-to-point messages are drained into
//     upper-half buffers using send/receive counter exchange, MANA's
//     actual algorithm;
//   - each call pays the split-process FSGSBASE context-switch cost (see
//     fsgsbase.go), reproducing the paper's overhead explanation.
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

// Config tunes the wrapper.
type Config struct {
	// Kernel selects the FSGSBASE cost model (the paper's testbed is
	// KernelPre5_9).
	Kernel KernelVersion
	// VidCost is the bookkeeping cost of one wrapper call (virtual id
	// lookup and counter updates).
	VidCost time.Duration
	// ErrClass maps in-status error codes from the inner table's space to
	// standard classes. Leave nil when the inner table is the Mukautuva
	// shim (already standard).
	ErrClass func(code int) abi.ErrClass
}

// DefaultConfig matches the paper's testbed: old kernel, syscall-priced
// context switches.
func DefaultConfig() Config {
	return Config{Kernel: KernelPre5_9, VidCost: 60 * time.Nanosecond}
}

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

// reqInfo is the upper half's view of an outstanding request.
type reqInfo struct {
	isRecv bool
	comm   abi.Handle // comm vid for receive counting
	pseudo bool       // satisfied from the drained-message buffer
	status abi.Status // pseudo completion status
	code   error
}

// Wrapper is libmana.so: an abi.FuncTable interposed above the lower half.
// The standard-ABI surface and the handle map (vid or predefined -> inner
// handle) are the embedded abi.Translator; the wrapper overrides the calls
// a checkpointer must see — point-to-point (counted, and served from the
// drain buffers), object creation and destruction (recorded for replay) —
// and refuses the two ULFM calls it cannot replay.
type Wrapper struct {
	abi.Translator

	inner abi.FuncTable // the lower half, for uncharged calls (drain, buffered delivery, replay)
	oob   *fabric.OOB
	rank  int // world rank

	nextVid uint64
	log     []Event

	comms map[abi.Handle]*commInfo

	reqs    map[abi.Handle]*reqInfo
	nextReq uint64

	sent     map[abi.Handle]map[int]uint64 // comm vid -> dest comm rank -> msgs
	recvd    map[abi.Handle]map[int]uint64 // comm vid -> src comm rank -> msgs
	buffered map[abi.Handle][]Drained

	iByteType abi.Handle // inner constant captured at bind time
}

var _ abi.FuncTable = (*Wrapper)(nil)

// NewWrapper interposes MANA above an inner function table for one rank.
// The world provides the out-of-band plane used by the drain protocol.
func NewWrapper(inner abi.FuncTable, w *fabric.World, rank int, cfg Config) *Wrapper {
	if cfg.ErrClass == nil {
		cfg.ErrClass = func(code int) abi.ErrClass { return abi.ErrClass(code) }
	}
	mw := &Wrapper{
		inner:    inner,
		oob:      w.OOB(),
		rank:     rank,
		nextVid:  vidBase,
		comms:    make(map[abi.Handle]*commInfo),
		reqs:     make(map[abi.Handle]*reqInfo),
		nextReq:  reqBase,
		sent:     make(map[abi.Handle]map[int]uint64),
		recvd:    make(map[abi.Handle]map[int]uint64),
		buffered: make(map[abi.Handle][]Drained),
	}
	mw.iByteType = inner.Lookup(abi.SymForKind(types.KindByte))
	// One wrapper call costs virtual-id bookkeeping plus the split-process
	// fs-register round trip.
	mw.Translator = abi.NewTranslator(inner, w.Endpoint(rank).Clock(),
		cfg.VidCost+cfg.Kernel.CallCost(), abi.StdDialect("mana", cfg.ErrClass, mw.vid))

	// Predefined communicators are live from the start.
	size, _ := inner.CommSize(inner.Lookup(abi.SymCommWorld))
	mw.comms[abi.CommWorld] = &commInfo{gid: 1, myRank: rank, size: size}
	mw.comms[abi.CommSelf] = &commInfo{gid: selfGID(rank), myRank: 0, size: 1}
	return mw
}

// selfGID keeps each rank's MPI_COMM_SELF distinct in the drain exchange.
func selfGID(rank int) uint64 { return 0x5e1f_0000_0000_0000 | uint64(rank) }

// Outstanding reports open requests; checkpoints require zero.
func (w *Wrapper) Outstanding() int { return len(w.reqs) }

// vid mints a fresh virtual id of a class (the translator binds it).
func (w *Wrapper) vid(class abi.Class) abi.Handle {
	w.nextVid++
	return abi.MakeHandle(class, w.nextVid)
}

// reqVid mints a request virtual id.
func (w *Wrapper) reqVid() abi.Handle {
	w.nextReq++
	return abi.MakeHandle(abi.ClassRequest, w.nextReq)
}

// bump increments a nested counter map.
func bump(m map[abi.Handle]map[int]uint64, comm abi.Handle, peer int) {
	inner, ok := m[comm]
	if !ok {
		inner = make(map[int]uint64)
		m[comm] = inner
	}
	inner[peer]++
}
