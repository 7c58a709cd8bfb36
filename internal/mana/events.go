package mana

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/abi"
)

// EvOp enumerates the MPI-object lifecycle operations MANA records. The
// event log is the upper half's "recipe book": replaying it against a
// fresh lower half rebuilds a semantically equivalent object for every
// virtual id, which is how restart works — including restart under a
// different MPI implementation when the inner table is the Mukautuva shim.
type EvOp uint8

// Logged operations.
const (
	EvCommDup EvOp = iota
	EvCommSplit
	EvCommCreate
	EvCommGroup
	EvGroupIncl
	EvGroupExcl
	EvTypeContig
	EvTypeVector
	EvTypeIndexed
	EvTypeStruct
	EvTypeCommit
	EvOpCreate
	EvCommFree
	EvGroupFree
	EvTypeFree
	EvOpFree
)

var evNames = [...]string{
	EvCommDup: "comm_dup", EvCommSplit: "comm_split", EvCommCreate: "comm_create",
	EvCommGroup: "comm_group", EvGroupIncl: "group_incl", EvGroupExcl: "group_excl",
	EvTypeContig: "type_contiguous", EvTypeVector: "type_vector",
	EvTypeIndexed: "type_indexed", EvTypeStruct: "type_create_struct",
	EvTypeCommit: "type_commit", EvOpCreate: "op_create",
	EvCommFree: "comm_free", EvGroupFree: "group_free",
	EvTypeFree: "type_free", EvOpFree: "op_free",
}

// String names the operation.
func (op EvOp) String() string {
	if int(op) < len(evNames) {
		return evNames[op]
	}
	return fmt.Sprintf("ev(%d)", uint8(op))
}

// Event is one recorded lifecycle operation. All fields are exported: the
// log is checkpointed in MANA's blob. Vid is the subject (the created vid, the freed vid, or CommNull
// for a split that returned no communicator on this rank — the event must
// still replay because the call was collective).
type Event struct {
	Op      EvOp
	Vid     abi.Handle
	Parent  abi.Handle
	Aux     abi.Handle
	Ints    []int
	Handles []abi.Handle
	Name    string
	Flag    bool
	GID     uint64 // communicator identity, stored for replay verification
}

// commGID derives a child communicator's globally consistent identity from
// its parent's identity and the creation ordinal (plus the split color).
// All members of the child observe identical inputs, so all derive the
// same gid without communication; the drain protocol keys its counter
// exchange on these.
func commGID(parent uint64, op EvOp, ordinal uint32, color int) uint64 {
	le := binary.LittleEndian
	b := append(le.AppendUint64(make([]byte, 0, 21), parent), byte(op))
	b = le.AppendUint64(le.AppendUint32(b, ordinal), uint64(int64(color)))
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// record appends an event to the log.
func (w *Wrapper) record(ev Event) { w.log = append(w.log, ev) }

// replayLog re-executes the event log against the (fresh) inner table,
// rebinding every vid. It is the restart path.
func (w *Wrapper) replayLog(log []Event) error {
	for i, ev := range log {
		if err := w.replayOne(ev); err != nil {
			return fmt.Errorf("mana: replaying event %d (%v vid=%v): %w", i, ev.Op, ev.Vid, err)
		}
	}
	w.log = log
	return nil
}

func (w *Wrapper) replayOne(ev Event) error {
	switch ev.Op {
	case EvCommDup:
		n, err := w.inner.CommDup(w.In(ev.Parent))
		if err != nil {
			return err
		}
		return w.bindComm(ev, n)
	case EvCommSplit:
		n, err := w.inner.CommSplit(w.In(ev.Parent), w.ColorIn(ev.Ints[0]), ev.Ints[1])
		if err != nil {
			return err
		}
		return w.bindComm(ev, n)
	case EvCommCreate:
		n, err := w.inner.CommCreate(w.In(ev.Parent), w.In(ev.Aux))
		if err != nil {
			return err
		}
		return w.bindComm(ev, n)
	case EvCommGroup:
		n, err := w.inner.CommGroup(w.In(ev.Parent))
		return w.rebind(ev.Vid, n, err)
	case EvGroupIncl:
		n, err := w.inner.GroupIncl(w.In(ev.Parent), ev.Ints)
		return w.rebind(ev.Vid, n, err)
	case EvGroupExcl:
		n, err := w.inner.GroupExcl(w.In(ev.Parent), ev.Ints)
		return w.rebind(ev.Vid, n, err)
	case EvTypeContig:
		n, err := w.inner.TypeContiguous(ev.Ints[0], w.In(ev.Parent))
		return w.rebind(ev.Vid, n, err)
	case EvTypeVector:
		n, err := w.inner.TypeVector(ev.Ints[0], ev.Ints[1], ev.Ints[2], w.In(ev.Parent))
		return w.rebind(ev.Vid, n, err)
	case EvTypeIndexed:
		half := len(ev.Ints) / 2
		n, err := w.inner.TypeIndexed(ev.Ints[:half], ev.Ints[half:], w.In(ev.Parent))
		return w.rebind(ev.Vid, n, err)
	case EvTypeStruct:
		half := len(ev.Ints) / 2
		inner := make([]abi.Handle, len(ev.Handles))
		for i, h := range ev.Handles {
			inner[i] = w.In(h)
		}
		n, err := w.inner.TypeCreateStruct(ev.Ints[:half], ev.Ints[half:], inner)
		return w.rebind(ev.Vid, n, err)
	case EvTypeCommit:
		return w.inner.TypeCommit(w.In(ev.Vid))
	case EvOpCreate:
		n, err := w.inner.OpCreate(ev.Name, ev.Flag)
		return w.rebind(ev.Vid, n, err)
	case EvCommFree:
		err := w.inner.CommFree(w.In(ev.Vid))
		w.Release(ev.Vid)
		w.forgetComm(ev.Vid)
		return err
	case EvGroupFree:
		err := w.inner.GroupFree(w.In(ev.Vid))
		w.Release(ev.Vid)
		return err
	case EvTypeFree:
		err := w.inner.TypeFree(w.In(ev.Vid))
		w.Release(ev.Vid)
		return err
	case EvOpFree:
		err := w.inner.OpFree(w.In(ev.Vid))
		w.Release(ev.Vid)
		return err
	}
	return fmt.Errorf("unknown event op %v", ev.Op)
}

// rebind maps a vid to the object its replayed creation returned.
func (w *Wrapper) rebind(vid, native abi.Handle, err error) error {
	if err == nil {
		w.Bind(vid, native)
	}
	return err
}

// bindComm rebinds a communicator vid after replaying its creation,
// verifying the recomputed gid against the recorded one.
func (w *Wrapper) bindComm(ev Event, native abi.Handle) error {
	parentInfo := w.comms[ev.Parent]
	if parentInfo == nil {
		return fmt.Errorf("parent communicator %v unknown", ev.Parent)
	}
	ord := parentInfo.nextOrd
	parentInfo.nextOrd++
	color := 0
	if ev.Op == EvCommSplit {
		color = ev.Ints[0]
	}
	gid := commGID(parentInfo.gid, ev.Op, ord, color)
	if ev.GID != 0 && gid != ev.GID {
		return fmt.Errorf("gid mismatch on replay: %#x != recorded %#x", gid, ev.GID)
	}
	if ev.Vid == abi.CommNull {
		// This rank was not a member (split with UNDEFINED color or a
		// group it does not belong to); nothing to bind.
		return nil
	}
	w.Bind(ev.Vid, native)
	return w.trackComm(ev.Vid, gid)
}
