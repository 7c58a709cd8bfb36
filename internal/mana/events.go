package mana

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

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

// same reports whether two events record the same call with the same
// outcome: vid, gid and every argument.
func (ev Event) same(o Event) bool {
	return ev.Op == o.Op && ev.Vid == o.Vid && ev.Parent == o.Parent && ev.Aux == o.Aux &&
		slices.Equal(ev.Ints, o.Ints) && slices.Equal(ev.Handles, o.Handles) &&
		ev.Name == o.Name && ev.Flag == o.Flag && ev.GID == o.GID
}

// fits reports whether an event carries the arguments its call takes: an
// image is a trust boundary, so replay checks before it reads them.
func (ev Event) fits() bool {
	n := len(ev.Ints)
	switch ev.Op {
	case EvCommSplit:
		return n == 2
	case EvTypeContig:
		return n == 1
	case EvTypeVector:
		return n == 3
	case EvTypeIndexed:
		return n%2 == 0
	case EvTypeStruct:
		return n%2 == 0 && len(ev.Handles) == n/2
	}
	return true
}

// replayLog is the restart path. Against a fresh lower half and an empty
// log it re-issues each recorded call through the wrapper method that
// recorded it, which mints, maps, records, tracks communicators and
// derives gids exactly as at record time; a fresh wrapper mints vids in
// log order, so every vid comes back as it was. Each rebuilt event must
// equal the recorded one, and the first that does not fails the restore.
func (w *Wrapper) replayLog(log []Event) error {
	w.log = make([]Event, 0, len(log))
	for i, ev := range log {
		// A call that succeeds records exactly one event.
		err := w.replay(ev)
		if err == nil && !w.log[i].same(ev) {
			err = fmt.Errorf("rebuilt as %+v, recorded as %+v", w.log[i], ev)
		}
		if err != nil {
			return fmt.Errorf("mana: replaying event %d (%v vid=%v): %w", i, ev.Op, ev.Vid, err)
		}
	}
	return nil
}

// replay re-issues one recorded call.
func (w *Wrapper) replay(ev Event) (err error) {
	if !ev.fits() {
		return fmt.Errorf("%d ints and %d handles do not fit the call", len(ev.Ints), len(ev.Handles))
	}
	ints, half := ev.Ints, len(ev.Ints)/2
	switch ev.Op {
	case EvCommDup:
		_, err = w.CommDup(ev.Parent)
	case EvCommSplit:
		_, err = w.CommSplit(ev.Parent, ints[0], ints[1])
	case EvCommCreate:
		_, err = w.CommCreate(ev.Parent, ev.Aux)
	case EvCommGroup:
		_, err = w.CommGroup(ev.Parent)
	case EvGroupIncl:
		_, err = w.GroupIncl(ev.Parent, ints)
	case EvGroupExcl:
		_, err = w.GroupExcl(ev.Parent, ints)
	case EvTypeContig:
		_, err = w.TypeContiguous(ints[0], ev.Parent)
	case EvTypeVector:
		_, err = w.TypeVector(ints[0], ints[1], ints[2], ev.Parent)
	case EvTypeIndexed:
		_, err = w.TypeIndexed(ints[:half], ints[half:], ev.Parent)
	case EvTypeStruct:
		_, err = w.TypeCreateStruct(ints[:half], ints[half:], ev.Handles)
	case EvTypeCommit:
		err = w.TypeCommit(ev.Vid)
	case EvOpCreate:
		_, err = w.OpCreate(ev.Name, ev.Flag)
	case EvCommFree:
		err = w.CommFree(ev.Vid)
	case EvGroupFree:
		err = w.GroupFree(ev.Vid)
	case EvTypeFree:
		err = w.TypeFree(ev.Vid)
	case EvOpFree:
		err = w.OpFree(ev.Vid)
	default:
		err = fmt.Errorf("unknown event op %v", ev.Op)
	}
	return err
}
