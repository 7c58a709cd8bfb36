package abi

import (
	"fmt"

	"repro/internal/types"
)

// Status is the standard ABI's status object. Field order and widths are
// part of the ABI (applications may embed Status in their own structs and
// ship it across checkpoints). Real implementations lay theirs out
// differently — MPICH {count_lo, count_hi_and_cancelled, SOURCE, TAG,
// ERROR}, Open MPI {SOURCE, TAG, ERROR, _ucount, _cancelled} — but every
// simulated native binding fills this one layout; what still differs is
// the values inside (the native PROC_NULL sentinel in Source, the native
// error code in Error), which the translation layers convert.
type Status struct {
	Source     int32  // rank of the sender (MPI_SOURCE)
	Tag        int32  // message tag (MPI_TAG)
	Error      int32  // error class (MPI_ERROR)
	CountBytes uint64 // received payload size in bytes
	Cancelled  bool
}

// GetCount returns the number of elements of the given predefined or
// committed datatype size received, or Undefined if the byte count is not a
// multiple of the type size (mirroring MPI_Get_count).
func (s *Status) GetCount(typeSize int) int {
	if typeSize <= 0 {
		return Undefined
	}
	if s.CountBytes%uint64(typeSize) != 0 {
		return Undefined
	}
	return int(s.CountBytes / uint64(typeSize))
}

// GetCountKind is GetCount for a primitive kind.
func (s *Status) GetCountKind(k types.Kind) int { return s.GetCount(k.Size()) }

// String renders the status for diagnostics.
func (s *Status) String() string {
	return fmt.Sprintf("Status{src=%d tag=%d err=%d bytes=%d cancelled=%v}",
		s.Source, s.Tag, s.Error, s.CountBytes, s.Cancelled)
}
