package abi

import (
	"errors"
	"fmt"
)

// ErrClass is a standard ABI error class. Implementations have their own
// error code spaces; translation layers map native codes into these
// classes, as MPI_Error_class does.
type ErrClass int32

// Standard error classes (a practical subset of MPI's).
const (
	ErrSuccess ErrClass = iota
	ErrBuffer
	ErrCount
	ErrType
	ErrTag
	ErrComm
	ErrRank
	ErrRequest
	ErrRoot
	ErrGroup
	ErrOp
	ErrArg
	ErrTruncate
	ErrUnsupported
	ErrPending
	ErrIntern
	ErrOther
	// ErrProcFailed and ErrRevoked are the ULFM fault-tolerance classes
	// (MPIX_ERR_PROC_FAILED / MPIX_ERR_REVOKED). They are the newest and
	// least-settled corner of the error space: each implementation
	// numbers them differently in its native table (they postdate the
	// classic MPI_ERR_* block), so the standardized values here are what
	// lets an application's failure handling survive an implementation
	// swap — the paper's fault-tolerance argument in one enum.
	ErrProcFailed
	ErrRevoked
	errClassMax
)

var errClassNames = [...]string{
	ErrSuccess: "MPI_SUCCESS", ErrBuffer: "MPI_ERR_BUFFER", ErrCount: "MPI_ERR_COUNT",
	ErrType: "MPI_ERR_TYPE", ErrTag: "MPI_ERR_TAG", ErrComm: "MPI_ERR_COMM",
	ErrRank: "MPI_ERR_RANK", ErrRequest: "MPI_ERR_REQUEST", ErrRoot: "MPI_ERR_ROOT",
	ErrGroup: "MPI_ERR_GROUP", ErrOp: "MPI_ERR_OP", ErrArg: "MPI_ERR_ARG",
	ErrTruncate: "MPI_ERR_TRUNCATE", ErrUnsupported: "MPI_ERR_UNSUPPORTED_OPERATION",
	ErrPending: "MPI_ERR_PENDING", ErrIntern: "MPI_ERR_INTERN", ErrOther: "MPI_ERR_OTHER",
	ErrProcFailed: "MPI_ERR_PROC_FAILED", ErrRevoked: "MPI_ERR_REVOKED",
}

// String names the error class.
func (c ErrClass) String() string {
	if c >= 0 && c < errClassMax {
		return errClassNames[c]
	}
	return fmt.Sprintf("ErrClass(%d)", int32(c))
}

// Error is a standard ABI error value: a class plus context. Impl records
// which library layer produced it, so cross-layer failures stay
// attributable ("openmpi: invalid communicator" vs "mukautuva: ...").
type Error struct {
	Class ErrClass
	Impl  string
	Msg   string
}

// Errorf builds an *Error with a formatted message.
func Errorf(class ErrClass, impl, format string, args ...any) *Error {
	return &Error{Class: class, Impl: impl, Msg: fmt.Sprintf(format, args...)}
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Impl != "" {
		return fmt.Sprintf("%s: %s (%v)", e.Impl, e.Msg, e.Class)
	}
	return fmt.Sprintf("%s (%v)", e.Msg, e.Class)
}

// ClassOf extracts the standard error class from any error. Non-ABI errors
// map to ErrOther; nil maps to ErrSuccess.
func ClassOf(err error) ErrClass {
	if err == nil {
		return ErrSuccess
	}
	var ae *Error
	if errors.As(err, &ae) {
		return ae.Class
	}
	return ErrOther
}

// Codes is one dialect's error-code table: the code each standard error
// class surfaces as. A runtime returns these values directly (and embeds
// them in Status.Error), so an implementation's public API reports its
// own numbering without a translation pass.
type Codes struct {
	Success     int
	ErrBuffer   int
	ErrCount    int
	ErrType     int
	ErrTag      int
	ErrComm     int
	ErrRank     int
	ErrRoot     int
	ErrGroup    int
	ErrOp       int
	ErrArg      int
	ErrTruncate int
	ErrRequest  int
	// ErrUnsupported and ErrPending stay zero where the table has no
	// slot for them (Open MPI's has neither, MPICH's no
	// MPI_ERR_UNSUPPORTED_OPERATION).
	ErrUnsupported int
	ErrPending     int
	ErrIntern      int
	ErrOther       int
	// ErrProcFailed and ErrRevoked are the ULFM (MPIX_*) error classes.
	// Real implementations number these beyond their classic tables —
	// and number them differently from each other, which is exactly the
	// cross-ABI divergence the translation layers must bridge.
	ErrProcFailed int
	ErrRevoked    int
}

type classCode struct {
	class ErrClass
	code  int
}

// byClass pairs each field with its standard error class, Success first:
// the one place the two enumerations meet, from which both directions of
// every dialect's MPI_Error_class mapping derive.
func (e *Codes) byClass() [errClassMax]classCode {
	return [...]classCode{
		{ErrSuccess, e.Success},
		{ErrBuffer, e.ErrBuffer},
		{ErrCount, e.ErrCount},
		{ErrType, e.ErrType},
		{ErrTag, e.ErrTag},
		{ErrComm, e.ErrComm},
		{ErrRank, e.ErrRank},
		{ErrRequest, e.ErrRequest},
		{ErrRoot, e.ErrRoot},
		{ErrGroup, e.ErrGroup},
		{ErrOp, e.ErrOp},
		{ErrArg, e.ErrArg},
		{ErrTruncate, e.ErrTruncate},
		{ErrUnsupported, e.ErrUnsupported},
		{ErrPending, e.ErrPending},
		{ErrIntern, e.ErrIntern},
		{ErrOther, e.ErrOther},
		{ErrProcFailed, e.ErrProcFailed},
		{ErrRevoked, e.ErrRevoked},
	}
}

// ClassOf maps a code to its standard class (MPI_Error_class). Success is
// matched first, so a code an unset field shares with it still reads as
// success; a code the table does not hold is ErrOther.
func (e *Codes) ClassOf(code int) ErrClass {
	for _, p := range e.byClass() {
		if p.code == code {
			return p.class
		}
	}
	return ErrOther
}

// CodeOf is the reverse direction: the code a standard class surfaces as.
// A class the table cannot express — no field for it, or a field left
// unset — collapses to the table's ErrOther, which is what a real error
// handler sees.
func (e *Codes) CodeOf(class ErrClass) int {
	for _, p := range e.byClass() {
		if p.class == class && (p.code != e.Success || class == ErrSuccess) {
			return p.code
		}
	}
	return e.ErrOther
}
