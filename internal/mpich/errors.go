package mpich

// MPICH-style error codes: plain ints with MPI_SUCCESS == 0. The values
// follow real MPICH's mpi.h, which differs from the simulated Open MPI's
// table — translating these spaces is part of the ABI shim's job.
const (
	Success      = 0
	ErrBuffer    = 1
	ErrCount     = 2
	ErrType      = 3
	ErrTag       = 4
	ErrComm      = 5
	ErrRank      = 6
	ErrRoot      = 7
	ErrGroup     = 8
	ErrOp        = 9
	ErrTopology  = 10
	ErrDims      = 11
	ErrArg       = 12
	ErrUnknown   = 13
	ErrTruncate  = 14
	ErrOther     = 15
	ErrIntern    = 16
	ErrInStatus  = 17
	ErrPending   = 18
	ErrRequest   = 19
	errCodeCount = 20

	// ULFM (MPIX_*) error classes. Real MPICH allocates these
	// dynamically past MPI_ERR_LASTCODE rather than in the classic
	// mpi.h block, so their values are an implementation artifact —
	// and differ from the simulated Open MPI's (54/56) and from the
	// standard ABI's classes, which is exactly the divergence the
	// translation layers must bridge for fault handling to survive an
	// implementation swap.
	ErrProcFailed = 71 // MPIX_ERR_PROC_FAILED
	ErrRevoked    = 72 // MPIX_ERR_REVOKED
)

var errStrings = [errCodeCount]string{
	Success:     "No MPI error",
	ErrBuffer:   "Invalid buffer pointer",
	ErrCount:    "Invalid count argument",
	ErrType:     "Invalid datatype argument",
	ErrTag:      "Invalid tag argument",
	ErrComm:     "Invalid communicator",
	ErrRank:     "Invalid rank",
	ErrRoot:     "Invalid root",
	ErrGroup:    "Invalid group",
	ErrOp:       "Invalid MPI_Op",
	ErrTopology: "Invalid topology",
	ErrDims:     "Invalid dimension argument",
	ErrArg:      "Invalid argument",
	ErrUnknown:  "Unknown error",
	ErrTruncate: "Message truncated",
	ErrOther:    "Other MPI error",
	ErrIntern:   "Internal MPI error",
	ErrInStatus: "Error code is in status",
	ErrPending:  "Pending request",
	ErrRequest:  "Invalid MPI_Request",
}

// ErrorString mirrors MPI_Error_string.
func ErrorString(code int) string {
	switch code {
	case ErrProcFailed:
		return "Process failed"
	case ErrRevoked:
		return "Communicator revoked"
	}
	if code >= 0 && code < errCodeCount {
		return errStrings[code]
	}
	return "Unknown error code"
}
