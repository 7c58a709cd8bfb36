package abi

import (
	"fmt"
	"math/bits"

	"repro/internal/ops"
	"repro/internal/types"
)

// Standard ABI integer constants. The values deliberately differ from both
// simulated implementations' native values in at least one direction
// (MPICH uses ANY_SOURCE=-2, the simulated Open MPI uses PROC_NULL=-3), so
// the translation layers cannot get away with passing integers through.
const (
	AnySource = -1      // wildcard source rank
	AnyTag    = -1      // wildcard tag
	ProcNull  = -2      // null peer: operations complete immediately
	Root      = -4      // special root value for intercommunicators
	Undefined = -32766  // MPI_UNDEFINED
	TagUB     = 1 << 22 // largest valid tag
)

// TypeHandle returns the predefined standard handle for a primitive kind.
// Following the ABI working group's encoding, the handle embeds the
// datatype's size: payload = kind<<8 | log2ceil(size), so a compliant
// library can answer MPI_Type_size for predefined types without a lookup.
func TypeHandle(k types.Kind) Handle {
	if !k.Valid() {
		panic(fmt.Sprintf("abi: no type handle for kind %v", k))
	}
	sz := k.Size()
	log2 := uint64(bits.Len(uint(sz - 1)))
	return MakeHandle(ClassType, uint64(k)<<8|log2)
}

// OpHandle returns the predefined standard handle for a reduction operator.
func OpHandle(op ops.Op) Handle {
	if !op.Valid() {
		panic(fmt.Sprintf("abi: no op handle for %v", op))
	}
	return MakeHandle(ClassOp, uint64(op))
}

// Predefined datatype handles, one per primitive kind.
var (
	TypeByte         = TypeHandle(types.KindByte)
	TypeInt8         = TypeHandle(types.KindInt8)
	TypeUint8        = TypeHandle(types.KindUint8)
	TypeInt16        = TypeHandle(types.KindInt16)
	TypeUint16       = TypeHandle(types.KindUint16)
	TypeInt32        = TypeHandle(types.KindInt32)
	TypeUint32       = TypeHandle(types.KindUint32)
	TypeInt64        = TypeHandle(types.KindInt64)
	TypeUint64       = TypeHandle(types.KindUint64)
	TypeFloat32      = TypeHandle(types.KindFloat32)
	TypeFloat64      = TypeHandle(types.KindFloat64)
	TypeComplex64    = TypeHandle(types.KindComplex64)
	TypeComplex128   = TypeHandle(types.KindComplex128)
	TypeBool         = TypeHandle(types.KindBool)
	TypeFloat32Int32 = TypeHandle(types.KindFloat32Int32)
	TypeFloat64Int32 = TypeHandle(types.KindFloat64Int32)
	TypeInt32Int32   = TypeHandle(types.KindInt32Int32)
)

// Predefined operator handles.
var (
	OpSum    = OpHandle(ops.OpSum)
	OpProd   = OpHandle(ops.OpProd)
	OpMax    = OpHandle(ops.OpMax)
	OpMin    = OpHandle(ops.OpMin)
	OpLAnd   = OpHandle(ops.OpLAnd)
	OpLOr    = OpHandle(ops.OpLOr)
	OpLXor   = OpHandle(ops.OpLXor)
	OpBAnd   = OpHandle(ops.OpBAnd)
	OpBOr    = OpHandle(ops.OpBOr)
	OpBXor   = OpHandle(ops.OpBXor)
	OpMaxLoc = OpHandle(ops.OpMaxLoc)
	OpMinLoc = OpHandle(ops.OpMinLoc)
)
