// Package ops implements MPI reduction operators over raw buffers. Both
// simulated MPI implementations delegate the arithmetic here while keeping
// their own operator handle representations, exactly as both MPICH and
// Open MPI implement the same MPI_SUM semantics behind different handles
// — the handle-vs-semantics split that the paper's standard ABI (Section
// 4.1) formalizes. The MPI_Allreduce sweeps of Figure 4 and the Figure 5
// applications' energy reductions execute through these operators.
//
// In the README's layer diagram ops is part of the shared-runtime row:
// "the math" mpicore's reduction collectives call into.
package ops

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"unsafe"

	"repro/internal/types"
)

// Op identifies a predefined reduction operator.
type Op uint8

// Predefined operators.
const (
	OpNull Op = iota
	OpSum
	OpProd
	OpMax
	OpMin
	OpLAnd
	OpLOr
	OpLXor
	OpBAnd
	OpBOr
	OpBXor
	OpMaxLoc
	OpMinLoc
	opMax // sentinel
)

var opNames = [...]string{
	OpNull: "NULL", OpSum: "SUM", OpProd: "PROD", OpMax: "MAX", OpMin: "MIN",
	OpLAnd: "LAND", OpLOr: "LOR", OpLXor: "LXOR", OpBAnd: "BAND", OpBOr: "BOR",
	OpBXor: "BXOR", OpMaxLoc: "MAXLOC", OpMinLoc: "MINLOC",
}

// Valid reports whether op names a real predefined operator.
func (op Op) Valid() bool { return op > OpNull && op < opMax }

// String returns the operator's MPI-style name.
func (op Op) String() string {
	if op >= opMax {
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
	return opNames[op]
}

// Commutative reports whether the operator is commutative. All predefined
// MPI operators are; user-defined operators declare it at registration.
func (op Op) Commutative() bool { return op.Valid() }

// Ops returns every valid predefined operator, for exhaustive tests.
func Ops() []Op {
	out := make([]Op, 0, int(opMax)-1)
	for op := OpNull + 1; op < opMax; op++ {
		out = append(out, op)
	}
	return out
}

type kindClass uint8

const (
	classInt kindClass = iota
	classUint
	classFloat
	classComplex
	classPair
	classBool
)

func classOf(k types.Kind) kindClass {
	switch k {
	case types.KindInt8, types.KindInt16, types.KindInt32, types.KindInt64:
		return classInt
	case types.KindByte, types.KindUint8, types.KindUint16, types.KindUint32, types.KindUint64:
		return classUint
	case types.KindFloat32, types.KindFloat64:
		return classFloat
	case types.KindComplex64, types.KindComplex128:
		return classComplex
	case types.KindFloat32Int32, types.KindFloat64Int32, types.KindInt32Int32:
		return classPair
	case types.KindBool:
		return classBool
	}
	return classBool
}

// Compatible reports whether op is defined on primitive kind k, mirroring
// the MPI standard's operator/type compatibility table.
func Compatible(op Op, k types.Kind) bool {
	if !op.Valid() || !k.Valid() {
		return false
	}
	switch classOf(k) {
	case classInt, classUint:
		switch op {
		case OpSum, OpProd, OpMax, OpMin, OpLAnd, OpLOr, OpLXor, OpBAnd, OpBOr, OpBXor:
			return true
		}
	case classFloat:
		switch op {
		case OpSum, OpProd, OpMax, OpMin:
			return true
		}
	case classComplex:
		switch op {
		case OpSum, OpProd:
			return true
		}
	case classPair:
		return op == OpMaxLoc || op == OpMinLoc
	case classBool:
		switch op {
		case OpLAnd, OpLOr, OpLXor, OpBAnd, OpBOr, OpBXor, OpMax, OpMin, OpSum, OpProd:
			return k == types.KindBool && (op == OpLAnd || op == OpLOr || op == OpLXor)
		}
	}
	return false
}

// Apply folds in into acc elementwise: acc[i] = acc[i] OP in[i]. Both
// buffers must hold count elements of kind k, packed contiguously
// (little-endian). The pair is validated and the kernel selected once per
// call; each kernel is then one typed loop with no per-element dispatch.
// apply_oracle_test.go keeps the element-at-a-time reference the kernels
// must match bit for bit.
func Apply(op Op, k types.Kind, acc, in []byte, count int) error {
	if !Compatible(op, k) {
		return fmt.Errorf("ops: operator %v undefined on %v", op, k)
	}
	if count < 0 {
		return fmt.Errorf("ops: negative count %d", count)
	}
	n := count * k.Size()
	if len(acc) < n || len(in) < n {
		return fmt.Errorf("ops: buffers too short for %d x %v (acc=%d in=%d)",
			count, k, len(acc), len(in))
	}
	acc, in = acc[:n], in[:n]
	switch k {
	case types.KindInt8:
		foldBytes[int8](op, acc, in)
	case types.KindInt16:
		foldInts[int16](op, acc, in)
	case types.KindInt32:
		foldInts[int32](op, acc, in)
	case types.KindInt64:
		foldInts[int64](op, acc, in)
	case types.KindByte, types.KindUint8, types.KindBool:
		// Bool takes only LAND/LOR/LXOR (Compatible), which normalise
		// both operands to 0/1 on any integer.
		foldBytes[uint8](op, acc, in)
	case types.KindUint16:
		foldInts[uint16](op, acc, in)
	case types.KindUint32:
		foldInts[uint32](op, acc, in)
	case types.KindUint64:
		foldInts[uint64](op, acc, in)
	case types.KindFloat32:
		foldFloats[float32](op, acc, in)
	case types.KindFloat64:
		foldFloats[float64](op, acc, in)
	case types.KindComplex64:
		foldComplex[float32](op, acc, in)
	case types.KindComplex128:
		foldComplex[float64](op, acc, in)
	case types.KindFloat32Int32:
		foldLocs(op, acc, in, 4, loadF[float32])
	case types.KindFloat64Int32:
		foldLocs(op, acc, in, 8, loadF[float64])
	case types.KindInt32Int32:
		foldLocs(op, acc, in, 4, func(b []byte) float64 { return float64(loadI[int32](b)) })
	}
	return nil
}

var le = binary.LittleEndian

type (
	narrow interface{ int8 | uint8 }
	wide   interface {
		int16 | int32 | int64 | uint16 | uint32 | uint64
	}
	integer interface{ narrow | wide }
	float   interface{ float32 | float64 }
)

// loadI/storeI and loadF/storeF move one little-endian element. Each
// instantiation has one element width, so the width switch is resolved
// at compile time, not per element.
func loadI[T wide](b []byte) T {
	switch unsafe.Sizeof(T(0)) {
	case 2:
		return T(le.Uint16(b))
	case 4:
		return T(le.Uint32(b))
	}
	return T(le.Uint64(b))
}

func storeI[T wide](b []byte, v T) {
	switch unsafe.Sizeof(v) {
	case 2:
		le.PutUint16(b, uint16(v))
	case 4:
		le.PutUint32(b, uint32(v))
	default:
		le.PutUint64(b, uint64(v))
	}
}

func loadF[T float](b []byte) float64 {
	if unsafe.Sizeof(T(0)) == 4 {
		return float64(math.Float32frombits(le.Uint32(b)))
	}
	return math.Float64frombits(le.Uint64(b))
}

func storeF[T float](b []byte, v float64) {
	if unsafe.Sizeof(T(0)) == 4 {
		le.PutUint32(b, math.Float32bits(float32(v)))
	} else {
		le.PutUint64(b, math.Float64bits(v))
	}
}

// foldInts is the kernel table of the multi-byte integers: one loop per
// operator, the width and signedness fixed by T. acc and in have equal
// lengths, a whole number of elements. Arithmetic wraps at T's width.
func foldInts[T wide](op Op, acc, in []byte) {
	sz := int(unsafe.Sizeof(T(0)))
	switch op {
	case OpSum:
		for i := 0; i <= len(acc)-sz; i += sz {
			p, q := acc[i:i+sz:i+sz], in[i:i+sz:i+sz]
			a, b := loadI[T](p), loadI[T](q)
			storeI(p, a+b)
		}
	case OpProd:
		for i := 0; i <= len(acc)-sz; i += sz {
			p, q := acc[i:i+sz:i+sz], in[i:i+sz:i+sz]
			a, b := loadI[T](p), loadI[T](q)
			storeI(p, a*b)
		}
	case OpMax:
		for i := 0; i <= len(acc)-sz; i += sz {
			p, q := acc[i:i+sz:i+sz], in[i:i+sz:i+sz]
			a, b := loadI[T](p), loadI[T](q)
			storeI(p, max(a, b))
		}
	case OpMin:
		for i := 0; i <= len(acc)-sz; i += sz {
			p, q := acc[i:i+sz:i+sz], in[i:i+sz:i+sz]
			a, b := loadI[T](p), loadI[T](q)
			storeI(p, min(a, b))
		}
	case OpLAnd:
		for i := 0; i <= len(acc)-sz; i += sz {
			p, q := acc[i:i+sz:i+sz], in[i:i+sz:i+sz]
			a, b := loadI[T](p), loadI[T](q)
			storeI(p, b2i[T](a != 0 && b != 0))
		}
	case OpLOr:
		for i := 0; i <= len(acc)-sz; i += sz {
			p, q := acc[i:i+sz:i+sz], in[i:i+sz:i+sz]
			a, b := loadI[T](p), loadI[T](q)
			storeI(p, b2i[T](a != 0 || b != 0))
		}
	case OpLXor:
		for i := 0; i <= len(acc)-sz; i += sz {
			p, q := acc[i:i+sz:i+sz], in[i:i+sz:i+sz]
			a, b := loadI[T](p), loadI[T](q)
			storeI(p, b2i[T]((a != 0) != (b != 0)))
		}
	case OpBAnd:
		for i := 0; i <= len(acc)-sz; i += sz {
			p, q := acc[i:i+sz:i+sz], in[i:i+sz:i+sz]
			a, b := loadI[T](p), loadI[T](q)
			storeI(p, a&b)
		}
	case OpBOr:
		for i := 0; i <= len(acc)-sz; i += sz {
			p, q := acc[i:i+sz:i+sz], in[i:i+sz:i+sz]
			a, b := loadI[T](p), loadI[T](q)
			storeI(p, a|b)
		}
	case OpBXor:
		for i := 0; i <= len(acc)-sz; i += sz {
			p, q := acc[i:i+sz:i+sz], in[i:i+sz:i+sz]
			a, b := loadI[T](p), loadI[T](q)
			storeI(p, a^b)
		}
	}
}

// foldBytes is foldInts for the one-byte integers, whose packed form is
// the []byte itself: no decode, and the loops the MPI_BYTE reductions of
// the OSU sweeps spend their time in. SUM, the OSU allreduce's op, adds
// 16 bytes per step in sumWords and only the tail it leaves byte by
// byte; every other op is a byte loop throughout.
func foldBytes[T narrow](op Op, acc, in []byte) {
	switch op {
	case OpSum:
		for i := sumWords(acc, in); i < len(acc); i++ {
			a, b := T(acc[i]), T(in[i])
			acc[i] = byte(a + b)
		}
	case OpProd:
		for i := range acc {
			a, b := T(acc[i]), T(in[i])
			acc[i] = byte(a * b)
		}
	case OpMax:
		for i := range acc {
			a, b := T(acc[i]), T(in[i])
			acc[i] = byte(max(a, b))
		}
	case OpMin:
		for i := range acc {
			a, b := T(acc[i]), T(in[i])
			acc[i] = byte(min(a, b))
		}
	case OpLAnd:
		for i := range acc {
			a, b := T(acc[i]), T(in[i])
			acc[i] = byte(b2i[T](a != 0 && b != 0))
		}
	case OpLOr:
		for i := range acc {
			a, b := T(acc[i]), T(in[i])
			acc[i] = byte(b2i[T](a != 0 || b != 0))
		}
	case OpLXor:
		for i := range acc {
			a, b := T(acc[i]), T(in[i])
			acc[i] = byte(b2i[T]((a != 0) != (b != 0)))
		}
	case OpBAnd:
		for i := range acc {
			a, b := T(acc[i]), T(in[i])
			acc[i] = byte(a & b)
		}
	case OpBOr:
		for i := range acc {
			a, b := T(acc[i]), T(in[i])
			acc[i] = byte(a | b)
		}
	case OpBXor:
		for i := range acc {
			a, b := T(acc[i]), T(in[i])
			acc[i] = byte(a ^ b)
		}
	}
}

// hiBits is the top bit of every byte lane of a uint64.
const hiBits = 0x8080808080808080

// sumWords adds in into acc over the longest multiple of 16 bytes, as
// two independent little-endian uint64 words per step, and returns how
// many bytes it added. It adds the low seven bits of each byte lane, whose
// sum (at most 0xfe) cannot carry into the next lane, then sets each top
// bit to a7^b7^carry-in with one XOR: exact addition mod 256 in every
// lane, the same bytes for int8 as for uint8.
func sumWords(acc, in []byte) int {
	n := len(acc) &^ 15
	for i := 0; i < n; i += 16 {
		p, q := acc[i:i+16:i+16], in[i:i+16:i+16]
		a0, b0, a1, b1 := le.Uint64(p), le.Uint64(q), le.Uint64(p[8:]), le.Uint64(q[8:])
		le.PutUint64(p, ((a0&^hiBits)+(b0&^hiBits))^((a0^b0)&hiBits))
		le.PutUint64(p[8:], ((a1&^hiBits)+(b1&^hiBits))^((a1^b1)&hiBits))
	}
	return n
}

// foldFloats is the float kernel table. Elements are folded in float64
// and rounded back on store — exact for float32 SUM and PROD (double
// rounding is innocuous at 53 >= 2*24+2 bits), and what gives MAX and MIN
// math.Max's and math.Min's NaN and signed-zero rules on both widths.
func foldFloats[T float](op Op, acc, in []byte) {
	sz := int(unsafe.Sizeof(T(0)))
	switch op {
	case OpSum:
		for i := 0; i <= len(acc)-sz; i += sz {
			p, q := acc[i:i+sz:i+sz], in[i:i+sz:i+sz]
			a, b := loadF[T](p), loadF[T](q)
			storeF[T](p, a+b)
		}
	case OpProd:
		for i := 0; i <= len(acc)-sz; i += sz {
			p, q := acc[i:i+sz:i+sz], in[i:i+sz:i+sz]
			a, b := loadF[T](p), loadF[T](q)
			storeF[T](p, a*b)
		}
	case OpMax:
		for i := 0; i <= len(acc)-sz; i += sz {
			p, q := acc[i:i+sz:i+sz], in[i:i+sz:i+sz]
			a, b := loadF[T](p), loadF[T](q)
			storeF[T](p, math.Max(a, b))
		}
	case OpMin:
		for i := 0; i <= len(acc)-sz; i += sz {
			p, q := acc[i:i+sz:i+sz], in[i:i+sz:i+sz]
			a, b := loadF[T](p), loadF[T](q)
			storeF[T](p, math.Min(a, b))
		}
	}
}

// foldComplex folds (re, im) pairs of T in complex128, so a complex64
// product rounds once per component from the exact float64 terms.
func foldComplex[T float](op Op, acc, in []byte) {
	sz := int(unsafe.Sizeof(T(0)))
	switch op {
	case OpSum:
		for i := 0; i+2*sz <= len(acc); i += 2 * sz {
			a := complex(loadF[T](acc[i:]), loadF[T](acc[i+sz:]))
			b := complex(loadF[T](in[i:]), loadF[T](in[i+sz:]))
			c := a + b
			storeF[T](acc[i:], real(c))
			storeF[T](acc[i+sz:], imag(c))
		}
	case OpProd:
		for i := 0; i+2*sz <= len(acc); i += 2 * sz {
			a := complex(loadF[T](acc[i:]), loadF[T](acc[i+sz:]))
			b := complex(loadF[T](in[i:]), loadF[T](in[i+sz:]))
			c := a * b
			storeF[T](acc[i:], real(c))
			storeF[T](acc[i+sz:], imag(c))
		}
	}
}

// foldLocs is MAXLOC/MINLOC over (value, int32 index) pairs whose value
// is valSz bytes wide and decoded by val: b's pair replaces a's when its
// value wins, ties broken by the smaller index, per the standard. Values
// compare as float64, which is exact for all three pair kinds; a NaN
// never wins and is never beaten.
func foldLocs(op Op, acc, in []byte, valSz int, val func([]byte) float64) {
	minloc := op == OpMinLoc
	sz := valSz + 4
	for i := 0; i+sz <= len(acc); i += sz {
		a, b := acc[i:i+sz], in[i:i+sz]
		av, bv := val(a), val(b)
		if minloc {
			av, bv = bv, av
		}
		if bv > av || bv == av && loadI[int32](b[valSz:]) < loadI[int32](a[valSz:]) {
			copy(a, b)
		}
	}
}

func b2i[T integer](b bool) T {
	if b {
		return 1
	}
	return 0
}

// UserFn is a user-defined reduction function: fold in into acc, both
// holding count contiguous elements of kind k.
type UserFn func(acc, in []byte, k types.Kind, count int)

// userReg is the global registry of user-defined operators. Registration by
// name makes user ops survive checkpoint/restart: the image records the
// name, restart looks the function up again (function values themselves
// cannot be serialized).
var userReg = struct {
	sync.RWMutex
	m map[string]userOp
}{m: make(map[string]userOp)}

type userOp struct {
	fn      UserFn
	commute bool
}

// RegisterUser registers (or replaces) a named user-defined operator.
//
//mpivet:allow deadexport -- test-facing: the user reductions OpCreate resolves by name, which the stack transcript and the ops and MANA tests register
func RegisterUser(name string, commute bool, fn UserFn) error {
	if name == "" || fn == nil {
		return fmt.Errorf("ops: user op needs a name and a function")
	}
	userReg.Lock()
	defer userReg.Unlock()
	userReg.m[name] = userOp{fn: fn, commute: commute}
	return nil
}

// LookupUser returns the registered user operator.
func LookupUser(name string) (UserFn, bool, error) {
	userReg.RLock()
	defer userReg.RUnlock()
	u, ok := userReg.m[name]
	if !ok {
		return nil, false, fmt.Errorf("ops: user op %q not registered", name)
	}
	return u.fn, u.commute, nil
}
