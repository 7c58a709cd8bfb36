package abi

import (
	"encoding/binary"
	"math"
)

// Typed buffer helpers. MPI's C interface traffics in void* buffers; the Go
// analog is []byte plus a datatype handle. These helpers convert between Go
// slices and wire buffers so applications and tests stay readable. All
// encodings are little-endian, the ABI's declared byte order.

// PutFloat64s encodes vs into dst, which must hold 8*len(vs) bytes.
func PutFloat64s(dst []byte, vs []float64) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

// GetFloat64s decodes len(out) float64s from src into out.
func GetFloat64s(src []byte, out []float64) {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// Float64Bytes allocates and encodes a fresh buffer for vs.
//
//mpivet:allow deadexport -- test-facing: the mpich, mukautuva, wi4mpi and abi tests and the stack transcript build float64 payloads with it
func Float64Bytes(vs []float64) []byte {
	b := make([]byte, 8*len(vs))
	PutFloat64s(b, vs)
	return b
}

// Float64sOf decodes the whole buffer as float64s.
//
//mpivet:allow deadexport -- test-facing: the mpich, openmpi, mukautuva, wi4mpi and abi tests read float64 results with it
func Float64sOf(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	GetFloat64s(b, out)
	return out
}

// PutInt64s encodes vs into dst, which must hold 8*len(vs) bytes.
func PutInt64s(dst []byte, vs []int64) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[i*8:], uint64(v))
	}
}

// GetInt64s decodes len(out) int64s from src into out.
func GetInt64s(src []byte, out []int64) {
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// Int64Bytes allocates and encodes a fresh buffer for vs.
func Int64Bytes(vs []int64) []byte {
	b := make([]byte, 8*len(vs))
	PutInt64s(b, vs)
	return b
}

// Int64sOf decodes the whole buffer as int64s.
func Int64sOf(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	GetInt64s(b, out)
	return out
}

// PutInt32s encodes vs into dst, which must hold 4*len(vs) bytes.
func PutInt32s(dst []byte, vs []int32) {
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[i*4:], uint32(v))
	}
}

// GetInt32s decodes len(out) int32s from src into out.
func GetInt32s(src []byte, out []int32) {
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(src[i*4:]))
	}
}

// Int32Bytes allocates and encodes a fresh buffer for vs.
//
//mpivet:allow deadexport -- test-facing: the mpich, openmpi and abi tests and the stack transcript build int32 payloads with it
func Int32Bytes(vs []int32) []byte {
	b := make([]byte, 4*len(vs))
	PutInt32s(b, vs)
	return b
}

// Int32sOf decodes the whole buffer as int32s.
//
//mpivet:allow deadexport -- test-facing: the mpich, openmpi and abi tests read int32 results with it
func Int32sOf(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	GetInt32s(b, out)
	return out
}
