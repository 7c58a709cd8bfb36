package abi

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
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
func Float64Bytes(vs []float64) []byte {
	b := make([]byte, 8*len(vs))
	PutFloat64s(b, vs)
	return b
}

// Float64sOf decodes the whole buffer as float64s.
func Float64sOf(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	GetFloat64s(b, out)
	return out
}

// Raw float64 blocks: how a program whose state is dominated by numeric
// arrays streams them into a checkpoint image (core.Program's optional
// CheckpointTo/RestoreFrom pair). A block is an 8-byte little-endian byte
// length followed by that many bytes of PutFloat64s output; nilBlock in the
// length slot stands for a nil slice, so nil and empty survive distinctly.
// Every bit pattern — NaN payloads, signed zeros, subnormals — round-trips.
const nilBlock = ^uint64(0)

// blockChunks pools the staging buffer both directions convert through,
// so a block costs no allocation proportional to the array.
var blockChunks = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// WriteFloat64s writes vs to w as one raw block.
func WriteFloat64s(w io.Writer, vs []float64) error {
	chunk := blockChunks.Get().(*[32 << 10]byte)
	defer blockChunks.Put(chunk)
	n := uint64(len(vs)) * 8
	if vs == nil {
		n = nilBlock
	}
	binary.LittleEndian.PutUint64(chunk[:], n)
	if _, err := w.Write(chunk[:8]); err != nil {
		return err
	}
	for len(vs) > 0 {
		c := min(len(vs), len(chunk)/8)
		PutFloat64s(chunk[:], vs[:c])
		if _, err := w.Write(chunk[:c*8]); err != nil {
			return err
		}
		vs = vs[c:]
	}
	return nil
}

// ReadFloat64s reads one block written by WriteFloat64s. The result grows
// with the bytes actually read rather than with the declared length, so a
// hostile header cannot make it allocate more than the stream holds.
func ReadFloat64s(r io.Reader) ([]float64, error) {
	chunk := blockChunks.Get().(*[32 << 10]byte)
	defer blockChunks.Put(chunk)
	if _, err := io.ReadFull(r, chunk[:8]); err != nil {
		return nil, fmt.Errorf("abi: reading float64 block length: %w", err)
	}
	n := binary.LittleEndian.Uint64(chunk[:])
	if n == nilBlock {
		return nil, nil
	}
	if n%8 != 0 {
		return nil, fmt.Errorf("abi: float64 block of %d bytes is not a multiple of 8", n)
	}
	out := make([]float64, 0, min(n/8, uint64(len(chunk)/8)))
	for left := n / 8; left > 0; {
		c := int(min(left, uint64(len(chunk)/8)))
		if _, err := io.ReadFull(r, chunk[:c*8]); err != nil {
			return nil, fmt.Errorf("abi: float64 block declares %d bytes but the stream ends early: %w", n, err)
		}
		out = append(out, make([]float64, c)...)
		GetFloat64s(chunk[:], out[len(out)-c:])
		left -= uint64(c)
	}
	return out, nil
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
func Int32Bytes(vs []int32) []byte {
	b := make([]byte, 4*len(vs))
	PutInt32s(b, vs)
	return b
}

// Int32sOf decodes the whole buffer as int32s.
func Int32sOf(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	GetInt32s(b, out)
	return out
}
