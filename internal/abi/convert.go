package abi

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"reflect"
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

// Gob images: how a checkpoint encodes the state it does not stream as raw
// blocks. An image must decode with no other image at hand, so each one
// carries the type descriptors a fresh gob.Encoder sends ahead of its first
// value. Those bytes depend on the type alone (unless an interface is
// reachable, whose concrete types arrive with the values), so WriteGob
// derives them once per type: a primed encoder has encoded the type's zero
// value, and so has sent them, and every later Encode on it writes the
// value's message alone, behind the descriptors kept from priming.
type gobPrimed struct {
	prefix []byte // the descriptors a fresh encoder writes first
	enc    *gob.Encoder
	out    bytes.Buffer // enc writes here
}

// gobType is one type's free list of primed encoders. fixed is false when
// the descriptors depend on the value; such a type is never primed.
type gobType struct {
	fixed bool
	mu    sync.Mutex
	free  []*gobPrimed
}

// gobFreeMax bounds each type's free list: enough for every image encoded
// at once, on a host with that many cores, to find a primed encoder.
const gobFreeMax = 8

var gobTypes sync.Map // reflect.Type -> *gobType

// WriteGob writes to w exactly the bytes gob.NewEncoder(w).Encode(v) writes,
// so what it writes decodes with a fresh gob.Decoder, by itself. If v
// cannot be encoded it returns Encode's error.
func WriteGob(w io.Writer, v any) error {
	rt := reflect.TypeOf(v)
	gt, ok := gobTypes.Load(rt)
	if !ok {
		gt, _ = gobTypes.LoadOrStore(rt, &gobType{fixed: v != nil && gobFixed(rt, map[reflect.Type]bool{})})
	}
	typ := gt.(*gobType)
	p := typ.get(rt)
	if p == nil {
		// Nothing to derive once: the descriptors depend on the value, or
		// gob cannot encode the type's zero value.
		return gob.NewEncoder(w).Encode(v)
	}
	if err := p.enc.Encode(v); err != nil {
		return err // p may hold part of a message: drop it
	}
	_, err := w.Write(p.prefix)
	if err == nil {
		_, err = w.Write(p.out.Bytes())
	}
	p.out.Reset()
	typ.mu.Lock()
	if len(typ.free) < gobFreeMax {
		typ.free = append(typ.free, p)
	}
	typ.mu.Unlock()
	return err
}

// get takes a primed encoder off the free list, or primes a new one.
func (typ *gobType) get(rt reflect.Type) *gobPrimed {
	if !typ.fixed {
		return nil
	}
	typ.mu.Lock()
	if n := len(typ.free); n > 0 {
		p := typ.free[n-1]
		typ.free = typ.free[:n-1]
		typ.mu.Unlock()
		return p
	}
	typ.mu.Unlock()
	p, err := primeGob(rt)
	if err != nil {
		return nil
	}
	return p
}

// primeGob returns an encoder that has sent rt's descriptors, and those
// descriptors: the first encoding of the zero value minus the second.
func primeGob(rt reflect.Type) (*gobPrimed, error) {
	p := &gobPrimed{}
	p.enc = gob.NewEncoder(&p.out)
	zero := gobZero(rt)
	if err := p.enc.EncodeValue(zero); err != nil {
		return nil, err
	}
	first := p.out.Len()
	if err := p.enc.EncodeValue(zero); err != nil {
		return nil, err
	}
	all := p.out.Bytes()
	msg := all[first:]
	if !bytes.HasSuffix(all[:first], msg) {
		return nil, fmt.Errorf("abi: gob encodes %v's zero value differently the second time", rt)
	}
	p.prefix = bytes.Clone(all[:first-len(msg)])
	p.out.Reset()
	return p, nil
}

// gobZero is rt's zero value, with each pointer level allocated: gob
// refuses a nil pointer at top level.
func gobZero(rt reflect.Type) reflect.Value {
	if rt.Kind() != reflect.Pointer {
		return reflect.Zero(rt)
	}
	p := reflect.New(rt.Elem())
	p.Elem().Set(gobZero(rt.Elem()))
	return p
}

// gobFixed reports whether gob's descriptors for rt are the same for every
// value: no interface is reachable through what gob encodes of it.
func gobFixed(rt reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[rt] {
		return true
	}
	seen[rt] = true
	switch rt.Kind() {
	case reflect.Interface:
		return false
	case reflect.Pointer, reflect.Array, reflect.Slice:
		return gobFixed(rt.Elem(), seen)
	case reflect.Map:
		return gobFixed(rt.Key(), seen) && gobFixed(rt.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < rt.NumField(); i++ {
			if f := rt.Field(i); f.IsExported() && !gobFixed(f.Type, seen) {
				return false
			}
		}
	}
	return true
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
