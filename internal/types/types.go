// Package types implements the MPI datatype engine shared (as "the math")
// by both simulated MPI implementations: primitive kinds, derived type
// constructors (contiguous, vector, indexed, struct), commit-time
// flattening, and the pack/unpack machinery used by point-to-point
// transfers, collectives and reductions.
//
// Each MPI implementation wraps these types in its own handle
// representation (integer-encoded handles in internal/mpich, pointers in
// internal/openmpi); the engine itself is representation-agnostic. That
// split mirrors Section 4.1 of the paper: datatype *semantics* are common
// to every implementation, while datatype *handles* are part of the
// incompatible ABIs the standard ABI papers over.
//
// In the README's layer diagram the datatype engine is part of the
// shared-runtime row, next to internal/ops.
package types

import (
	"errors"
	"fmt"
)

// Kind identifies a primitive datatype, including the MINLOC/MAXLOC pair
// kinds, which MPI treats as predefined.
type Kind uint8

// Primitive kinds.
const (
	KindInvalid Kind = iota
	KindByte
	KindInt8
	KindUint8
	KindInt16
	KindUint16
	KindInt32
	KindUint32
	KindInt64
	KindUint64
	KindFloat32
	KindFloat64
	KindComplex64
	KindComplex128
	KindBool
	// Pair kinds for MINLOC/MAXLOC reductions.
	KindFloat32Int32
	KindFloat64Int32
	KindInt32Int32
	kindMax // sentinel
)

var kindSizes = [...]int{
	KindInvalid:      0,
	KindByte:         1,
	KindInt8:         1,
	KindUint8:        1,
	KindInt16:        2,
	KindUint16:       2,
	KindInt32:        4,
	KindUint32:       4,
	KindInt64:        8,
	KindUint64:       8,
	KindFloat32:      4,
	KindFloat64:      8,
	KindComplex64:    8,
	KindComplex128:   16,
	KindBool:         1,
	KindFloat32Int32: 8,
	KindFloat64Int32: 12,
	KindInt32Int32:   8,
}

var kindNames = [...]string{
	KindInvalid:      "INVALID",
	KindByte:         "BYTE",
	KindInt8:         "INT8",
	KindUint8:        "UINT8",
	KindInt16:        "INT16",
	KindUint16:       "UINT16",
	KindInt32:        "INT32",
	KindUint32:       "UINT32",
	KindInt64:        "INT64",
	KindUint64:       "UINT64",
	KindFloat32:      "FLOAT32",
	KindFloat64:      "FLOAT64",
	KindComplex64:    "COMPLEX64",
	KindComplex128:   "COMPLEX128",
	KindBool:         "BOOL",
	KindFloat32Int32: "FLOAT32_INT32",
	KindFloat64Int32: "FLOAT64_INT32",
	KindInt32Int32:   "INT32_INT32",
}

// Valid reports whether k names a real primitive kind.
func (k Kind) Valid() bool { return k > KindInvalid && k < kindMax }

// Size returns the primitive's size in bytes.
func (k Kind) Size() int {
	if !k.Valid() {
		return 0
	}
	return kindSizes[k]
}

// String returns the kind's name.
func (k Kind) String() string {
	if !k.Valid() {
		return "INVALID"
	}
	return kindNames[k]
}

// Kinds returns all valid primitive kinds, useful for exhaustive tests.
func Kinds() []Kind {
	out := make([]Kind, 0, int(kindMax)-1)
	for k := KindInvalid + 1; k < kindMax; k++ {
		out = append(out, k)
	}
	return out
}

type nodeKind uint8

const (
	nodePrimitive nodeKind = iota
	nodeContiguous
	nodeVector
	nodeIndexed
	nodeStruct
)

// seg is one contiguous byte range of an element, relative to its start.
type seg struct {
	off, len int
}

// Type is an MPI datatype: either a primitive or a derived layout over
// other types. Types are immutable after Commit.
type Type struct {
	node nodeKind
	prim Kind

	// Derived parameters.
	count, blocklen, stride int // contiguous/vector (stride in elements)
	blocklens, displs       []int
	children                []*Type

	committed bool
	size      int // bytes of actual data per element
	extent    int // span from first to one past last byte, incl. holes
	segs      []seg
}

var errNotCommitted = errors.New("types: datatype not committed")

// Predefined returns the shared committed Type for a primitive kind.
func Predefined(k Kind) *Type {
	if !k.Valid() {
		panic(fmt.Sprintf("types: invalid kind %d", k))
	}
	return predefined[k]
}

var predefined [kindMax]*Type

func init() {
	for k := KindInvalid + 1; k < kindMax; k++ {
		t := &Type{node: nodePrimitive, prim: k}
		if err := t.Commit(); err != nil {
			panic(err)
		}
		predefined[k] = t
	}
}

// Contiguous returns a type of count consecutive elements of inner.
func Contiguous(count int, inner *Type) (*Type, error) {
	if count < 0 {
		return nil, fmt.Errorf("types: contiguous count %d < 0", count)
	}
	if inner == nil {
		return nil, errors.New("types: contiguous inner type is nil")
	}
	return &Type{node: nodeContiguous, count: count, children: []*Type{inner}}, nil
}

// Vector returns count blocks of blocklen elements of inner, with block
// starts stride elements apart (stride measured in inner extents, as in
// MPI_Type_vector).
func Vector(count, blocklen, stride int, inner *Type) (*Type, error) {
	if count < 0 || blocklen < 0 {
		return nil, fmt.Errorf("types: vector count=%d blocklen=%d must be >= 0", count, blocklen)
	}
	if inner == nil {
		return nil, errors.New("types: vector inner type is nil")
	}
	if count > 1 && stride < blocklen {
		return nil, fmt.Errorf("types: vector stride %d < blocklen %d would overlap", stride, blocklen)
	}
	return &Type{node: nodeVector, count: count, blocklen: blocklen, stride: stride,
		children: []*Type{inner}}, nil
}

// Indexed returns blocks of blocklens[i] elements at element displacements
// displs[i] (as in MPI_Type_indexed). Displacements must be non-decreasing
// and non-overlapping.
func Indexed(blocklens, displs []int, inner *Type) (*Type, error) {
	if len(blocklens) != len(displs) {
		return nil, fmt.Errorf("types: indexed blocklens/displs length mismatch %d != %d",
			len(blocklens), len(displs))
	}
	if inner == nil {
		return nil, errors.New("types: indexed inner type is nil")
	}
	end := 0
	for i := range blocklens {
		if blocklens[i] < 0 {
			return nil, fmt.Errorf("types: indexed blocklen[%d] = %d < 0", i, blocklens[i])
		}
		if displs[i] < end {
			return nil, fmt.Errorf("types: indexed block %d at displ %d overlaps previous end %d",
				i, displs[i], end)
		}
		end = displs[i] + blocklens[i]
	}
	return &Type{node: nodeIndexed, blocklens: append([]int(nil), blocklens...),
		displs: append([]int(nil), displs...), children: []*Type{inner}}, nil
}

// Struct returns a type with blocklens[i] elements of typs[i] at byte
// displacement displs[i] (as in MPI_Type_create_struct). Blocks must be
// non-overlapping and in increasing displacement order.
func Struct(blocklens, displs []int, typs []*Type) (*Type, error) {
	if len(blocklens) != len(displs) || len(blocklens) != len(typs) {
		return nil, errors.New("types: struct argument lengths mismatch")
	}
	end := 0
	for i := range typs {
		if typs[i] == nil {
			return nil, fmt.Errorf("types: struct type %d is nil", i)
		}
		if !typs[i].committed {
			return nil, fmt.Errorf("types: struct member %d not committed", i)
		}
		if blocklens[i] < 0 {
			return nil, fmt.Errorf("types: struct blocklen[%d] = %d < 0", i, blocklens[i])
		}
		if displs[i] < end {
			return nil, fmt.Errorf("types: struct block %d at byte %d overlaps previous end %d",
				i, displs[i], end)
		}
		end = displs[i] + blocklens[i]*typs[i].extent
	}
	return &Type{node: nodeStruct, blocklens: append([]int(nil), blocklens...),
		displs: append([]int(nil), displs...), children: append([]*Type(nil), typs...)}, nil
}

// Commit finalizes the layout: computes size/extent and flattens the type
// into contiguous segments. Inner types are committed recursively.
func (t *Type) Commit() error {
	if t.committed {
		return nil
	}
	for _, c := range t.children {
		if err := c.Commit(); err != nil {
			return err
		}
	}
	switch t.node {
	case nodePrimitive:
		t.size = t.prim.Size()
		t.extent = t.size
		t.segs = []seg{{0, t.size}}
	case nodeContiguous:
		in := t.children[0]
		t.size = t.count * in.size
		t.extent = t.count * in.extent
		t.segs = tile(in.segs, t.count, in.extent, 0)
	case nodeVector:
		in := t.children[0]
		t.size = t.count * t.blocklen * in.size
		if t.count > 0 {
			t.extent = ((t.count-1)*t.stride + t.blocklen) * in.extent
		}
		var segs []seg
		for b := 0; b < t.count; b++ {
			segs = append(segs, tile(in.segs, t.blocklen, in.extent, b*t.stride*in.extent)...)
		}
		t.segs = merge(segs)
	case nodeIndexed:
		in := t.children[0]
		for i, bl := range t.blocklens {
			t.size += bl * in.size
			if end := (t.displs[i] + bl) * in.extent; end > t.extent {
				t.extent = end
			}
		}
		var segs []seg
		for i, bl := range t.blocklens {
			segs = append(segs, tile(in.segs, bl, in.extent, t.displs[i]*in.extent)...)
		}
		t.segs = merge(segs)
	case nodeStruct:
		var segs []seg
		for i, bl := range t.blocklens {
			in := t.children[i]
			t.size += bl * in.size
			if end := t.displs[i] + bl*in.extent; end > t.extent {
				t.extent = end
			}
			segs = append(segs, tile(in.segs, bl, in.extent, t.displs[i])...)
		}
		t.segs = merge(segs)
	}
	t.committed = true
	return nil
}

// tile repeats segs count times with the given byte stride and base offset,
// producing a merged segment list.
func tile(segs []seg, count, stride, base int) []seg {
	out := make([]seg, 0, len(segs)*count)
	for i := 0; i < count; i++ {
		off := base + i*stride
		for _, s := range segs {
			out = append(out, seg{s.off + off, s.len})
		}
	}
	return merge(out)
}

// merge coalesces adjacent segments. Inputs are in layout order by
// construction.
func merge(segs []seg) []seg {
	if len(segs) == 0 {
		return segs
	}
	out := segs[:1]
	for _, s := range segs[1:] {
		last := &out[len(out)-1]
		if last.off+last.len == s.off {
			last.len += s.len
		} else {
			out = append(out, s)
		}
	}
	return out
}

// Committed reports whether Commit has run.
func (t *Type) Committed() bool { return t.committed }

// Size returns the number of data bytes in one element.
func (t *Type) Size() int { return t.size }

// Extent returns the byte span of one element including holes; consecutive
// elements in a buffer are extent bytes apart.
func (t *Type) Extent() int { return t.extent }

// Contiguousp reports whether the type has no holes (size == extent), in
// which case pack/unpack degenerate to memcpy.
func (t *Type) Contiguousp() bool { return t.committed && t.size == t.extent }

// PrimKind returns the single primitive kind the type is built from, if it
// is uniform (required for reductions), or ok=false.
func (t *Type) PrimKind() (Kind, bool) {
	if t.node == nodePrimitive {
		return t.prim, true
	}
	var k Kind
	for _, c := range t.children {
		ck, ok := c.PrimKind()
		if !ok {
			return KindInvalid, false
		}
		if k == KindInvalid {
			k = ck
		} else if k != ck {
			return KindInvalid, false
		}
	}
	if k == KindInvalid {
		return KindInvalid, false
	}
	return k, true
}

// Pack gathers count elements starting at src into the contiguous buffer
// dst. src must hold count*Extent() bytes (the final element may omit
// trailing holes); dst must hold count*Size() bytes. Returns bytes written.
func (t *Type) Pack(src []byte, count int, dst []byte) (int, error) {
	if !t.committed {
		return 0, errNotCommitted
	}
	need := t.packedLen(count)
	if len(dst) < need {
		return 0, fmt.Errorf("types: pack dst %d bytes, need %d", len(dst), need)
	}
	if srcNeed := t.bufLen(count); len(src) < srcNeed {
		return 0, fmt.Errorf("types: pack src %d bytes, need %d", len(src), srcNeed)
	}
	if t.Contiguousp() {
		copy(dst[:need], src)
		return need, nil
	}
	n := 0
	for i := 0; i < count; i++ {
		base := i * t.extent
		for _, s := range t.segs {
			copy(dst[n:n+s.len], src[base+s.off:])
			n += s.len
		}
	}
	return n, nil
}

// Unpack scatters count elements from the contiguous buffer src into dst
// laid out with this type. Returns bytes consumed from src.
func (t *Type) Unpack(src []byte, count int, dst []byte) (int, error) {
	if !t.committed {
		return 0, errNotCommitted
	}
	need := t.packedLen(count)
	if len(src) < need {
		return 0, fmt.Errorf("types: unpack src %d bytes, need %d", len(src), need)
	}
	if dstNeed := t.bufLen(count); len(dst) < dstNeed {
		return 0, fmt.Errorf("types: unpack dst %d bytes, need %d", len(dst), dstNeed)
	}
	if t.Contiguousp() {
		copy(dst, src[:need])
		return need, nil
	}
	n := 0
	for i := 0; i < count; i++ {
		base := i * t.extent
		for _, s := range t.segs {
			copy(dst[base+s.off:base+s.off+s.len], src[n:n+s.len])
			n += s.len
		}
	}
	return n, nil
}

// packedLen is the contiguous size of count elements.
func (t *Type) packedLen(count int) int { return count * t.size }

// bufLen is the in-memory span of count elements: full extents for all but
// the last element, which needs only its data bytes' span.
func (t *Type) bufLen(count int) int {
	if count == 0 {
		return 0
	}
	last := 0
	if n := len(t.segs); n > 0 {
		last = t.segs[n-1].off + t.segs[n-1].len
	}
	return (count-1)*t.extent + last
}

// BufLen reports the minimum buffer length holding count elements.
func (t *Type) BufLen(count int) int { return t.bufLen(count) }

// UnpackPartial scatters up to len(src) contiguous bytes into dst laid out
// with this type, stopping when src is exhausted. It handles trailing
// partial elements, which arise when a message carries fewer bytes than the
// receiver's count allows (a legal MPI situation where MPI_Get_count
// reports MPI_UNDEFINED). Returns the number of bytes consumed.
func (t *Type) UnpackPartial(src, dst []byte) (int, error) {
	if !t.committed {
		return 0, errNotCommitted
	}
	if t.size == 0 {
		return 0, nil
	}
	if t.Contiguousp() {
		// Every element is one segment at its packed offset, so dst takes
		// src as it is. Short of room, stop where the segment walk below
		// stops: before the first element dst cannot hold whole.
		if len(src) > len(dst) {
			n := len(dst) / t.size * t.size
			copy(dst[:n], src)
			return n, fmt.Errorf("types: UnpackPartial dst too short: need %d bytes",
				min(n+t.size, len(src)))
		}
		return copy(dst, src), nil
	}
	n := 0
	for base := 0; n < len(src); base += t.extent {
		for _, s := range t.segs {
			if n == len(src) {
				return n, nil
			}
			take := s.len
			if rem := len(src) - n; take > rem {
				take = rem
			}
			if base+s.off+take > len(dst) {
				return n, fmt.Errorf("types: UnpackPartial dst too short: need %d bytes",
					base+s.off+take)
			}
			copy(dst[base+s.off:base+s.off+take], src[n:n+take])
			n += take
		}
	}
	return n, nil
}

// String describes the type for diagnostics.
func (t *Type) String() string {
	switch t.node {
	case nodePrimitive:
		return t.prim.String()
	case nodeContiguous:
		return fmt.Sprintf("CONTIG(%d,%s)", t.count, t.children[0])
	case nodeVector:
		return fmt.Sprintf("VECTOR(%d,%d,%d,%s)", t.count, t.blocklen, t.stride, t.children[0])
	case nodeIndexed:
		return fmt.Sprintf("INDEXED(%v,%v,%s)", t.blocklens, t.displs, t.children[0])
	case nodeStruct:
		return fmt.Sprintf("STRUCT(%v,%v,%d types)", t.blocklens, t.displs, len(t.children))
	}
	return "UNKNOWN"
}
