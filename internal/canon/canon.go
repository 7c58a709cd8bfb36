// Package canon is the one encoding of checkpointed state: a program's
// exported fields, MANA's plugin blob and an image set's meta all go
// through Encode and Decode. (MANA's drain-counter exchange never reaches
// an image and is not canon: it is a list of fixed-width records that a
// receiver searches in place, see internal/mana.) The bytes are a
// function of the value and its type alone, never of the process, the map
// iteration order or what was encoded before, because an image is a
// contract between the implementation that wrote it and the one that
// restarts it. docs/recovery.md ("Checkpoint image format") has the rules:
// an 8-byte fingerprint of the exported field names and kinds, then
// fixed-width little-endian scalars (int as 8 bytes, a bool as 0 or 1),
// count-prefixed strings, slices and maps, map entries in strictly
// ascending key order, and structs as their exported fields. Interfaces,
// pointers below the top level, arrays, chans, funcs, float32, complex and
// uintptr values, and map keys that are not integers or strings are
// refused with an error naming the field. Decode checks every count
// against the bytes left before it allocates and rejects anything Encode
// would not have written, so whatever decodes re-encodes to the same bytes.
//
// A raw slice — a []byte, and on a little-endian host a []float64,
// []int64 and the like or a slice of a flat struct (only exported
// fixed-width numbers, no padding), whose memory is its encoding — is
// written as one copy, and Decode writes it into the destination's own
// backing array when its capacity holds the count, so a restored program
// reuses the storage of the instance it decodes over. Every other slice
// is made fresh: reused elements would keep stale values in their
// unexported fields.
package canon

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"unsafe"
)

// Encode writes v's encoding to w. v may be a pointer to the value.
func Encode(w io.Writer, v any) error {
	rv := reflect.Indirect(reflect.ValueOf(v))
	if !rv.IsValid() {
		return fmt.Errorf("canon: cannot encode a nil %T", v)
	}
	c, err := codecOf(rv.Type())
	if err != nil {
		return err
	}
	e := encoders.Get().(*encoder)
	e.w = w
	e.uint(c.fp, 8)
	c.enc(e, rv)
	e.flush()
	err = e.err
	e.w, e.err = nil, nil
	encoders.Put(e)
	return err
}

// Decode sets *v to the value data encodes. v must be a non-nil pointer;
// fields it does not export keep their values. A raw slice in *v whose
// capacity holds the decoded count is overwritten in place (see the
// package doc), so the caller must not share its backing array. On error
// *v may be partly written.
func Decode(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("canon: Decode needs a non-nil pointer, not %T", v)
	}
	rv = rv.Elem()
	c, err := codecOf(rv.Type())
	if err != nil {
		return err
	}
	d := &decoder{data: data}
	if fp := d.uint(8); d.err == nil && fp != c.fp {
		return fmt.Errorf("canon: data holds a value of type fingerprint %016x, not %v (%016x)", fp, rv.Type(), c.fp)
	}
	c.dec(d, rv)
	if d.err == nil && len(d.data) != 0 {
		d.err = fmt.Errorf("canon: %d trailing bytes after a %v", len(d.data), rv.Type())
	}
	return d.err
}

// chunkSize is the encoder's staging buffer: values are appended to it and
// it is written out whenever it fills.
const chunkSize = 32 << 10

type encoder struct {
	w   io.Writer
	buf []byte
	err error // the first write error; later writes are dropped
}

var encoders = sync.Pool{New: func() any { return &encoder{buf: make([]byte, 0, chunkSize)} }}

func (e *encoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// uint appends the low n bytes of x.
func (e *encoder) uint(x uint64, n int) {
	if len(e.buf)+8 > cap(e.buf) {
		e.flush()
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, x)[:len(e.buf)+n]
}

func (e *encoder) bytes(p []byte) {
	if len(p) >= cap(e.buf) { // a long run goes out as it is
		e.flush()
		if e.err == nil {
			_, e.err = e.w.Write(p)
		}
		return
	}
	if len(e.buf)+len(p) > cap(e.buf) {
		e.flush()
	}
	e.buf = append(e.buf, p...)
}

type decoder struct {
	data []byte
	err  error // the first error; once set every read returns zero
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("canon: "+format, args...)
	}
	d.data = nil
}

// uint reads n bytes as a little-endian integer.
func (d *decoder) uint(n int) uint64 {
	if len(d.data) < n {
		d.fail("data ends %d bytes short of a %d-byte value", n-len(d.data), n)
		return 0
	}
	var b [8]byte
	copy(b[:], d.data[:n])
	d.data = d.data[n:]
	return binary.LittleEndian.Uint64(b[:])
}

// count reads a count of elements that encode to at least min bytes each,
// refusing one that the bytes left cannot hold.
func (d *decoder) count(min int, path string) int {
	n := d.uint(8)
	if n > uint64(len(d.data)/min) {
		d.fail("%s: count %d exceeds the %d bytes left", path, n, len(d.data))
		return 0
	}
	return int(n)
}

func (d *decoder) take(n int) []byte {
	b := d.data[:n:n]
	d.data = d.data[n:]
	return b
}

// coder encodes and decodes one type's values; min is the fewest bytes a
// value takes, which bounds a count before anything is allocated for it,
// and fp is the type's fingerprint (set on the coders codecOf returns).
type coder struct {
	enc func(*encoder, reflect.Value)
	dec func(*decoder, reflect.Value)
	min int
	fp  uint64
}

var codecs sync.Map // reflect.Type -> coder, derived once per type

func codecOf(t reflect.Type) (coder, error) {
	if c, ok := codecs.Load(t); ok {
		return c.(coder), nil
	}
	var desc strings.Builder
	c, err := build(t, t.String(), &desc, map[reflect.Type]bool{})
	if err == nil {
		h := fnv.New64a()
		h.Write([]byte(desc.String()))
		c.fp = h.Sum64()
		codecs.Store(t, c)
	}
	return c, err
}

// build derives t's coder and writes t's fingerprint description to desc.
// path names the value in errors; open holds the structs being built, so a
// recursive type is refused rather than followed forever.
func build(t reflect.Type, path string, desc *strings.Builder, open map[reflect.Type]bool) (coder, error) {
	switch k := t.Kind(); k {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float64:
		desc.WriteString(k.String())
		n := int(t.Size())
		if k == reflect.Int || k == reflect.Uint {
			n = 8 // whatever the platform's word
		}
		return coder{min: n,
			enc: func(e *encoder, v reflect.Value) { e.uint(bitsOf(v), n) },
			dec: func(d *decoder, v reflect.Value) { setBits(d, v, n, path) },
		}, nil
	case reflect.String:
		desc.WriteString("string")
		return coder{min: 8,
			enc: func(e *encoder, v reflect.Value) {
				e.uint(uint64(v.Len()), 8)
				e.bytes(unsafe.Slice(unsafe.StringData(v.String()), v.Len()))
			},
			dec: func(d *decoder, v reflect.Value) { v.SetString(string(d.take(d.count(1, path)))) },
		}, nil
	case reflect.Slice:
		return buildSlice(t, path, desc, open)
	case reflect.Map:
		return buildMap(t, path, desc, open)
	case reflect.Struct:
		return buildStruct(t, path, desc, open)
	default:
		return coder{}, fmt.Errorf("canon: %s: cannot encode a %v", path, k)
	}
}

// bitsOf is a scalar's value as the integer its wire bytes hold.
func bitsOf(v reflect.Value) uint64 {
	switch k := v.Kind(); {
	case k == reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case k == reflect.Float64:
		return math.Float64bits(v.Float())
	case k >= reflect.Int && k <= reflect.Int64:
		return uint64(v.Int())
	}
	return v.Uint()
}

// setBits reads an n-byte scalar into v.
func setBits(d *decoder, v reflect.Value, n int, path string) {
	x := d.uint(n)
	switch k := v.Kind(); {
	case k == reflect.Bool:
		if x > 1 {
			d.fail("%s: bool byte %d", path, x)
		}
		v.SetBool(x == 1)
	case k == reflect.Float64:
		v.SetFloat(math.Float64frombits(x))
	case k >= reflect.Int && k <= reflect.Int64:
		shift := 64 - 8*n // sign-extend
		v.SetInt(int64(x<<shift) >> shift)
	default:
		v.SetUint(x)
	}
}

// littleEndian reports whether this host lays numbers out in memory as
// the encoding does, so a slice of them is written and read as one copy.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// rawRun reports whether a slice of t is one raw run: its memory is its
// encoding. A []byte is, and on a little-endian host so is a []float64,
// []int64 and the like, and a slice of a flat struct: one whose fields
// are all exported fixed-width numbers (no bool) laid out without padding.
func rawRun(t reflect.Type) bool {
	switch k := t.Kind(); {
	case k == reflect.Uint8 || k == reflect.Int8:
		return true
	case k == reflect.Int || k == reflect.Uint:
		return littleEndian && t.Size() == 8 // 8 bytes on the wire on every host
	case k > reflect.Bool && k <= reflect.Float64:
		return littleEndian
	case k == reflect.Struct:
		at := uintptr(0)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Offset != at || f.Type.Kind() == reflect.Struct || !rawRun(f.Type) {
				return false
			}
			at += f.Type.Size()
		}
		return at == t.Size()
	}
	return false
}

func buildSlice(t reflect.Type, path string, desc *strings.Builder, open map[reflect.Type]bool) (coder, error) {
	desc.WriteString("[]")
	elem, err := build(t.Elem(), path+"[]", desc, open)
	if err != nil {
		return coder{}, err
	}
	if elem.min == 0 {
		return coder{}, fmt.Errorf("canon: %s: a %v encodes to no bytes, so a count of them cannot be bounded", path, t.Elem())
	}
	size, raw := elem.min, rawRun(t.Elem())
	return coder{min: 8,
		enc: func(e *encoder, v reflect.Value) {
			e.uint(uint64(v.Len()), 8)
			if raw {
				e.bytes(unsafe.Slice((*byte)(v.UnsafePointer()), v.Len()*size))
				return
			}
			for i := 0; i < v.Len(); i++ {
				elem.enc(e, v.Index(i))
			}
		},
		dec: func(d *decoder, v reflect.Value) {
			n := d.count(size, path)
			s := reflect.Zero(t)
			switch {
			case n > 0 && raw && v.Cap() >= n:
				s = v.Slice(0, n) // every byte is overwritten below
			case n > 0:
				s = reflect.MakeSlice(t, n, n)
			}
			if raw {
				copy(unsafe.Slice((*byte)(s.UnsafePointer()), n*size), d.take(n*size))
			}
			for i := 0; i < n && !raw; i++ {
				elem.dec(d, s.Index(i))
			}
			v.Set(s)
		},
	}, nil
}

func buildMap(t reflect.Type, path string, desc *strings.Builder, open map[reflect.Type]bool) (coder, error) {
	var less func(a, b reflect.Value) bool
	switch k := t.Key().Kind(); {
	case k >= reflect.Int && k <= reflect.Int64:
		less = func(a, b reflect.Value) bool { return a.Int() < b.Int() }
	case k >= reflect.Uint && k <= reflect.Uint64:
		less = func(a, b reflect.Value) bool { return a.Uint() < b.Uint() }
	case k == reflect.String:
		less = func(a, b reflect.Value) bool { return a.String() < b.String() }
	default:
		return coder{}, fmt.Errorf("canon: %s: map key %v is not an integer or a string", path, t.Key())
	}
	desc.WriteString("map[")
	key, _ := build(t.Key(), path+" key", desc, open) // an integer or a string
	desc.WriteString("]")
	elem, err := build(t.Elem(), path+"[]", desc, open)
	if err != nil {
		return coder{}, err
	}
	return coder{min: 8,
		enc: func(e *encoder, v reflect.Value) {
			keys := v.MapKeys()
			slices.SortFunc(keys, func(a, b reflect.Value) int {
				if less(a, b) {
					return -1
				}
				return 1 // keys are distinct
			})
			e.uint(uint64(len(keys)), 8)
			for _, k := range keys {
				key.enc(e, k)
				elem.enc(e, v.MapIndex(k))
			}
		},
		dec: func(d *decoder, v reflect.Value) {
			n := d.count(key.min+elem.min, path)
			m := reflect.MakeMapWithSize(t, n)
			k, prev, x := reflect.New(t.Key()).Elem(), reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
			for i := 0; i < n && d.err == nil; i++ {
				key.dec(d, k)
				if i > 0 && !less(prev, k) {
					d.fail("%s: key %v after %v: keys must ascend strictly", path, k, prev)
				}
				x.SetZero() // a raw slice in x would decode over the previous entry's array
				elem.dec(d, x)
				m.SetMapIndex(k, x)
				prev.Set(k)
			}
			v.Set(m)
		},
	}, nil
}

func buildStruct(t reflect.Type, path string, desc *strings.Builder, open map[reflect.Type]bool) (coder, error) {
	if open[t] {
		return coder{}, fmt.Errorf("canon: %s: recursive type %v", path, t)
	}
	open[t] = true
	defer delete(open, t)
	type field struct {
		i int
		coder
	}
	var fields []field
	min := 0
	desc.WriteString("struct{")
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			desc.WriteString(f.Name + " ")
			c, err := build(f.Type, path+"."+f.Name, desc, open)
			if err != nil {
				return coder{}, err
			}
			desc.WriteString(";")
			fields = append(fields, field{i, c})
			min += c.min
		}
	}
	desc.WriteString("}")
	return coder{min: min,
		enc: func(e *encoder, v reflect.Value) {
			for _, f := range fields {
				f.enc(e, v.Field(f.i))
			}
		},
		dec: func(d *decoder, v reflect.Value) {
			for _, f := range fields {
				f.dec(d, v.Field(f.i))
			}
		},
	}, nil
}
