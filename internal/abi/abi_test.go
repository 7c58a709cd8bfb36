package abi

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/ops"
	"repro/internal/types"
)

func TestHandleEncoding(t *testing.T) {
	h := MakeHandle(ClassComm, 0x12345)
	if h.HandleClass() != ClassComm {
		t.Fatalf("class = %v, want comm", h.HandleClass())
	}
	if h.Payload() != 0x12345 {
		t.Fatalf("payload = %#x, want 0x12345", h.Payload())
	}
	if h.Payload() < PredefinedLimit {
		t.Fatal("0x12345 payload should not be predefined")
	}
	if h.Payload() == 0 {
		t.Fatal("non-zero payload is not null")
	}
}

func TestHandlePredefinedValues(t *testing.T) {
	if CommWorld.Payload() >= PredefinedLimit || CommWorld.HandleClass() != ClassComm {
		t.Fatalf("CommWorld malformed: %v", CommWorld)
	}
	if CommNull.Payload() != 0 || GroupNull.Payload() != 0 || RequestNull.Payload() != 0 {
		t.Fatal("null handles must have payload 0")
	}
	if CommWorld == CommSelf || CommWorld == CommNull {
		t.Fatal("predefined comm handles must be distinct")
	}
	// Handles are class-disambiguated even with equal payloads.
	if MakeHandle(ClassComm, 1) == MakeHandle(ClassGroup, 1) {
		t.Fatal("class bits missing from handle value")
	}
}

func TestHandlePayloadOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized payload did not panic")
		}
	}()
	MakeHandle(ClassComm, 1<<60)
}

func TestTypeHandleEncodesKindAndSize(t *testing.T) {
	for _, k := range types.Kinds() {
		h := TypeHandle(k)
		if h.HandleClass() != ClassType || h.Payload() >= PredefinedLimit || h.Payload() == 0 {
			t.Fatalf("TypeHandle(%v) = %v malformed", k, h)
		}
		// payload = kind<<8 | log2ceil(size)
		if kind, log2 := types.Kind(h.Payload()>>8), h.Payload()&0xff; kind != k ||
			1<<log2 < k.Size() || 1<<log2 >= 2*k.Size() {
			t.Fatalf("TypeHandle(%v) payload %#x does not encode kind and size %d", k, h.Payload(), k.Size())
		}
	}
	// Distinctness across kinds.
	seen := map[Handle]types.Kind{}
	for _, k := range types.Kinds() {
		h := TypeHandle(k)
		if prev, dup := seen[h]; dup {
			t.Fatalf("TypeHandle collision: %v and %v -> %v", prev, k, h)
		}
		seen[h] = k
	}
}

func TestOpHandles(t *testing.T) {
	for _, op := range ops.Ops() {
		h := OpHandle(op)
		if h.HandleClass() != ClassOp || h.Payload() >= PredefinedLimit || h.Payload() == 0 || h.Payload() != uint64(op) {
			t.Fatalf("OpHandle(%v) = %v, want the op in a predefined op payload", op, h)
		}
	}
}

func TestSymbolRoundTrip(t *testing.T) {
	for _, k := range types.Kinds() {
		s := SymForKind(k)
		back, ok := KindForSym(s)
		if !ok || back != k {
			t.Fatalf("KindForSym(SymForKind(%v)) = %v,%v", k, back, ok)
		}
		if Std.Lookup(s) != TypeHandle(k) {
			t.Fatalf("Std.Lookup(%v) != TypeHandle(%v)", s, k)
		}
	}
	for _, op := range ops.Ops() {
		s := SymForOp(op)
		back, ok := OpForSym(s)
		if !ok || back != op {
			t.Fatalf("OpForSym(SymForOp(%v)) = %v,%v", op, back, ok)
		}
		if Std.Lookup(s) != OpHandle(op) {
			t.Fatalf("Std.Lookup(%v) != OpHandle(%v)", s, op)
		}
	}
	// Type and op symbol ranges must not overlap.
	for _, k := range types.Kinds() {
		if _, ok := OpForSym(SymForKind(k)); ok {
			t.Fatalf("symbol ranges overlap at kind %v", k)
		}
	}
}

func TestStatusString(t *testing.T) {
	s := &Status{CountBytes: 24}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestErrorClassOf(t *testing.T) {
	if ClassOf(nil) != ErrSuccess {
		t.Fatal("nil must be MPI_SUCCESS")
	}
	e := Errorf(ErrComm, "mpich", "invalid communicator %d", 7)
	if ClassOf(e) != ErrComm {
		t.Fatalf("ClassOf = %v, want ErrComm", ClassOf(e))
	}
	wrapped := fmt.Errorf("outer: %w", e)
	if ClassOf(wrapped) != ErrComm {
		t.Fatal("ClassOf must unwrap")
	}
	if ClassOf(errors.New("plain")) != ErrOther {
		t.Fatal("plain errors map to ErrOther")
	}
	if e.Error() == "" || ErrTruncate.String() != "MPI_ERR_TRUNCATE" {
		t.Fatal("error rendering broken")
	}
}

func TestConvertRoundTrips(t *testing.T) {
	f := func(vs []float64) bool {
		b := Float64Bytes(vs)
		out := Float64sOf(b)
		if len(out) != len(vs) {
			return false
		}
		for i := range vs {
			// NaN-safe bitwise comparison via re-encoding.
			if Float64Bytes(vs[i : i+1])[0] != Float64Bytes(out[i : i+1])[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(vs []int64) bool {
		out := Int64sOf(Int64Bytes(vs))
		for i := range vs {
			if out[i] != vs[i] {
				return false
			}
		}
		return len(out) == len(vs)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
	h := func(vs []int32) bool {
		out := Int32sOf(Int32Bytes(vs))
		for i := range vs {
			if out[i] != vs[i] {
				return false
			}
		}
		return len(out) == len(vs)
	}
	if err := quick.Check(h, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHandleStringDiagnostics(t *testing.T) {
	if CommWorld.String() == "" || Class(99).String() == "" {
		t.Fatal("diagnostics broken")
	}
}
