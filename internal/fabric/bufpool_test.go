package fabric

import (
	"bytes"
	"testing"
	"unsafe"
)

func base(b []byte) *byte { return unsafe.SliceData(b) }

func TestBufClassBoundaries(t *testing.T) {
	for _, c := range []struct{ capacity, class int }{
		{1, 0}, {63, 0}, {64, 1}, {127, 1}, {128, 2},
		{16 << 10, 9}, {32<<10 - 1, 9}, {256 << 10, 13}, {512<<10 - 1, 13},
		{512 << 10, bufClasses}, // the first capacity that is never pooled
	} {
		if got := bufClass(c.capacity); got != c.class {
			t.Errorf("bufClass(%d) = %d, want %d", c.capacity, got, c.class)
		}
	}
}

// A released buffer comes back for any request it can hold within its
// class, never for a larger one, and never rounded up on a miss.
func TestBufPoolReuseWithinClass(t *testing.T) {
	bp := &bufPool{limit: 1 << 20}
	b := bp.get(3000)
	if len(b) != 3000 || cap(b) != 3000 {
		t.Fatalf("miss allocated len=%d cap=%d, want exactly 3000", len(b), cap(b))
	}
	bp.put(b)
	if got := bp.get(3001); base(got) == base(b) {
		t.Fatal("a 3000-byte buffer served a 3001-byte request")
	}
	if got := bp.get(2048); base(got) != base(b) || len(got) != 2048 {
		t.Fatalf("same-class request did not reuse the buffer (len %d)", len(got))
	}
	if bp.retained != 0 {
		t.Fatalf("retained = %d after the only buffer left", bp.retained)
	}
	// 2047 is the class below: the buffer is not looked for there.
	bp.put(b)
	if got := bp.get(2047); base(got) == base(b) {
		t.Fatal("a class-6 buffer served a class-5 request")
	}
}

// get probes only the newest bufProbe entries of a class.
func TestBufPoolProbeDepth(t *testing.T) {
	bp := &bufPool{limit: 1 << 20}
	big := make([]byte, 120)
	bp.put(big)
	for i := 0; i < bufProbe; i++ {
		bp.put(make([]byte, 64))
	}
	if got := bp.get(100); base(got) == base(big) {
		t.Fatalf("found a fit %d entries down", bufProbe+1)
	}
	bp.get(64) // pops one small entry; big is now within reach
	if got := bp.get(100); base(got) != base(big) {
		t.Fatal("missed a fit within the probe depth")
	}
}

func TestBufPoolRetentionBound(t *testing.T) {
	bp := &bufPool{limit: 10 << 10}
	for i := 0; i < 4; i++ {
		bp.put(make([]byte, 4<<10))
	}
	if bp.retained != 8<<10 || len(bp.class[bufClass(4<<10)]) != 2 {
		t.Fatalf("retained %d bytes in %d buffers, want 8 KiB in 2", bp.retained, len(bp.class[bufClass(4<<10)]))
	}
	// Tiny buffers are charged bufMinCharge each, so they cannot pile up
	// without bound either.
	for i := 0; i < 100; i++ {
		bp.put(make([]byte, 1))
	}
	if want := (10<<10 - 8<<10) / bufMinCharge; len(bp.class[0]) != want {
		t.Fatalf("%d one-byte buffers retained, want %d", len(bp.class[0]), want)
	}
	if bp.retained > bp.limit {
		t.Fatalf("retained %d > limit %d", bp.retained, bp.limit)
	}
}

// Empty and oversize slices are ignored by put; oversize requests fall
// through to make.
func TestBufPoolIgnoresEmptyAndOversize(t *testing.T) {
	bp := &bufPool{limit: 1 << 30}
	bp.put(nil)
	bp.put([]byte{})
	bp.put(make([]byte, 512<<10))
	if bp.retained != 0 {
		t.Fatalf("retained = %d, want 0", bp.retained)
	}
	if b := bp.get(1 << 20); len(b) != 1<<20 {
		t.Fatalf("oversize get returned %d bytes", len(b))
	}
	if b := bp.get(0); b == nil || len(b) != 0 {
		t.Fatalf("get(0) = %v, want an empty non-nil slice", b)
	}
}

// TestWorldFreelistIsShared: a world has one freelist. A buffer rank 5
// Releases is what rank 2's next Alloc hands out, and the retention bound
// holds for the world as a whole, not per endpoint.
func TestWorldFreelistIsShared(t *testing.T) {
	w := newTestWorld(t, 8)
	b := w.Endpoint(5).Alloc(4 << 10)
	released := base(b)
	w.Endpoint(5).Release(b)
	if got := w.Endpoint(2).Alloc(4 << 10); base(got) != released {
		t.Fatal("a buffer released on rank 5 was not handed out by rank 2's Alloc")
	}
	if w.pool.limit != worldRetainBytes {
		t.Fatalf("world retention bound = %d, want %d", w.pool.limit, worldRetainBytes)
	}
	// Every rank releases its share of twice the bound: the world keeps
	// exactly the bound, whichever ranks released it.
	const size = 256 << 10
	for i := 0; i < 2*worldRetainBytes/size; i++ {
		ep := w.Endpoint(i % 8)
		ep.Release(make([]byte, size))
	}
	if w.pool.retained != worldRetainBytes {
		t.Fatalf("world retains %d bytes, want its bound %d", w.pool.retained, worldRetainBytes)
	}
}

// Send's copy lands in a buffer the receiver may Release; the next Alloc
// of that size on the RECEIVER hands it out again, poisoned in a race
// build.
func TestSendCopyIsRecyclable(t *testing.T) {
	w := newTestWorld(t, 2)
	src := bytes.Repeat([]byte{7}, 100)
	w.Endpoint(0).Send(&Envelope{Dst: 1, Payload: src})
	e := w.Endpoint(1).Recv()
	if base(e.Payload) == base(src) || !bytes.Equal(e.Payload, src) {
		t.Fatal("Send did not deliver a private copy")
	}
	delivered := base(e.Payload)
	w.Endpoint(1).Release(e.Payload)
	again := w.Endpoint(1).Alloc(100)
	if base(again) != delivered {
		t.Fatal("released payload was not reused by the next Alloc")
	}
	if poisonOnRelease && !bytes.Equal(again, bytes.Repeat([]byte{poisonByte}, 100)) {
		t.Fatalf("race build did not poison the released buffer: % x", again[:8])
	}
}
