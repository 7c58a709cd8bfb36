package ulfm

import (
	"reflect"
	"testing"
)

func TestRankCodecRoundTrip(t *testing.T) {
	for _, ranks := range [][]int{nil, {0}, {3, 1, 47}, {0, 1, 2, 3, 4, 5, 6, 7}} {
		got := DecodeRanks(EncodeRanks(ranks))
		if len(ranks) == 0 {
			if len(got) != 0 {
				t.Fatalf("decode(encode(%v)) = %v", ranks, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, ranks) {
			t.Fatalf("decode(encode(%v)) = %v", ranks, got)
		}
	}
	// Malformed trailing bytes are dropped, not misread.
	if got := DecodeRanks(append(EncodeRanks([]int{5}), 0xff, 0xff)); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("truncated payload decoded to %v", got)
	}
}

func TestBitmap(t *testing.T) {
	b := NewBitmap(48)
	if len(b) != 6 {
		t.Fatalf("48-rank bitmap is %d bytes, want 6", len(b))
	}
	b.Set(0)
	b.Set(9)
	b.Set(47)
	for _, r := range []int{0, 9, 47} {
		if !b.Has(r) {
			t.Errorf("rank %d not set", r)
		}
	}
	for _, r := range []int{1, 8, 46, 48, -1} {
		if b.Has(r) {
			t.Errorf("rank %d spuriously set", r)
		}
	}
	o := NewBitmap(48)
	o.Set(13)
	b.Or(o)
	if !b.Has(13) || !b.Has(9) {
		t.Error("union lost a member")
	}
	// Hash is a pure function of contents and differs across sets.
	if b.Hash() != append(Bitmap(nil), b...).Hash() {
		t.Error("hash not stable under a copy")
	}
	if b.Hash() == o.Hash() {
		t.Error("distinct sets hash equal")
	}
	// A wider (malformed) contribution cannot widen the receiver.
	short := NewBitmap(8)
	short.Or(b)
	if len(short) != 1 {
		t.Errorf("union widened the receiver to %d bytes", len(short))
	}
}

func TestTrackerFailures(t *testing.T) {
	var tr Tracker
	if tr.Failed(3) || len(tr.failed) != 0 {
		t.Fatal("fresh tracker knows failures")
	}
	if !tr.NoteFailed(3, 5) {
		t.Fatal("first failure report was not news")
	}
	if tr.NoteFailed(3) {
		t.Fatal("repeat failure report was news")
	}
	if !tr.NoteFailed(3, 7) {
		t.Fatal("partially fresh report was not news")
	}
	if !tr.Failed(3) || !tr.Failed(5) || !tr.Failed(7) || tr.Failed(0) {
		t.Fatal("failure set wrong")
	}
	bm := tr.FailedBitmap(8)
	for r := 0; r < 8; r++ {
		if bm.Has(r) != tr.Failed(r) {
			t.Errorf("bitmap disagrees with tracker at rank %d", r)
		}
	}
}

func TestTrackerRevoke(t *testing.T) {
	var tr Tracker
	if tr.Revoked(9) {
		t.Fatal("fresh cid revoked")
	}
	if !tr.Revoke(9) {
		t.Fatal("first revoke was not news")
	}
	if tr.Revoke(9) {
		t.Fatal("second revoke was news")
	}
	if !tr.Revoked(9) {
		t.Fatal("revocation lost")
	}
	tr.Forget(9)
	if tr.Revoked(9) {
		t.Fatal("Forget kept the revocation")
	}
}

func TestTrackerAckCycle(t *testing.T) {
	var tr Tracker
	members := []int{0, 2, 4, 6}
	tr.NoteFailed(4)
	if !tr.HasUnacked(1, members) {
		t.Fatal("unacked failure not reported")
	}
	tr.Ack(1, members)
	if tr.HasUnacked(1, members) {
		t.Fatal("acked failure still poisons")
	}
	if got := tr.AckedRanks(1, members); !reflect.DeepEqual(got, []int{4}) {
		t.Fatalf("acked ranks = %v, want [4]", got)
	}
	// Acks are per-communicator.
	if !tr.HasUnacked(2, members) {
		t.Fatal("ack leaked across communicators")
	}
	// A later failure reopens the cycle on the already-acked comm.
	tr.NoteFailed(6)
	if !tr.HasUnacked(1, members) {
		t.Fatal("new failure hidden by the old ack")
	}
	tr.Ack(1, members)
	if got := tr.AckedRanks(1, members); !reflect.DeepEqual(got, []int{4, 6}) {
		t.Fatalf("acked ranks = %v, want [4 6]", got)
	}
	// Failures outside the membership never enter the comm's ack view.
	tr.NoteFailed(9)
	if tr.HasUnacked(1, members) {
		t.Fatal("non-member failure poisons the comm")
	}
}

// TestTrackerMakesMapsOnFirstWrite: the zero Tracker answers every read
// without making a map (a fault-free rank only reads it), and each write
// makes only the map it needs.
func TestTrackerMakesMapsOnFirstWrite(t *testing.T) {
	var tr Tracker
	members := []int{0, 1, 2}
	tr.Failed(1)
	tr.Revoked(1)
	tr.HasUnacked(1, members)
	tr.AckedRanks(1, members)
	tr.FailedBitmap(3)
	tr.Forget(1)
	if tr.failed != nil || tr.revoked != nil || tr.acked != nil {
		t.Fatal("a read made a map")
	}
	if !tr.Revoke(7) || tr.failed != nil || !tr.Revoked(7) {
		t.Fatal("a revocation did not make only its own map")
	}
	if !tr.NoteFailed(2) || !tr.Failed(2) || !tr.HasUnacked(1, members) {
		t.Fatal("a failure on the zero tracker was lost")
	}
	tr.Ack(1, members)
	if got := tr.AckedRanks(1, members); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("acked ranks = %v, want [2]", got)
	}
}
