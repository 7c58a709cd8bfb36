package mpicore

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/fabric"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/types"
)

// Tests of the payload and scratch recycling: that a warmed collective
// allocates nothing, and that a payload this rank still holds (parked on
// the unexpected queue, or the first replica copy) is never handed out
// again before it is consumed.

// TestWarmCollectivesAllocateNothing: once the freelists are warm, an
// 8-rank allreduce + bcast + alltoall + barrier iteration allocates no
// payload copy, pack buffer or staging buffer on any rank, under either
// algorithm family. Rank 0 measures:
// testing.AllocsPerRun counts the whole process's mallocs, so every
// rank's are included, and truncates the per-iteration mean, so one
// buffer per rank per iteration would read as 8 or more.
//
// The broadcast root rotates. A delivered payload is recycled where it is
// consumed, so buffers travel with the traffic: the symmetric collectives
// return to each rank what it sent, but a broadcast only moves buffers
// away from its root, and one that kept the same root would cost that
// rank its few sends' worth of fresh buffers on every call (and the
// leaves would drop their surplus at the retention bound). Rotating the
// root closes the cycle, which is what lets this test demand zero.
func TestWarmCollectivesAllocateNothing(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// A collection in the measured window empties sync.Pool (the envelope
	// pool) and the runtime's own caches, whose refills would be counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, warm, runs = 8, 4 * 8, 2 * 8
	for polName, pol := range testPolicies() {
		for _, size := range []int{64, 16 << 10} {
			t.Run(fmt.Sprintf("%s/%s/%dB", polName, fabric.ProgressEvent, size), func(t *testing.T) {
				pol := pol
				res := runModal(t, n, pol, func(p *Proc) modalResult {
					c := p.CommWorld
					bt := p.Predef(types.KindByte)
					sum := p.PredefOp(ops.OpSum)
					send, recv := make([]byte, n*size), make([]byte, n*size)
					code, root := testCodes.Success, 0
					iter := func() {
						for _, rc := range [...]int{
							p.Allreduce(send, recv, size, bt, sum, c),
							p.Bcast(recv, size, bt, root, c),
							p.Alltoall(send, size, bt, recv, size, bt, c),
							p.Barrier(c),
						} {
							if rc != testCodes.Success {
								code = rc
							}
						}
						root = (root + 1) % n
					}
					for i := 0; i < warm-1; i++ { // AllocsPerRun's warm-up call is the last
						iter()
					}
					if p.Rank() != 0 {
						for i := 0; i < runs+1; i++ {
							iter()
						}
						return modalResult{0, code}
					}
					return modalResult{uint64(testing.AllocsPerRun(runs, iter)), code}
				})
				for r, m := range res {
					if m.code != testCodes.Success {
						t.Fatalf("rank %d: code %d", r, m.code)
					}
				}
				if allocs := res[0].digest; allocs != 0 {
					t.Fatalf("%d allocations per warmed iteration across %d ranks, want 0", allocs, n)
				}
			})
		}
	}
}

// allocsAvoid draws a few size-byte buffers from p's freelist,
// overwriting each, and fails if any of them is the live buffer.
func allocsAvoid(t *testing.T, p *Proc, size int, live *byte) {
	t.Helper()
	for i := 0; i < 8; i++ {
		b := p.ep.Alloc(size)
		if unsafe.SliceData(b) == live {
			t.Fatal("a payload still queued was handed out by Alloc")
		}
		for j := range b {
			b[j] = 0xEE
		}
	}
}

// TestUnexpectedPayloadNotRecycledEarly: a message parked on the
// unexpected queue keeps its payload through same-size traffic and
// allocation, and is released only by the receive that matches it.
func TestUnexpectedPayloadNotRecycledEarly(t *testing.T) {
	const size = 256
	_, procs := ulfmWorld(t, 2, testPolicies()["treeish"])
	p0, p1 := procs[0], procs[1]
	bt := p0.Predef(types.KindByte)
	early := bytes.Repeat([]byte{0xA1}, size)
	later := bytes.Repeat([]byte{0xB2}, size)
	for i, buf := range [][]byte{early, later} {
		if code := p1.Send(buf, size, bt, 0, i+1, p1.CommWorld); code != testCodes.Success {
			t.Fatalf("Send tag %d = %d", i+1, code)
		}
	}
	for i := 0; i < 2; i++ { // park both
		if code := p0.Progress(true); code != testCodes.Success {
			t.Fatalf("Progress = %d", code)
		}
	}
	if len(p0.unexpected) != 2 {
		t.Fatalf("%d unexpected envelopes, want 2", len(p0.unexpected))
	}
	first, second := unsafe.SliceData(p0.unexpected[0].Payload), unsafe.SliceData(p0.unexpected[1].Payload)

	// Matching tag 2 unpacks and releases its payload; tag 1's stays out
	// of the freelist.
	got := make([]byte, size)
	if code := p0.Recv(got, size, bt, 1, 2, p0.CommWorld, nil); code != testCodes.Success || !bytes.Equal(got, later) {
		t.Fatalf("Recv tag 2 = %d, payload ok = %v", code, bytes.Equal(got, later))
	}
	if b := p0.ep.Alloc(size); unsafe.SliceData(b) != second {
		t.Fatal("the matched payload was not released to the freelist")
	}
	allocsAvoid(t, p0, size, first)
	if code := p0.Recv(got, size, bt, 1, 1, p0.CommWorld, nil); code != testCodes.Success || !bytes.Equal(got, early) {
		t.Fatalf("Recv tag 1 = %d, payload intact = %v", code, bytes.Equal(got, early))
	}
	if b := p0.ep.Alloc(size); unsafe.SliceData(b) != first {
		t.Fatal("the parked payload was not released once matched")
	}
}

// TestReplicaFirstCopyOutlivesDuplicate: on a replicated world the two
// copies of a message are separate buffers. Dropping (and releasing) the
// duplicate must leave the first copy, still parked, untouched.
func TestReplicaFirstCopyOutlivesDuplicate(t *testing.T) {
	const size = 256
	w, err := fabric.NewReplicatedWorld(simnet.SingleNode(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	pol := testPolicies()["treeish"]
	procs := make([]*Proc, 4) // logical 0 = physical 0 and 2, logical 1 = 1 and 3
	for r := range procs {
		procs[r] = NewProc(w, r, testConsts, testCodes, pol)
	}
	p0 := procs[0]
	bt := p0.Predef(types.KindByte)
	msg := bytes.Repeat([]byte{0xC3}, size)
	for _, sender := range []*Proc{procs[1], procs[3]} { // primary and shadow of logical 1
		if code := sender.Send(msg, size, bt, 0, 5, sender.CommWorld); code != testCodes.Success {
			t.Fatalf("Send from physical %d = %d", sender.PhysicalRank(), code)
		}
	}
	for i := 0; i < 2; i++ { // first copy parks, second is deduplicated
		if code := p0.Progress(true); code != testCodes.Success {
			t.Fatalf("Progress = %d", code)
		}
	}
	if len(p0.unexpected) != 1 || len(p0.repl.seen) != 0 {
		t.Fatalf("unexpected=%d seen=%d, want one parked copy and a retired dedup entry",
			len(p0.unexpected), len(p0.repl.seen))
	}
	parked := unsafe.SliceData(p0.unexpected[0].Payload)
	// The duplicate's buffer is what Alloc finds: not fresh (zero) memory
	// but the message bytes, or the poison a race build left there.
	if dup := p0.ep.Alloc(size); unsafe.SliceData(dup) == parked || dup[0] == 0 {
		t.Fatalf("Alloc after the dedup returned the parked copy or fresh memory (first byte %#x)", dup[0])
	}
	allocsAvoid(t, p0, size, parked)
	got := make([]byte, size)
	if code := p0.Recv(got, size, bt, 1, 5, p0.CommWorld, nil); code != testCodes.Success || !bytes.Equal(got, msg) {
		t.Fatalf("Recv = %d, payload intact = %v", code, bytes.Equal(got, msg))
	}
}
