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
// allocates nothing, that a payload this rank still holds (parked on the
// unexpected queue, or the first replica copy) is never handed out again
// before it is consumed, and that a failed collective leaves no pending
// send pointing into the caller's buffer.

// TestWarmCollectivesAllocateNothing: once the freelist is warm, an
// 8-rank allreduce + bcast + alltoall + barrier iteration allocates no
// payload copy, pack buffer or staging buffer on any rank, under either
// algorithm family. Rank 0 measures:
// testing.AllocsPerRun counts the whole process's mallocs, so every
// rank's are included, and truncates the per-iteration mean, so one
// buffer per rank per iteration would read as 8 or more.
//
// Three shapes. In the first the broadcast root rotates. In fixed-root
// it never moves, so a broadcast only carries buffers from the root to
// the leaves; the world's one freelist must hand the root back what the
// leaves release. In vector the datatype has holes, so every collective
// takes the pack path instead of working in the caller's buffers.
func TestWarmCollectivesAllocateNothing(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// A collection in the measured window empties sync.Pool (the envelope
	// pool) and the runtime's own caches, whose refills would be counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, warm, runs = 8, 4 * 8, 2 * 8
	for polName, pol := range testPolicies() {
		for _, shape := range []string{"", "fixed-root", "vector"} {
			for _, size := range []int{64, 16 << 10} {
				name := fmt.Sprintf("%s/%s/%dB", polName, fabric.ProgressEvent, size)
				if shape != "" {
					name = fmt.Sprintf("%s/%s/%s/%dB", polName, fabric.ProgressEvent, shape, size)
				}
				t.Run(name, func(t *testing.T) {
					pol := pol
					res := runModal(t, n, pol, func(p *Proc) modalResult {
						c := p.CommWorld
						dt, count, span := p.Predef(types.KindByte), size, size
						if shape == "vector" { // 8 bytes of int32 over a 12-byte extent
							var code int
							if dt, code = p.TypeVector(2, 1, 2, p.Predef(types.KindInt32)); code == testCodes.Success {
								code = p.TypeCommit(dt)
							}
							if code != testCodes.Success {
								return modalResult{0, code}
							}
							count, span = size/8, size/8*12
						}
						sum := p.PredefOp(ops.OpSum)
						send, recv := make([]byte, n*span), make([]byte, n*span)
						code, root := testCodes.Success, 0
						iter := func() {
							for _, rc := range [...]int{
								p.Allreduce(send, recv, count, dt, sum, c),
								p.Bcast(recv, count, dt, root, c),
								p.Alltoall(send, count, dt, recv, count, dt, c),
								p.Barrier(c),
							} {
								if rc != testCodes.Success {
									code = rc
								}
							}
							if shape != "fixed-root" {
								root = (root + 1) % n
							}
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

// TestFailedCollectiveDetachesPendingSends: a collective that runs in the
// caller's buffers and fails must not leave a pending send pointing into
// them. Rank 0's rendezvous Alltoall fails on dead rank 2 while its send
// to rank 1 still waits for a CTS; rank 0 then overwrites its sendbuf and
// only afterwards lets rank 1 post the matching receive. Rank 1 must get
// the bytes rank 0 sent, not the ones it wrote after the failure.
func TestFailedCollectiveDetachesPendingSends(t *testing.T) {
	const n, victim, block = 3, 2, 20000 // above treeish's EagerMax, AlltoallOverlap's range
	const goTag, doneTag = 11, 12
	pol := testPolicies()["treeish"]
	sent := make([]byte, n*block)
	fillLCG(sent, 7)
	runSPMD(t, n, pol, func(p *Proc) error {
		c, bt := p.CommWorld, p.Predef(types.KindByte)
		switch p.Rank() {
		case victim:
			p.world.Kill(victim)
			p.world.NotifyFailure(victim)
			return nil
		case 0:
			sendbuf, recvbuf := append([]byte(nil), sent...), make([]byte, n*block)
			if code := p.Alltoall(sendbuf, block, bt, recvbuf, block, bt, c); code != testCodes.ErrProcFailed {
				return fmt.Errorf("alltoall = %d, want ErrProcFailed", code)
			}
			if len(p.pendingSend) != 1 {
				return fmt.Errorf("%d sends pending after the failure, want the one to rank 1", len(p.pendingSend))
			}
			for i := range sendbuf {
				sendbuf[i] = 0xEE
			}
			if code := p.Send(nil, 0, bt, 1, goTag, c); code != testCodes.Success {
				return fmt.Errorf("go send = %d", code)
			}
			// Rank 1's CTS is answered while this receive progresses.
			return codeOf(p.Recv(nil, 0, bt, 1, doneTag, c, nil))
		default:
			if code := p.Recv(nil, 0, bt, 0, goTag, c, nil); code != testCodes.Success {
				return fmt.Errorf("go recv = %d", code)
			}
			sendbuf, recvbuf := make([]byte, n*block), make([]byte, n*block)
			if code := p.Alltoall(sendbuf, block, bt, recvbuf, block, bt, c); code != testCodes.ErrProcFailed {
				return fmt.Errorf("alltoall = %d, want ErrProcFailed", code)
			}
			if got, want := recvbuf[:block], sent[block:2*block]; !bytes.Equal(got, want) {
				return fmt.Errorf("block from rank 0 is not what it sent (first byte %#x, want %#x)", got[0], want[0])
			}
			return codeOf(p.Send(nil, 0, bt, 0, doneTag, c))
		}
	})
}
