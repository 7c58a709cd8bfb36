package mpicore

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
	"repro/internal/fabric/fabrictest"
	"repro/internal/simnet"
	"repro/internal/types"
)

// ulfmWorld builds a world plus one runtime instance per rank without
// spawning goroutines (single-threaded tests drive ranks by hand). A
// rank driven by hand is outside any fiber, where a call that blocks
// panics the whole test binary ("does not hold the token"): such tests
// complete requests with settle and recvNow, and run anything that may
// block under fabrictest.Run.
func ulfmWorld(t *testing.T, n int, pol Policy) (*fabric.World, []*Proc) {
	t.Helper()
	w, err := fabric.NewWorld(simnet.SingleNode(n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	procs := make([]*Proc, n)
	for r := 0; r < n; r++ {
		procs[r] = NewProc(w, r, testConsts, testCodes, pol)
	}
	return w, procs
}

// settle is Wait that never blocks: it polls with Test, which dispatches
// at most one queued envelope per call, and returns the request's code.
// A request the queued traffic cannot complete fails the calling test.
func settle(t *testing.T, p *Proc, r *Request, st *Status) int {
	t.Helper()
	for i := 0; i < 64; i++ {
		if done, code := p.Test(r, st); done || code != testCodes.Success {
			return code
		}
	}
	t.Fatalf("rank %d: the queued traffic does not complete the request (a blocking wait would hang)", p.Rank())
	return 0
}

// recvNow is Recv that never blocks (see settle).
func recvNow(t *testing.T, p *Proc, buf []byte, count int, dt *Type, source, tag int, st *Status) int {
	t.Helper()
	r, code := p.Irecv(buf, count, dt, source, tag, p.CommWorld)
	if code != testCodes.Success {
		return code
	}
	return settle(t, p, r, st)
}

// TestFailureSweepCompletesPendingRecv: a posted receive from a rank
// that dies completes with ErrProcFailed when the failure notice lands,
// instead of hanging. So do both halves of a rendezvous in flight — a
// send waiting for its clear-to-send and a receive matched to a
// request-to-send but waiting for the data — on the peer's death, and
// with ErrRevoked on the peer's revocation.
func TestFailureSweepCompletesPendingRecv(t *testing.T) {
	pol := testPolicies()["treeish"]
	w, procs := ulfmWorld(t, 2, pol)
	p0 := procs[0]
	buf := make([]byte, 8)
	r, code := p0.Irecv(buf, 1, p0.Predef(types.KindInt64), 1, 7, p0.CommWorld)
	if code != testCodes.Success {
		t.Fatalf("Irecv = %d", code)
	}
	w.Kill(1)
	w.NotifyFailure(1)
	if code := settle(t, p0, r, nil); code != testCodes.ErrProcFailed {
		t.Fatalf("Wait on dead source = %d, want ErrProcFailed %d", code, testCodes.ErrProcFailed)
	}
	// New operations against the dead rank fail immediately, in both
	// directions.
	if code := p0.Send(buf, 1, p0.Predef(types.KindInt64), 1, 7, p0.CommWorld); code != testCodes.ErrProcFailed {
		t.Fatalf("Send to dead rank = %d", code)
	}
	if code := recvNow(t, p0, buf, 1, p0.Predef(types.KindInt64), 1, 7, nil); code != testCodes.ErrProcFailed {
		t.Fatalf("Recv from dead rank = %d", code)
	}

	for _, tc := range []struct {
		name         string
		recv, revoke bool
		want         int
	}{
		{"send-awaiting-cts/death", false, false, testCodes.ErrProcFailed},
		{"recv-awaiting-data/death", true, false, testCodes.ErrProcFailed},
		{"send-awaiting-cts/revoke", false, true, testCodes.ErrRevoked},
		{"recv-awaiting-data/revoke", true, true, testCodes.ErrRevoked},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, procs := ulfmWorld(t, 2, pol)
			p0, p1 := procs[0], procs[1]
			bt := p0.Predef(types.KindByte)
			big := make([]byte, pol.EagerMax+1) // one byte past eager: rendezvous
			var r *Request
			var code int
			if tc.recv {
				if _, code := p1.Isend(big, len(big), bt, 0, 7, p1.CommWorld); code != testCodes.Success {
					t.Fatalf("Isend = %d", code)
				}
				r, code = p0.Irecv(make([]byte, len(big)), len(big), bt, 1, 7, p0.CommWorld)
				// Dispatch the request-to-send: matched, clear-to-send
				// answered, the data now awaited.
				if code == testCodes.Success {
					code = p0.Progress(false)
				}
			} else {
				r, code = p0.Isend(big, len(big), bt, 1, 7, p0.CommWorld)
			}
			if code != testCodes.Success {
				t.Fatalf("rendezvous setup = %d", code)
			}
			if r.Done() {
				t.Fatal("the rendezvous completed before the notice")
			}
			if tc.revoke {
				p1.CommRevoke(p1.CommWorld)
			} else {
				w.Kill(1)
				w.NotifyFailure(1)
			}
			// Test dispatches the one envelope queued, the notice; the
			// sweep it runs must complete r.
			if done, code := p0.Test(r, nil); !done || code != tc.want {
				t.Fatalf("Test after the notice = (%v, %d), want (true, %d)", done, code, tc.want)
			}
		})
	}
}

// TestFailedReceiveNamesItsSource: a receive that fails on a dead peer or
// on a revoked communicator reports the source it named, as a
// communicator rank, or MPI_ANY_SOURCE for a wildcard; never rank 0.
func TestFailedReceiveNamesItsSource(t *testing.T) {
	pol := testPolicies()["treeish"]
	w, procs := ulfmWorld(t, 3, pol)
	p0 := procs[0]
	i64 := p0.Predef(types.KindInt64)
	buf := make([]byte, 8)
	post := func(source int) *Request {
		r, code := p0.Irecv(buf, 1, i64, source, 7, p0.CommWorld)
		if code != testCodes.Success {
			t.Fatalf("Irecv(%d) = %d", source, code)
		}
		return r
	}
	check := func(what string, r *Request, code int, source int) {
		t.Helper()
		var st Status
		if got := settle(t, p0, r, &st); got != code || st.Source != int32(source) {
			t.Errorf("%s: Wait = %d with source %d, want %d with source %d", what, got, st.Source, code, source)
		}
	}
	named, wild := post(2), post(p0.K.AnySource)
	w.Kill(2)
	w.NotifyFailure(2)
	check("dead named source", named, testCodes.ErrProcFailed, 2)
	check("wildcard over a dead rank", wild, testCodes.ErrProcFailed, p0.K.AnySource)
	named = post(1)
	if code := p0.CommRevoke(p0.CommWorld); code != testCodes.Success {
		t.Fatalf("revoke = %d", code)
	}
	check("named source across the revocation", named, testCodes.ErrRevoked, 1)
}

// TestDataFromDeadRankStillDelivers: fail-stop ordering — a message the
// victim sent before dying is dispatched ahead of the failure notice
// and must still deliver (ULFM completes what can complete).
func TestDataFromDeadRankStillDelivers(t *testing.T) {
	pol := testPolicies()["treeish"]
	w, procs := ulfmWorld(t, 2, pol)
	p0, p1 := procs[0], procs[1]
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if code := p1.Send(payload, 8, p1.Predef(types.KindByte), 0, 3, p1.CommWorld); code != testCodes.Success {
		t.Fatalf("Send = %d", code)
	}
	w.Kill(1)
	w.NotifyFailure(1)
	got := make([]byte, 8)
	var st Status
	if code := recvNow(t, p0, got, 8, p0.Predef(types.KindByte), 1, 3, &st); code != testCodes.Success {
		t.Fatalf("Recv of pre-death payload = %d", code)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %v", got)
	}
	// The next receive, with nothing in flight, fails.
	if code := recvNow(t, p0, got, 8, p0.Predef(types.KindByte), 1, 3, nil); code != testCodes.ErrProcFailed {
		t.Fatalf("post-death Recv = %d, want ErrProcFailed", code)
	}
}

// TestAnySourceAckCycle: wildcard receives raise ErrProcFailed while an
// unacknowledged failure exists, and work again after CommFailureAck —
// with the acked group reported by CommFailureGetAcked.
func TestAnySourceAckCycle(t *testing.T) {
	pol := testPolicies()["treeish"]
	w, procs := ulfmWorld(t, 3, pol)
	p0 := procs[0]
	w.Kill(2)
	w.NotifyFailure(2)
	buf := make([]byte, 8)
	bt := p0.Predef(types.KindInt64)
	if code := recvNow(t, p0, buf, 1, bt, testConsts.AnySource, 5, nil); code != testCodes.ErrProcFailed {
		t.Fatalf("wildcard recv over unacked failure = %d, want ErrProcFailed", code)
	}
	if code := p0.CommFailureAck(p0.CommWorld); code != testCodes.Success {
		t.Fatalf("ack = %d", code)
	}
	g, code := p0.CommFailureGetAcked(p0.CommWorld)
	if code != testCodes.Success || len(g.Ranks) != 1 || g.Ranks[0] != 2 {
		t.Fatalf("acked group = %+v (code %d)", g, code)
	}
	// Re-armed: the wildcard recv now matches live traffic.
	if code := procs[1].Send([]byte{9, 0, 0, 0, 0, 0, 0, 0}, 1, procs[1].Predef(types.KindInt64), 0, 5, procs[1].CommWorld); code != testCodes.Success {
		t.Fatalf("Send = %d", code)
	}
	var st Status
	if code := recvNow(t, p0, buf, 1, bt, testConsts.AnySource, 5, &st); code != testCodes.Success {
		t.Fatalf("wildcard recv after ack = %d", code)
	}
	if st.Source != 1 {
		t.Fatalf("source = %d", st.Source)
	}
}

// TestRevokePoisonsEverythingButULFM: after a revocation notice, every
// regular operation answers ErrRevoked — p2p, probes, collectives,
// communicator creation — while Shrink and Agree still work.
func TestRevokePoisonsEverythingButULFM(t *testing.T) {
	pol := testPolicies()["treeish"]
	w, procs := ulfmWorld(t, 2, pol)
	p0, p1 := procs[0], procs[1]
	if code := p0.CommRevoke(p0.CommWorld); code != testCodes.Success {
		t.Fatalf("revoke = %d", code)
	}
	// Deliver the revoke notice to rank 1.
	if code := p1.Progress(false); code != testCodes.Success {
		t.Fatalf("progress = %d", code)
	}
	if !p1.ft.Revoked(p1.CommWorld.CID) {
		t.Fatal("revocation did not propagate")
	}
	// Each rank checks its own calls in its own fiber: a call that stopped
	// answering ErrRevoked would block. Shrink still works on the revoked
	// communicator (no one died, so it reproduces the full membership
	// under a fresh cid); it communicates, so both ranks run it.
	type res struct {
		nc   *Comm
		code int
	}
	var out [2]res
	fabrictest.Run(t, w, func(rank int) error {
		p := procs[rank]
		buf := make([]byte, 8)
		bt := p.Predef(types.KindInt64)
		if code := p.Send(buf, 1, bt, 1-rank, 1, p.CommWorld); code != testCodes.ErrRevoked {
			t.Errorf("rank %d Send on revoked comm = %d, want ErrRevoked", rank, code)
		}
		if _, code := p.Isend(buf, 1, bt, 1-rank, 1, p.CommWorld); code != testCodes.ErrRevoked {
			t.Errorf("rank %d Isend = %d", rank, code)
		}
		if code := p.Recv(buf, 1, bt, 1-rank, 1, p.CommWorld, nil); code != testCodes.ErrRevoked {
			t.Errorf("rank %d Recv = %d", rank, code)
		}
		if code := p.Probe(1-rank, 1, p.CommWorld, nil); code != testCodes.ErrRevoked {
			t.Errorf("rank %d Probe = %d", rank, code)
		}
		if _, code := p.Iprobe(1-rank, 1, p.CommWorld, nil); code != testCodes.ErrRevoked {
			t.Errorf("rank %d Iprobe = %d", rank, code)
		}
		if code := p.Barrier(p.CommWorld); code != testCodes.ErrRevoked {
			t.Errorf("rank %d Barrier = %d", rank, code)
		}
		if code := p.Bcast(buf, 1, bt, 0, p.CommWorld); code != testCodes.ErrRevoked {
			t.Errorf("rank %d Bcast = %d", rank, code)
		}
		if _, code := p.CommDup(p.CommWorld); code != testCodes.ErrRevoked {
			t.Errorf("rank %d CommDup = %d", rank, code)
		}
		if _, code := p.CommSplit(p.CommWorld, 0, 0); code != testCodes.ErrRevoked {
			t.Errorf("rank %d CommSplit = %d", rank, code)
		}
		// The communicator is checked before the group.
		if _, code := p.CommCreate(p.CommWorld, nil); code != testCodes.ErrRevoked {
			t.Errorf("rank %d CommCreate with a nil group = %d", rank, code)
		}
		out[rank].nc, out[rank].code = p.CommShrink(p.CommWorld)
		return nil
	})
	a, b := out[0], out[1]
	if a.code != testCodes.Success || b.code != testCodes.Success {
		t.Fatalf("shrink codes = %d, %d", a.code, b.code)
	}
	if a.nc.CID != b.nc.CID {
		t.Fatalf("survivors derived different cids: %d vs %d", a.nc.CID, b.nc.CID)
	}
	if a.nc.Size() != 2 {
		t.Fatalf("shrink of intact comm has size %d", a.nc.Size())
	}
	if a.nc.CID == p0.CommWorld.CID || p0.ft.Revoked(a.nc.CID) {
		t.Fatal("shrunken comm inherited the parent's cid or revocation")
	}
}

// TestShrinkAndAgreeAcrossPolicies runs the recovery collectives under
// both algorithm personalities with a mid-world death: all survivors
// must agree on the membership, the context id, and the AND-folded
// agreement flag.
func TestShrinkAndAgreeAcrossPolicies(t *testing.T) {
	for name, pol := range testPolicies() {
		for _, n := range []int{2, 3, 5, 8} {
			t.Run(fmt.Sprintf("%s/n%d", name, n), func(t *testing.T) {
				victim := n / 2
				runSPMD(t, n, pol, func(p *Proc) error {
					me := p.Rank()
					if me == victim {
						// The victim "dies" before the collective: kill +
						// notify, then walk away (runSPMD still joins it).
						p.world.Kill(victim)
						p.world.NotifyFailure(victim)
						return nil
					}
					nc, code := p.CommShrink(p.CommWorld)
					if code != testCodes.Success {
						return fmt.Errorf("shrink = %d", code)
					}
					if nc.Size() != n-1 {
						return fmt.Errorf("survivors = %d, want %d", nc.Size(), n-1)
					}
					for _, w := range nc.Ranks {
						if w == victim {
							return fmt.Errorf("victim %d still a member", victim)
						}
					}
					// Flag agreement on the shrunken comm: AND over
					// distinct per-rank masks.
					flag := ^uint64(0) &^ (1 << uint(me))
					agreed, code := p.CommAgree(nc, flag)
					if code != testCodes.Success {
						return fmt.Errorf("agree = %d", code)
					}
					want := ^uint64(0)
					for _, w := range nc.Ranks {
						want &^= 1 << uint(w)
					}
					if agreed != want {
						return fmt.Errorf("agreed = %x, want %x", agreed, want)
					}
					// The shrunken comm is fully usable: a collective over
					// the survivors completes.
					if code := p.Barrier(nc); code != testCodes.Success {
						return fmt.Errorf("barrier on shrunken comm = %d", code)
					}
					return nil
				})
			})
		}
	}
}

// TestCollectiveFailsInsteadOfHanging: kill a rank while the others run
// a collective; every survivor's collective must complete with
// ErrProcFailed (or ErrRevoked after a peer revokes) rather than hang —
// this is the progress-engine guarantee the whole subsystem rests on.
func TestCollectiveFailsInsteadOfHanging(t *testing.T) {
	pol := testPolicies()["tuned"]
	const n, victim = 4, 2
	runSPMD(t, n, pol, func(p *Proc) error {
		if p.Rank() == victim {
			p.world.Kill(victim)
			p.world.NotifyFailure(victim)
			return nil
		}
		buf := make([]byte, 64)
		code := p.Bcast(buf, 64, p.Predef(types.KindByte), 0, p.CommWorld)
		// A survivor may see the failure itself (ErrProcFailed), see a
		// faster peer's revocation first (ErrRevoked), or complete the
		// collective if the victim's death didn't sit on its data path.
		if code != testCodes.ErrProcFailed && code != testCodes.ErrRevoked && code != testCodes.Success {
			return fmt.Errorf("bcast = %d, want ErrProcFailed/ErrRevoked/Success", code)
		}
		// Whatever each survivor observed, recovery must converge.
		p.CommRevoke(p.CommWorld)
		nc, code := p.CommShrink(p.CommWorld)
		if code != testCodes.Success {
			return fmt.Errorf("shrink = %d", code)
		}
		if code := p.Barrier(nc); code != testCodes.Success {
			return fmt.Errorf("post-recovery barrier = %d", code)
		}
		return nil
	})
}

// TestAlltoallSkipsKnownDeadPeers: an AlltoallOverlap on a rank that
// already knows a peer is dead sends that peer nothing. A rendezvous send
// to it would sit in pendingSend, holding a private copy of its payload,
// for good: the dead send no clear-to-send, and a death already swept is
// never swept again. Ranks 0 and 1 learn of rank 2's death, run the
// collective, which fails, and then trade two messages, over which each
// answers the other's clear-to-send; after that nothing may be pending.
func TestAlltoallSkipsKnownDeadPeers(t *testing.T) {
	const n, victim, block = 3, 2, 20000 // above treeish's EagerMax, AlltoallOverlap's range
	const noticeTag, doneTag, ackTag = 11, 12, 13
	pol := testPolicies()["treeish"]
	runSPMD(t, n, pol, func(p *Proc) error {
		c, bt, me := p.CommWorld, p.Predef(types.KindByte), p.Rank()
		if me == victim {
			p.world.Kill(victim)
			p.world.NotifyFailure(victim)
			return nil
		}
		if code := p.Recv(nil, 0, bt, victim, noticeTag, c, nil); code != testCodes.ErrProcFailed {
			return fmt.Errorf("receive from the victim = %d, want ErrProcFailed", code)
		}
		sendbuf, recvbuf := make([]byte, n*block), make([]byte, n*block)
		if code := p.Alltoall(sendbuf, block, bt, recvbuf, block, bt, c); code != testCodes.ErrProcFailed {
			return fmt.Errorf("alltoall = %d, want ErrProcFailed", code)
		}
		for _, s := range p.pendingSend {
			if s.dest == victim {
				return fmt.Errorf("a send to dead rank %d is pending", victim)
			}
		}
		var code int
		if me == 0 {
			if code = p.Recv(nil, 0, bt, 1, doneTag, c, nil); code == testCodes.Success {
				code = p.Send(nil, 0, bt, 1, ackTag, c)
			}
		} else if code = p.Send(nil, 0, bt, 0, doneTag, c); code == testCodes.Success {
			code = p.Recv(nil, 0, bt, 0, ackTag, c, nil)
		}
		if code != testCodes.Success {
			return fmt.Errorf("handshake = %d", code)
		}
		if len(p.pendingSend) != 0 {
			return fmt.Errorf("%d sends still pending", len(p.pendingSend))
		}
		return nil
	})
}
