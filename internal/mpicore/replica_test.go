package mpicore

import (
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/types"
)

// Replica-layer differential suite: the dedup and promotion machinery
// must behave identically under every run-queue order, and a replicated
// run's surviving replicas must reproduce the UNREPLICATED fault-free
// digests bit for bit — replication's whole contract is that nothing
// above the replica layer can tell it is there. The edge cases here are
// the ones the happy path never visits: duplicate copies still arriving
// after a promotion, a shadow dying before its primary, and both
// replicas of one logical rank dying (which must surface the
// proc-failed class on the survivors, not hang them).

// replKill schedules one fail-stop event inside replCycle: after step's
// allreduce, trigger kills the listed physical ranks (itself included)
// and every listed rank returns.
type replKill struct {
	step    int
	ranks   []int
	trigger int
}

// replCycle is the replica suite's workload: `steps` lockstep allreduce
// rounds over the (logical) world communicator, each folded into the
// digest — the same byte stream whether the world is replicated or not,
// which is what lets a replicated run's results be compared against an
// unreplicated reference rank for rank. With kills scheduled, the dying
// physical ranks drop out after their step while everyone else keeps
// going; whether the survivors complete or observe the proc-failed
// class is decided entirely by the replica layer (a covered logical
// rank stays invisible; an uncovered one dooms the collective).
func replCycle(seed uint64, steps int, kills []replKill) func(p *Proc) modalResult {
	return func(p *Proc) modalResult {
		me := p.Rank()
		c := p.CommWorld
		it := p.Predef(types.KindInt64)
		sum := p.PredefOp(ops.OpSum)
		h := uint64(fnvOffset)
		for s := 0; s < steps; s++ {
			vals := []int64{int64(seed)*int64(me+1) + int64(s)}
			rb := make([]byte, 8)
			if code := p.Allreduce(abi.Int64Bytes(vals), rb, 1, it, sum, c); code != testCodes.Success {
				return modalResult{h, code}
			}
			h = foldBytes(h, rb)
			for _, k := range kills {
				if k.step != s {
					continue
				}
				dying := false
				for _, pr := range k.ranks {
					if p.PhysicalRank() == pr {
						dying = true
					}
				}
				if !dying {
					continue
				}
				if p.PhysicalRank() == k.trigger {
					p.World().Kill(k.ranks...)
					p.World().NotifyFailure(k.ranks...)
				}
				return modalResult{h, testCodes.Success}
			}
		}
		return modalResult{h, testCodes.Success}
	}
}

// assertReplicatedModesAgree is assertOrdersAgree on an n-logical-rank
// replicated world: fn runs on every PHYSICAL rank (2n of them), and the
// results come back primaries at [0,n), shadows at [n,2n).
func assertReplicatedModesAgree(t *testing.T, n int, pol Policy, fn func(p *Proc) modalResult) []modalResult {
	t.Helper()
	return assertOrdersAgree(t, func() *fabric.World {
		w, err := fabric.NewReplicatedWorld(simnet.SingleNode(n))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		return w
	}, pol, fn)
}

// TestReplicaPromotionDedup kills a primary mid-run and keeps computing
// for several more rounds: every post-promotion round still delivers
// two copies per send (one per surviving sender replica) to the
// promoted shadow, so the dedup table is exercised exactly where it is
// hardest — on a receiver that just changed roles. Every surviving
// replica must finish with the unreplicated fault-free digest, under
// every order.
func TestReplicaPromotionDedup(t *testing.T) {
	const n, victim, steps = 4, 2, 6
	for polName, pol := range testPolicies() {
		t.Run(polName, func(t *testing.T) {
			ref := runModal(t, n, pol, replCycle(7, steps, nil))
			res := assertReplicatedModesAgree(t, n, pol, replCycle(7, steps, []replKill{
				{step: 1, ranks: []int{victim}, trigger: victim},
			}))
			for lr := 0; lr < n; lr++ {
				if ref[lr].code != testCodes.Success {
					t.Fatalf("reference rank %d failed: %+v", lr, ref[lr])
				}
				// The victim's primary died after step 1; its shadow (and
				// both replicas of everyone else) ran to completion.
				if lr != victim && res[lr] != ref[lr] {
					t.Errorf("primary %d: %+v != reference %+v", lr, res[lr], ref[lr])
				}
				if res[lr+n] != ref[lr] {
					t.Errorf("shadow of %d: %+v != reference %+v", lr, res[lr+n], ref[lr])
				}
			}
			if res[victim].code != testCodes.Success {
				t.Errorf("dead primary recorded error %d before its death", res[victim].code)
			}
		})
	}
}

// TestReplicaShadowDiesFirst kills a SHADOW mid-run: the primary covers
// its logical rank, no promotion happens, and the run must complete
// with every logical result untouched — including on the receivers,
// whose dedup entries for the dead shadow's partner now arrive
// single-copy and never retire (the documented bounded leak).
func TestReplicaShadowDiesFirst(t *testing.T) {
	const n, victim, steps = 4, 1, 6
	pol := testPolicies()["treeish"]
	ref := runModal(t, n, pol, replCycle(11, steps, nil))
	res := assertReplicatedModesAgree(t, n, pol, replCycle(11, steps, []replKill{
		{step: 1, ranks: []int{victim + n}, trigger: victim + n},
	}))
	for lr := 0; lr < n; lr++ {
		if res[lr] != ref[lr] {
			t.Errorf("primary %d: %+v != reference %+v", lr, res[lr], ref[lr])
		}
		if lr != victim && res[lr+n] != ref[lr] {
			t.Errorf("shadow of %d: %+v != reference %+v", lr, res[lr+n], ref[lr])
		}
	}
}

// replDoubleDeath stages the ordering the satellite list calls out: the
// victim's shadow dies after round 1 (the primary covers, rounds 2-3
// still complete), then the primary dies too. With both replicas gone
// the logical rank is genuinely failed, and the survivors run the same
// detect/revoke protocol as ulfmRecoveryCycle: the detector's directed
// receive from the victim is completed by the failure sweep with the
// proc-failed class (not a hang), the detector revokes the world —
// through the replicated revoke path, which fans the control message to
// both replicas of every rank — and everyone else observes ErrRevoked.
// Every error class is forced by construction, so it must be identical
// across schedules and across both replicas of each survivor.
func replDoubleDeath(seed uint64, victim int) func(p *Proc) modalResult {
	return func(p *Proc) modalResult {
		me, n := p.Rank(), p.Size()
		c := p.CommWorld
		it := p.Predef(types.KindInt64)
		bt := p.Predef(types.KindByte)
		sum := p.PredefOp(ops.OpSum)
		h := uint64(fnvOffset)
		for s := 0; s < 4; s++ {
			vals := []int64{int64(seed)*int64(me+1) + int64(s)}
			rb := make([]byte, 8)
			if code := p.Allreduce(abi.Int64Bytes(vals), rb, 1, it, sum, c); code != testCodes.Success {
				return modalResult{h, code}
			}
			h = foldBytes(h, rb)
			if s == 1 && p.PhysicalRank() == victim+n {
				p.World().Kill(victim + n)
				p.World().NotifyFailure(victim + n)
				p.World().OOB().Send(victim+n, victim, "shadow-dead", nil)
				return modalResult{h, testCodes.Success}
			}
			if s == 3 && p.PhysicalRank() == victim {
				// The staged ordering, made explicit: no other rank needs the
				// shadow's copies, so a schedule may leave it arbitrarily far
				// behind — wait until it has died its own death.
				p.World().OOB().Recv(victim, "shadow-dead")
				p.World().Kill(victim, victim+n)
				p.World().NotifyFailure(victim, victim+n)
				return modalResult{h, testCodes.Success}
			}
		}
		// Tag 99 is never sent: only the failure sweep can complete this
		// receive, and only because the replica layer told the tracker the
		// logical rank is dead once BOTH its replicas were. Every survivor
		// checks it — proc-failed, not a hang, is the whole point.
		buf := make([]byte, 8)
		observed := p.Recv(buf, 8, bt, victim, 99, c, nil)
		h = foldU64(h, uint64(observed))
		if me == 0 {
			// Collect a ready byte from every other survivor before
			// revoking: a revocation racing a survivor's in-flight
			// collective resolves schedule-dependently, and this suite
			// demands bit-identical outcomes across schedules.
			for src := 1; src < n; src++ {
				if src == victim {
					continue
				}
				if code := p.Recv(buf, 1, bt, src, 97, c, nil); code != testCodes.Success {
					return modalResult{h, code}
				}
			}
			p.CommRevoke(c)
			return modalResult{h, observed}
		}
		if code := p.Send([]byte{1}, 1, bt, 0, 97, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		// Tag 98 is never sent: only the revocation — fanned out to both
		// replicas of every rank by the replicated revoke path — can
		// complete this, so ErrRevoked by construction.
		revoked := p.Recv(buf, 8, bt, 0, 98, c, nil)
		h = foldU64(h, uint64(revoked))
		return modalResult{h, revoked}
	}
}

func TestReplicaDoubleDeath(t *testing.T) {
	const n, victim = 4, 2
	pol := testPolicies()["treeish"]
	res := assertReplicatedModesAgree(t, n, pol, replDoubleDeath(13, victim))
	for lr := 0; lr < n; lr++ {
		want := testCodes.ErrRevoked
		switch lr {
		case victim:
			// Both replicas died cleanly before observing any error.
			want = testCodes.Success
		case 0:
			want = testCodes.ErrProcFailed
		}
		for _, phys := range []int{lr, lr + n} {
			if res[phys].code != want {
				t.Errorf("physical rank %d: code %d, want %d (%+v)",
					phys, res[phys].code, want, res[phys])
			}
		}
	}
}

// TestReplicaDigestsMatchAcrossPolicies pins the fault-free replicated
// world against the unreplicated reference for every eager/rendezvous
// policy: replication forces every send eager (the replication sequence
// lives in the envelope's Seq field), and that forcing must not be
// observable in any result.
func TestReplicaDigestsMatchAcrossPolicies(t *testing.T) {
	const n, steps = 4, 4
	for polName, pol := range testPolicies() {
		t.Run(fmt.Sprintf("%s", polName), func(t *testing.T) {
			ref := runModal(t, n, pol, replCycle(3, steps, nil))
			res := assertReplicatedModesAgree(t, n, pol, replCycle(3, steps, nil))
			for lr := 0; lr < n; lr++ {
				if res[lr] != ref[lr] || res[lr+n] != ref[lr] {
					t.Errorf("logical %d: primary %+v shadow %+v != reference %+v",
						lr, res[lr], res[lr+n], ref[lr])
				}
			}
		})
	}
}
