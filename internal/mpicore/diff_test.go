package mpicore

import (
	"flag"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/fabric/fabrictest"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/types"
)

// Differential schedule-equivalence suite: what a workload computes must
// not depend on the order in which the scheduler happens to run its
// runnable ranks. Every workload here runs under the production run-queue
// policy (FIFO) twice, and the two runs must be bit-identical, final
// virtual clocks included — that is the engine's determinism claim. It
// then runs under pickOrders seeded random run-queue orders (a test-only
// hook on the scheduler's pick function; every one of them is a schedule
// a correct MPI program must tolerate), and the per-rank digests and
// error classes must equal the FIFO run's bit for bit — p2p soaks,
// wildcard funnels, every collective family, derived communicators, and a
// full ULFM kill→revoke→shrink→agree recovery cycle.
//
// Digests deliberately exclude virtual timestamps: NIC reservations and
// the jitter RNG are consumed in delivery order, so times are a property
// of the schedule, not of the computation. What the seeded orders pin
// down is the MPI-visible contract — payload bytes, statuses folded
// commutatively where matching is nondeterministic by spec, and error
// codes.

// pickOrders is how many seeded run-queue orders each workload must agree
// with its FIFO run under.
const pickOrders = 16

// pickSeed narrows the suite to one seeded order, which is how a failure
// is replayed: the failing order prints the command line.
var pickSeed = flag.Uint64("pickseed", 0, "differential suites: run only this seeded run-queue order beside the FIFO reference")

// order names a run-queue policy for one differential run: 0 is the
// production FIFO, any other value seeds a random pick among the runnable
// fibers.
type order uint64

func (o order) String() string {
	if o == 0 {
		return "FIFO"
	}
	return fmt.Sprintf("run-queue order seed %d", uint64(o))
}

// repro is the command that reruns the calling (sub)test under o alone.
func (o order) repro(t *testing.T) string {
	parts := strings.Split(t.Name(), "/")
	for i, p := range parts {
		parts[i] = "^" + regexp.QuoteMeta(p) + "$"
	}
	return fmt.Sprintf("go test ./internal/mpicore -run '%s' -pickseed %d", strings.Join(parts, "/"), uint64(o))
}

// seededOrders lists the orders a workload runs under beside FIFO.
func seededOrders() []order {
	if *pickSeed != 0 {
		return []order{order(*pickSeed)}
	}
	out := make([]order, pickOrders)
	for i := range out {
		out[i] = order(i + 1)
	}
	return out
}

// modalResult is one rank's observable outcome.
type modalResult struct {
	digest uint64
	code   int
}

const fnvOffset = 14695981039346656037

// foldBytes extends an FNV-1a digest.
func foldBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// foldU64 folds a word into an FNV-1a digest.
func foldU64(h, v uint64) uint64 {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return foldBytes(h, b[:])
}

// lcg is a seeded 64-bit linear congruential generator — deterministic
// test data with no shared state between ranks.
func lcg(s *uint64) uint64 {
	*s = *s*6364136223846793005 + 1442695040888963407
	return *s
}

func fillLCG(b []byte, seed uint64) {
	s := seed
	for i := range b {
		b[i] = byte(lcg(&s) >> 56)
	}
}

// runOrdered executes fn on every rank of w under the given run-queue
// order and returns the per-rank results and final virtual clocks. A
// seeded order that fails — a rank error, a hang — logs its reproducer.
func runOrdered(t *testing.T, w *fabric.World, pol Policy, ord order, fn func(p *Proc) modalResult) ([]modalResult, []simnet.Time) {
	t.Helper()
	if ord != 0 {
		s := uint64(ord) * 0x9E3779B97F4A7C15
		w.SetPickForTest(func(queued int) int { return int((lcg(&s) >> 33) % uint64(queued)) })
		if !t.Failed() {
			defer func() {
				if t.Failed() {
					t.Logf("failed under %s; reproduce with: %s", ord, ord.repro(t))
				}
			}()
		}
	}
	results := make([]modalResult, w.Size())
	clocks := make([]simnet.Time, w.Size())
	fabrictest.Run(t, w, func(r int) error {
		results[r] = fn(NewProc(w, r, testConsts, testCodes, pol))
		clocks[r] = w.Endpoint(r).Clock().Now()
		return nil
	})
	return results, clocks
}

// runModal executes fn on every rank of a fresh n-rank single-node world,
// FIFO, and returns the per-rank results.
func runModal(t *testing.T, n int, pol Policy, fn func(p *Proc) modalResult) []modalResult {
	t.Helper()
	res, _ := runOrdered(t, fabrictest.World(t, n), pol, 0, fn)
	return res
}

// assertOrdersAgree runs the workload on worlds from newWorld: FIFO twice,
// demanding bit-identical per-rank outcomes and clocks (determinism), then
// under every seeded order, demanding the FIFO run's outcomes (schedule
// equivalence). It returns the FIFO results.
func assertOrdersAgree(t *testing.T, newWorld func() *fabric.World, pol Policy, fn func(p *Proc) modalResult) []modalResult {
	t.Helper()
	fifo, clocks := runOrdered(t, newWorld(), pol, 0, fn)
	again, clocksAgain := runOrdered(t, newWorld(), pol, 0, fn)
	for r := range fifo {
		if fifo[r] != again[r] || clocks[r] != clocksAgain[r] {
			t.Errorf("rank %d nondeterministic under FIFO: %+v at %v vs %+v at %v",
				r, fifo[r], clocks[r], again[r], clocksAgain[r])
		}
	}
	for _, ord := range seededOrders() {
		got, _ := runOrdered(t, newWorld(), pol, ord, fn)
		for r := range fifo {
			if got[r] != fifo[r] {
				t.Errorf("rank %d diverged under %s: %+v vs FIFO %+v; reproduce with: %s",
					r, ord, got[r], fifo[r], ord.repro(t))
			}
		}
	}
	return fifo
}

// p2pSoak pairs ranks across every hypercube dimension and Sendrecvs
// seeded payloads whose sizes straddle both policies' eager thresholds,
// then runs a nonblocking ring wave (Isend/Irecv/Waitall) to churn the
// request freelist. n must be a power of two.
func p2pSoak(seed uint64) func(p *Proc) modalResult {
	return func(p *Proc) modalResult {
		me, n := p.Rank(), p.size
		c := p.CommWorld
		bt := p.Predef(types.KindByte)
		h := uint64(fnvOffset)
		for d := 1; d < n; d++ {
			peer := me ^ d
			lo := me
			if peer < lo {
				lo = peer
			}
			sz := seed*1000003 + uint64(d)*8191 + uint64(lo)*131
			size := int(lcg(&sz)%20000) + 1
			out := make([]byte, size)
			fillLCG(out, seed^(uint64(me)<<32)^uint64(d))
			in := make([]byte, size)
			if code := p.Sendrecv(out, size, bt, peer, d, in, size, bt, peer, d, c, nil); code != testCodes.Success {
				return modalResult{h, code}
			}
			h = foldBytes(h, in)
		}
		// Nonblocking ring wave: 4 outstanding receives at once.
		const waves = 4
		reqs := make([]*Request, 0, 2*waves)
		ins := make([][]byte, waves)
		left, right := (me+n-1)%n, (me+1)%n
		for i := 0; i < waves; i++ {
			size := 100*i + 17
			ins[i] = make([]byte, size)
			rr, code := p.Irecv(ins[i], size, bt, left, 1000+i, c)
			if code != testCodes.Success {
				return modalResult{h, code}
			}
			out := make([]byte, size)
			fillLCG(out, seed^(uint64(me)<<16)^uint64(1000+i))
			sr, code := p.Isend(out, size, bt, right, 1000+i, c)
			if code != testCodes.Success {
				return modalResult{h, code}
			}
			reqs = append(reqs, rr)
			if sr != nil {
				reqs = append(reqs, sr)
			}
		}
		if code := p.Waitall(reqs, nil); code != testCodes.Success {
			return modalResult{h, code}
		}
		for _, in := range ins {
			h = foldBytes(h, in)
		}
		return modalResult{h, testCodes.Success}
	}
}

// wildcardFunnel drives every non-root rank's stream of tagged sends
// into AnySource receives at rank 0. Matching order is genuinely
// schedule-dependent (the MPI spec allows any interleaving across
// sources), so rank 0 folds per-message digests commutatively — the
// multiset of deliveries, not their order, is the invariant.
func wildcardFunnel(seed uint64) func(p *Proc) modalResult {
	const perRank = 16
	return func(p *Proc) modalResult {
		me, n := p.Rank(), p.size
		c := p.CommWorld
		bt := p.Predef(types.KindByte)
		if me != 0 {
			for i := 0; i < perRank; i++ {
				size := int(seed%500) + 32*i + me
				out := make([]byte, size)
				fillLCG(out, seed^uint64(me*1000+i))
				if code := p.Send(out, size, bt, 0, 5, c); code != testCodes.Success {
					return modalResult{0, code}
				}
			}
			return modalResult{0, testCodes.Success}
		}
		var sum uint64
		buf := make([]byte, 8192)
		for i := 0; i < perRank*(n-1); i++ {
			var st Status
			if code := p.Recv(buf, len(buf), bt, testConsts.AnySource, 5, c, &st); code != testCodes.Success {
				return modalResult{sum, code}
			}
			m := foldBytes(fnvOffset, buf[:st.CountBytes])
			sum += foldU64(m, uint64(st.Source)) // commutative across arrival orders
		}
		return modalResult{sum, testCodes.Success}
	}
}

// collectiveSweep runs every collective family over seeded int64 data and
// digests all result buffers. Counts straddle the policies' algorithm
// cutovers (binomial vs scatter-ring bcast, recursive-doubling vs
// ring/Rabenseifner allreduce, Bruck vs pairwise alltoall).
func collectiveSweep(seed uint64, count int) func(p *Proc) modalResult {
	return func(p *Proc) modalResult {
		me, n := p.Rank(), p.size
		c := p.CommWorld
		it := p.Predef(types.KindInt64)
		sum := p.PredefOp(ops.OpSum)
		h := uint64(fnvOffset)

		vals := make([]int64, count)
		s := seed ^ uint64(me)<<24
		for i := range vals {
			vals[i] = int64(lcg(&s) % 100000)
		}
		rb := make([]byte, count*8)
		if code := p.Allreduce(abi.Int64Bytes(vals), rb, count, it, sum, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, rb)

		root := int(seed) % n
		if code := p.Reduce(abi.Int64Bytes(vals), rb, count, it, sum, root, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		if me == root {
			h = foldBytes(h, rb)
		}
		if code := p.Bcast(rb, count, it, root, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, rb)

		if code := p.Barrier(c); code != testCodes.Success {
			return modalResult{h, code}
		}

		blk := count/4 + 1
		own := make([]int64, blk)
		for i := range own {
			own[i] = int64(me*blk + i)
		}
		var gbuf []byte
		if me == root {
			gbuf = make([]byte, n*blk*8)
		}
		if code := p.Gather(abi.Int64Bytes(own), blk, it, gbuf, blk, it, root, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		back := make([]byte, blk*8)
		if code := p.Scatter(gbuf, blk, it, back, blk, it, root, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, back)

		ag := make([]byte, n*blk*8)
		if code := p.Allgather(abi.Int64Bytes(own), blk, it, ag, blk, it, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, ag)

		a2aOut := make([]int64, n*blk)
		s = seed ^ uint64(me)<<8
		for i := range a2aOut {
			a2aOut[i] = int64(lcg(&s) % 7919)
		}
		a2aIn := make([]byte, n*blk*8)
		if code := p.Alltoall(abi.Int64Bytes(a2aOut), blk, it, a2aIn, blk, it, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, a2aIn)
		return modalResult{h, testCodes.Success}
	}
}

// derivedComms splits the world into parity halves, reduces within each
// half, then allgathers over a dup of the world — communicator creation
// (CID agreement) and collectives on derived comms.
func derivedComms(seed uint64) func(p *Proc) modalResult {
	return func(p *Proc) modalResult {
		me, n := p.Rank(), p.size
		it := p.Predef(types.KindInt64)
		sum := p.PredefOp(ops.OpSum)
		h := uint64(fnvOffset)

		half, code := p.CommSplit(p.CommWorld, me%2, me)
		if code != testCodes.Success {
			return modalResult{h, code}
		}
		vals := []int64{int64(seed) + int64(me)*7, int64(me) - 3}
		rb := make([]byte, 16)
		if code := p.Allreduce(abi.Int64Bytes(vals), rb, 2, it, sum, half); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, rb)

		dup, code := p.CommDup(p.CommWorld)
		if code != testCodes.Success {
			return modalResult{h, code}
		}
		ag := make([]byte, n*16)
		if code := p.Allgather(rb, 2, it, ag, 2, it, dup); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, ag)
		h = foldU64(foldU64(h, uint64(half.CID)), uint64(dup.CID))
		return modalResult{h, testCodes.Success}
	}
}

// ulfmRecoveryCycle is the fault scenario: after a clean allreduce the
// victim kills itself mid-world; the detector (rank 0) observes
// ErrProcFailed on a directed recv and revokes the world; every other
// survivor observes ErrRevoked; then all survivors shrink, agree, and
// complete a collective on the shrunken communicator. The error class
// each rank records is forced by construction, so it must be identical
// across schedules — the suite's strongest claim, since fault timing is
// where schedules differ most.
func ulfmRecoveryCycle(seed uint64) func(p *Proc) modalResult {
	return func(p *Proc) modalResult {
		me, n := p.Rank(), p.size
		victim := n - 1
		c := p.CommWorld
		it := p.Predef(types.KindInt64)
		bt := p.Predef(types.KindByte)
		sum := p.PredefOp(ops.OpSum)
		h := uint64(fnvOffset)

		vals := []int64{int64(seed) * int64(me+1)}
		rb := make([]byte, 8)
		if code := p.Allreduce(abi.Int64Bytes(vals), rb, 1, it, sum, c); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, rb)

		if me == victim {
			p.world.Kill(victim)
			p.world.NotifyFailure(victim)
			return modalResult{h, testCodes.Success}
		}

		var observed int
		buf := make([]byte, 8)
		if me == 0 {
			// Tag 99 is never sent: only the failure sweep can complete
			// this, so the detector's class is ErrProcFailed by
			// construction.
			observed = p.Recv(buf, 8, bt, victim, 99, c, nil)
			p.CommRevoke(c)
		} else {
			// Tag 98 is never sent either, and rank 0 stays alive: only
			// the revocation can complete this — ErrRevoked by
			// construction.
			observed = p.Recv(buf, 8, bt, 0, 98, c, nil)
		}
		h = foldU64(h, uint64(observed))

		nc, code := p.CommShrink(c)
		if code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldU64(h, uint64(len(nc.Ranks)))

		flag := ^uint64(0) &^ (1 << uint(me))
		agreed, code := p.CommAgree(nc, flag)
		if code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldU64(h, agreed)

		if code := p.Allreduce(abi.Int64Bytes(vals), rb, 1, it, sum, nc); code != testCodes.Success {
			return modalResult{h, code}
		}
		h = foldBytes(h, rb)
		return modalResult{h, observed}
	}
}

// TestModeEquivalence is the differential matrix: seeds × policies ×
// workloads, FIFO (×2) vs pickOrders seeded run-queue orders per cell.
func TestModeEquivalence(t *testing.T) {
	type workload struct {
		name string
		n    int
		fn   func(seed uint64) func(p *Proc) modalResult
	}
	workloads := []workload{
		{"p2p-soak", 8, p2pSoak},
		{"wildcard-funnel", 6, wildcardFunnel},
		{"collectives-small", 5, func(s uint64) func(p *Proc) modalResult { return collectiveSweep(s, 9) }},
		{"collectives-large", 8, func(s uint64) func(p *Proc) modalResult { return collectiveSweep(s, 3000) }},
		{"derived-comms", 6, derivedComms},
		{"ulfm-recovery", 5, ulfmRecoveryCycle},
	}
	for polName, pol := range testPolicies() {
		for _, wl := range workloads {
			for _, seed := range []uint64{1, 0xC0FFEE} {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", polName, wl.name, seed), func(t *testing.T) {
					pol := pol
					assertOrdersAgree(t, func() *fabric.World { return fabrictest.World(t, wl.n) }, pol, wl.fn(seed))
				})
			}
		}
	}
}

// TestEventModeWorksAtScale is a correctness (not bench) smoke at a rank
// count no figure reaches: a 512-rank allreduce + barrier with verified
// math.
func TestEventModeWorksAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("512-rank world in -short mode")
	}
	const n = 512
	pol := testPolicies()["treeish"]
	res := runModal(t, n, pol, func(p *Proc) modalResult {
		c := p.CommWorld
		it := p.Predef(types.KindInt64)
		sum := p.PredefOp(ops.OpSum)
		vals := []int64{int64(p.Rank() + 1)}
		rb := make([]byte, 8)
		if code := p.Allreduce(abi.Int64Bytes(vals), rb, 1, it, sum, c); code != testCodes.Success {
			return modalResult{0, code}
		}
		if got := abi.Int64sOf(rb)[0]; got != int64(n)*(n+1)/2 {
			return modalResult{uint64(got), testCodes.ErrOther}
		}
		if code := p.Barrier(c); code != testCodes.Success {
			return modalResult{0, code}
		}
		return modalResult{1, testCodes.Success}
	})
	for r, m := range res {
		if m.code != testCodes.Success || m.digest != 1 {
			t.Fatalf("rank %d: %+v", r, m)
		}
	}
}
