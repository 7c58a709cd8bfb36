package mpicore

import (
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/fabric/fabrictest"
	"repro/internal/ops"
	"repro/internal/types"
)

// Test vocabulary: the runtime must work under ANY constant/code tables,
// so the tests use deliberately odd ones (none of the three shipping
// implementations' values) to catch hardcoded constants.
var testConsts = Consts{
	AnySource: -7,
	AnyTag:    -8,
	ProcNull:  -9,
	TagUB:     1 << 20,
	Undefined: -4242,
}

var testCodes = Codes{
	Success: 0, ErrBuffer: 101, ErrCount: 102, ErrType: 103, ErrTag: 104,
	ErrComm: 105, ErrRank: 106, ErrRoot: 107, ErrGroup: 108, ErrOp: 109,
	ErrArg: 110, ErrTruncate: 111, ErrRequest: 112, ErrIntern: 113, ErrOther: 114,
	ErrProcFailed: 171, ErrRevoked: 172,
}

// testPolicies is one policy per algorithm family, so every algorithm in
// the shared set is exercised through the same assertions.
func testPolicies() map[string]Policy {
	mpichish := Policy{
		EagerMax:  16 * 1024,
		DeriveCID: FNV1aCIDDeriver(),
		Barrier:   func(p *Proc, c *Comm, tag int32) int { return p.BarrierDissemination(c, tag) },
		Bcast: func(p *Proc, c *Comm, packed []byte, root int, tag int32) int {
			if len(packed) <= 12288 {
				return p.BcastBinomial(c, packed, root, tag)
			}
			return p.BcastScatterRing(c, packed, root, tag)
		},
		Reduce: func(p *Proc, c *Comm, acc []byte, o *Op, k types.Kind, root int, tag int32) int {
			return p.ReduceBinomial(c, acc, o, k, root, tag)
		},
		Allreduce: func(p *Proc, c *Comm, acc []byte, o *Op, k types.Kind, tag int32) int {
			n := c.Size()
			if len(acc) > 2048 && n&(n-1) == 0 && len(acc)/k.Size() >= n {
				return p.AllreduceRabenseifner(c, acc, o, k, tag)
			}
			return p.AllreduceRecDoubling(c, acc, o, k, tag, 62)
		},
		Gather: func(p *Proc, c *Comm, own, region []byte, blockSz, root int, tag int32) int {
			return p.GatherBinomial(c, own, region, blockSz, root, tag)
		},
		Scatter: func(p *Proc, c *Comm, region, own []byte, blockSz, root int, tag int32) int {
			return p.ScatterBinomial(c, region, own, blockSz, root, tag)
		},
		Allgather: func(p *Proc, c *Comm, region []byte, blockSz int, tag int32) int {
			n := c.Size()
			if n&(n-1) == 0 && n*blockSz <= 32768 {
				return p.AllgatherRecDoubling(c, region, blockSz, tag)
			}
			return p.AllgatherRing(c, region, blockSz, tag)
		},
		Alltoall: func(p *Proc, c *Comm, out, in []byte, blockSz int, tag int32) int {
			switch {
			case blockSz <= 256:
				return p.AlltoallBruck(c, out, in, blockSz, tag)
			case blockSz < 32768:
				return p.AlltoallOverlap(c, out, in, blockSz, tag)
			default:
				return p.AlltoallPairwise(c, out, in, blockSz, tag)
			}
		},
	}
	ompish := Policy{
		EagerMax:  4 * 1024,
		DeriveCID: SaltedCIDDeriver('T'),
		Barrier:   func(p *Proc, c *Comm, tag int32) int { return p.BarrierRDFold(c, tag) },
		Bcast: func(p *Proc, c *Comm, packed []byte, root int, tag int32) int {
			if len(packed) <= 8192 {
				return p.BcastBinaryTree(c, packed, root, tag)
			}
			return p.BcastChain(c, packed, root, tag, 4096)
		},
		Reduce: func(p *Proc, c *Comm, acc []byte, o *Op, k types.Kind, root int, tag int32) int {
			return p.ReduceBinaryTree(c, acc, o, k, root, tag)
		},
		Allreduce: func(p *Proc, c *Comm, acc []byte, o *Op, k types.Kind, tag int32) int {
			if len(acc) > 2048 && len(acc)/k.Size() >= c.Size() {
				return p.AllreduceRing(c, acc, o, k, tag)
			}
			return p.AllreduceRecDoubling(c, acc, o, k, tag, 63)
		},
		Gather: func(p *Proc, c *Comm, own, region []byte, blockSz, root int, tag int32) int {
			return p.GatherLinear(c, own, region, blockSz, root, tag)
		},
		Scatter: func(p *Proc, c *Comm, region, own []byte, blockSz, root int, tag int32) int {
			return p.ScatterLinear(c, region, own, blockSz, root, tag)
		},
		Allgather: func(p *Proc, c *Comm, region []byte, blockSz int, tag int32) int {
			if blockSz <= 1024 {
				return p.AllgatherBruck(c, region, blockSz, tag)
			}
			return p.AllgatherRing(c, region, blockSz, tag)
		},
		Alltoall: func(p *Proc, c *Comm, out, in []byte, blockSz int, tag int32) int {
			if blockSz <= 200 && c.Size() > 2 {
				return p.AlltoallBruck(c, out, in, blockSz, tag)
			}
			return p.AlltoallOverlap(c, out, in, blockSz, tag)
		},
	}
	return map[string]Policy{"treeish": mpichish, "tuned": ompish}
}

// runSPMD launches fn on n ranks under the given policy.
func runSPMD(t *testing.T, n int, pol Policy, fn func(p *Proc) error) {
	t.Helper()
	w := fabrictest.World(t, n)
	fabrictest.Run(t, w, func(r int) error {
		return fn(NewProc(w, r, testConsts, testCodes, pol))
	})
}

// TestCollectivesUnderEveryPolicy runs the same verification program
// under both algorithm personalities: same math, different wire
// schedules — the invariant the scenario matrix's cross-implementation
// claims rest on.
func TestCollectivesUnderEveryPolicy(t *testing.T) {
	for name, pol := range testPolicies() {
		for _, n := range []int{1, 2, 3, 4, 5, 8} {
			for _, count := range []int{1, 700, 3000} {
				t.Run(fmt.Sprintf("%s/n=%d/count=%d", name, n, count), func(t *testing.T) {
					pol := pol
					runSPMD(t, n, pol, func(p *Proc) error {
						c := p.CommWorld
						me := c.MyPos
						it := p.Predef(types.KindInt64)
						sum := p.PredefOp(ops.OpSum)

						vals := make([]int64, count)
						for i := range vals {
							vals[i] = int64(me+1) * int64(i%11+1)
						}
						rb := make([]byte, count*8)
						if code := p.Allreduce(abi.Int64Bytes(vals), rb, count, it, sum, c); code != 0 {
							return fmt.Errorf("allreduce code %d", code)
						}
						tri := int64(n * (n + 1) / 2)
						for i, v := range abi.Int64sOf(rb) {
							if v != tri*int64(i%11+1) {
								return fmt.Errorf("allreduce elem %d = %d", i, v)
							}
						}

						root := n - 1
						if code := p.Reduce(abi.Int64Bytes(vals), rb, count, it, sum, root, c); code != 0 {
							return fmt.Errorf("reduce code %d", code)
						}
						if me == root {
							for i, v := range abi.Int64sOf(rb) {
								if v != tri*int64(i%11+1) {
									return fmt.Errorf("reduce elem %d = %d", i, v)
								}
							}
						}

						bc := make([]byte, count*8)
						if me == root {
							copy(bc, rb)
						}
						if code := p.Bcast(bc, count, it, root, c); code != 0 {
							return fmt.Errorf("bcast code %d", code)
						}
						for i, v := range abi.Int64sOf(bc) {
							if v != tri*int64(i%11+1) {
								return fmt.Errorf("bcast elem %d = %d", i, v)
							}
						}

						// Gather + scatter round trip.
						sb := abi.Int64Bytes([]int64{int64(me), int64(me * 3)})
						var gbuf []byte
						if me == root {
							gbuf = make([]byte, n*16)
						}
						if code := p.Gather(sb, 2, it, gbuf, 2, it, root, c); code != 0 {
							return fmt.Errorf("gather code %d", code)
						}
						if me == root {
							got := abi.Int64sOf(gbuf)
							for r := 0; r < n; r++ {
								if got[2*r] != int64(r) || got[2*r+1] != int64(r*3) {
									return fmt.Errorf("gather block %d = %v", r, got[2*r:2*r+2])
								}
							}
						}
						back := make([]byte, 16)
						if code := p.Scatter(gbuf, 2, it, back, 2, it, root, c); code != 0 {
							return fmt.Errorf("scatter code %d", code)
						}
						if got := abi.Int64sOf(back); got[0] != int64(me) || got[1] != int64(me*3) {
							return fmt.Errorf("scatter = %v", got)
						}

						// Allgather.
						ab := make([]byte, n*8)
						if code := p.Allgather(abi.Int64Bytes([]int64{int64(me * 7)}), 1, it, ab, 1, it, c); code != 0 {
							return fmt.Errorf("allgather code %d", code)
						}
						for r, v := range abi.Int64sOf(ab) {
							if v != int64(r*7) {
								return fmt.Errorf("allgather block %d = %d", r, v)
							}
						}

						// Alltoall.
						av := make([]int64, n)
						for d := 0; d < n; d++ {
							av[d] = int64(me*1000 + d)
						}
						arb := make([]byte, n*8)
						if code := p.Alltoall(abi.Int64Bytes(av), 1, it, arb, 1, it, c); code != 0 {
							return fmt.Errorf("alltoall code %d", code)
						}
						for s, v := range abi.Int64sOf(arb) {
							if v != int64(s*1000+me) {
								return fmt.Errorf("alltoall from %d = %d", s, v)
							}
						}
						return codeOf(p.Barrier(c))
					})
				})
			}
		}
	}
}

// TestWildcardsUseInjectedConsts verifies matching honors whatever
// constant vocabulary the implementation supplies — the property that
// lets three ABIs share one matcher.
func TestWildcardsUseInjectedConsts(t *testing.T) {
	pol := testPolicies()["treeish"]
	runSPMD(t, 3, pol, func(p *Proc) error {
		c := p.CommWorld
		bt := p.Predef(types.KindByte)
		if c.MyPos != 0 {
			return codeOf(p.Send([]byte{byte(c.MyPos)}, 1, bt, 0, 40+c.MyPos, c))
		}
		seen := map[int32]bool{}
		for i := 0; i < 2; i++ {
			buf := make([]byte, 1)
			var st Status
			if code := p.Recv(buf, 1, bt, testConsts.AnySource, testConsts.AnyTag, c, &st); code != 0 {
				return fmt.Errorf("wildcard recv code %d", code)
			}
			if st.Tag != 40+st.Source {
				return fmt.Errorf("tag %d for source %d", st.Tag, st.Source)
			}
			seen[st.Source] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("missing senders: %v", seen)
		}
		// PROC_NULL sentinel round-trips through the injected vocabulary.
		var st Status
		if code := p.Recv(nil, 0, bt, testConsts.ProcNull, 0, c, &st); code != 0 {
			return fmt.Errorf("proc-null recv code %d", code)
		}
		if st.Source != int32(testConsts.ProcNull) || st.Tag != int32(testConsts.AnyTag) {
			return fmt.Errorf("proc-null status %+v", st)
		}
		return nil
	})
}

// TestErrorCodesUseInjectedTable verifies the runtime reports errors in
// the implementation's own numbering.
func TestErrorCodesUseInjectedTable(t *testing.T) {
	pol := testPolicies()["tuned"]
	runSPMD(t, 1, pol, func(p *Proc) error {
		bt := p.Predef(types.KindByte)
		if code := p.Send(nil, 1, bt, 0, 0, nil); code != testCodes.ErrComm {
			return fmt.Errorf("nil comm = %d, want %d", code, testCodes.ErrComm)
		}
		if code := p.Send(nil, 1, nil, 0, 0, p.CommWorld); code != testCodes.ErrType {
			return fmt.Errorf("nil type = %d, want %d", code, testCodes.ErrType)
		}
		if code := p.Send(nil, 1, bt, 5, 0, p.CommWorld); code != testCodes.ErrRank {
			return fmt.Errorf("bad rank = %d, want %d", code, testCodes.ErrRank)
		}
		if code := p.Send(nil, -1, bt, 0, 0, p.CommWorld); code != testCodes.ErrCount {
			return fmt.Errorf("bad count = %d, want %d", code, testCodes.ErrCount)
		}
		if code := p.Bcast(nil, 1, bt, 7, p.CommWorld); code != testCodes.ErrRoot {
			return fmt.Errorf("bad root = %d, want %d", code, testCodes.ErrRoot)
		}
		return nil
	})
}

// TestTruncationCarriesInjectedCode checks the in-status error code uses
// the injected table too.
func TestTruncationCarriesInjectedCode(t *testing.T) {
	pol := testPolicies()["treeish"]
	runSPMD(t, 2, pol, func(p *Proc) error {
		bt := p.Predef(types.KindByte)
		if p.Rank() == 0 {
			return codeOf(p.Send(make([]byte, 100), 100, bt, 1, 0, p.CommWorld))
		}
		var st Status
		code := p.Recv(make([]byte, 10), 10, bt, 0, 0, p.CommWorld, &st)
		if code != testCodes.ErrTruncate {
			return fmt.Errorf("code = %d, want %d", code, testCodes.ErrTruncate)
		}
		if st.Error != int32(testCodes.ErrTruncate) || st.CountBytes != 10 {
			return fmt.Errorf("status = %+v", st)
		}
		return nil
	})
}

// TestCIDDeriversProduceDistinctStreams checks the per-implementation
// salt actually separates the context-id streams.
func TestCIDDeriversProduceDistinctStreams(t *testing.T) {
	a := FNV1aCIDDeriver()
	b := SaltedCIDDeriver('O')
	c := SaltedCIDDeriver('S')
	distinct := 0
	for ord := uint32(1); ord < 50; ord++ {
		x, y, z := a(1, ord), b(1, ord), c(1, ord)
		if x != y && y != z && x != z {
			distinct++
		}
		for _, v := range []uint32{x, y, z} {
			if v <= 2 || v&collCIDBit != 0 {
				t.Fatalf("derived cid %#x collides with reserved space", v)
			}
		}
	}
	if distinct < 45 {
		t.Fatalf("cid streams overlap too often: %d/49 fully distinct", distinct)
	}
}

// TestCommSplitAndDupIsolation: derived communicators built by the shared
// runtime must isolate traffic by cid.
func TestCommSplitAndDupIsolation(t *testing.T) {
	pol := testPolicies()["tuned"]
	runSPMD(t, 4, pol, func(p *Proc) error {
		c := p.CommWorld
		bt := p.Predef(types.KindByte)
		dup, code := p.CommDup(c)
		if code != 0 {
			return fmt.Errorf("dup code %d", code)
		}
		if dup.CID == c.CID {
			return fmt.Errorf("dup shares the parent's cid")
		}
		me := c.MyPos
		if me == 0 {
			if code := p.Send([]byte{1}, 1, bt, 1, 0, c); code != 0 {
				return codeOf(code)
			}
			if code := p.Send([]byte{2}, 1, bt, 1, 0, dup); code != 0 {
				return codeOf(code)
			}
		}
		if me == 1 {
			buf := make([]byte, 1)
			if code := p.Recv(buf, 1, bt, 0, 0, dup, nil); code != 0 || buf[0] != 2 {
				return fmt.Errorf("dup recv = %d (code %d)", buf[0], code)
			}
			if code := p.Recv(buf, 1, bt, 0, 0, c, nil); code != 0 || buf[0] != 1 {
				return fmt.Errorf("world recv = %d (code %d)", buf[0], code)
			}
		}
		sub, code := p.CommSplit(c, me%2, -me)
		if code != 0 {
			return fmt.Errorf("split code %d", code)
		}
		if sub.Size() != 2 {
			return fmt.Errorf("split size = %d", sub.Size())
		}
		out := make([]byte, 8)
		it := p.Predef(types.KindInt64)
		if code := p.Allreduce(abi.Int64Bytes([]int64{int64(me)}), out, 1, it, p.PredefOp(ops.OpSum), sub); code != 0 {
			return fmt.Errorf("split allreduce code %d", code)
		}
		want := int64(0 + 2)
		if me%2 == 1 {
			want = 1 + 3
		}
		if got := abi.Int64sOf(out)[0]; got != want {
			return fmt.Errorf("split allreduce = %d, want %d", got, want)
		}
		return nil
	})
}

// posOfScan is PosOf's oracle: the linear scan over the rank table it
// replaced.
func posOfScan(c *Comm, world int) int {
	for i, r := range c.Ranks {
		if r == world {
			return i
		}
	}
	return -1
}

// checkPosOf compares PosOf with the oracle for every world rank of an
// n-rank world and the out-of-range values around it.
func checkPosOf(name string, c *Comm, n int) error {
	for w := -2; w <= n+1; w++ {
		if got, want := c.PosOf(w), posOfScan(c, w); got != want {
			return fmt.Errorf("%s (ranks %v): PosOf(%d) = %d, want %d", name, c.Ranks, w, got, want)
		}
	}
	return nil
}

// TestPosOfMatchesLinearScan: the identity fast path and the inverse index
// agree with the linear scan on every kind of communicator the runtime
// builds, members and non-members (-1) alike.
func TestPosOfMatchesLinearScan(t *testing.T) {
	pol := testPolicies()["treeish"]
	const n = 6
	runSPMD(t, n, pol, func(p *Proc) error {
		me := p.Rank()
		comms := map[string]*Comm{"world": p.CommWorld, "self": p.CommSelf}
		var code int
		if comms["dup"], code = p.CommDup(p.CommWorld); code != 0 {
			return fmt.Errorf("dup code %d", code)
		}
		// Two halves, each in descending world-rank order.
		if comms["split"], code = p.CommSplit(p.CommWorld, me%2, -me); code != 0 {
			return fmt.Errorf("split code %d", code)
		}
		// Everyone, reversed: a full-size communicator that is not the identity.
		if comms["reversed"], code = p.CommSplit(p.CommWorld, 0, -me); code != 0 {
			return fmt.Errorf("reversed split code %d", code)
		}
		if comms["dup-of-split"], code = p.CommDup(comms["split"]); code != 0 {
			return fmt.Errorf("dup of split code %d", code)
		}
		for name, c := range comms {
			if err := checkPosOf(name, c, n); err != nil {
				return err
			}
			if c.PosOf(me) != c.MyPos {
				return fmt.Errorf("%s: PosOf(me) = %d, MyPos = %d", name, c.PosOf(me), c.MyPos)
			}
		}
		return nil
	})
	// Shrunk: the world minus a dead rank in the middle.
	const victim = 2
	runSPMD(t, n, pol, func(p *Proc) error {
		if p.Rank() == victim {
			p.World().Kill(victim)
			p.World().NotifyFailure(victim)
			return nil
		}
		nc, code := p.CommShrink(p.CommWorld)
		if code != testCodes.Success {
			return fmt.Errorf("shrink = %d", code)
		}
		if nc.PosOf(victim) != -1 {
			return fmt.Errorf("shrunk: PosOf(victim) = %d, want -1", nc.PosOf(victim))
		}
		return checkPosOf("shrunk", nc, n)
	})
}

// TestCommSplitColorsNeverAlias: colors congruent mod 256 must yield
// distinct context ids (the historical implementations truncated the
// color to 8 bits, aliasing such subcommunicators onto one cid and
// silently cross-matching their traffic).
func TestCommSplitColorsNeverAlias(t *testing.T) {
	pol := testPolicies()["treeish"]
	cids := make([]uint32, 2)
	runSPMD(t, 2, pol, func(p *Proc) error {
		me := p.CommWorld.MyPos
		sub, code := p.CommSplit(p.CommWorld, 1+256*me, 0)
		if code != 0 {
			return fmt.Errorf("split code %d", code)
		}
		if sub.Size() != 1 {
			return fmt.Errorf("split size = %d, want singleton", sub.Size())
		}
		cids[me] = sub.CID
		return nil
	})
	if cids[0] == cids[1] {
		t.Fatalf("colors 1 and 257 aliased onto cid %#x", cids[0])
	}
}

func codeOf(code int) error {
	if code != 0 {
		return fmt.Errorf("code %d", code)
	}
	return nil
}
