package mpicore_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/fabric/fabrictest"
	"repro/internal/mpich"
	"repro/internal/mpicore"
	"repro/internal/ops"
	"repro/internal/simnet"
	"repro/internal/types"
)

// collFamily is the generic wrapper an algorithm is driven through.
type collFamily int

const (
	famBarrier collFamily = iota
	famBcast
	famReduce
	famAllreduce
	famGather
	famScatter
	famAllgather
	famAlltoall
)

func (f collFamily) rooted() bool {
	return f == famBcast || f == famReduce || f == famGather || f == famScatter
}

func (f collFamily) reduces() bool { return f == famReduce || f == famAllreduce }

// collAlgo is one algorithm of the shared set, installed as the only
// selection of its family's Policy slot.
type collAlgo struct {
	name string
	fam  collFamily
	pow2 bool // defined on power-of-two communicators only
	set  func(pol *mpicore.Policy)
}

// Short names for the algorithm signatures below.
type (
	proc = mpicore.Proc
	comm = mpicore.Comm
	mop  = mpicore.Op
)

func barrierAlgo(name string, f func(p *proc, c *comm, tag int32) int) collAlgo {
	return collAlgo{name, famBarrier, false, func(pol *mpicore.Policy) { pol.Barrier = f }}
}

func bcastAlgo(name string, f func(p *proc, c *comm, packed []byte, root int, tag int32) int) collAlgo {
	return collAlgo{name, famBcast, false, func(pol *mpicore.Policy) { pol.Bcast = f }}
}

func reduceAlgo(name string, f func(p *proc, c *comm, acc []byte, o *mop, k types.Kind, root int, tag int32) int) collAlgo {
	return collAlgo{name, famReduce, false, func(pol *mpicore.Policy) { pol.Reduce = f }}
}

func allreduceAlgo(name string, pow2 bool, f func(p *proc, c *comm, acc []byte, o *mop, k types.Kind, tag int32) int) collAlgo {
	return collAlgo{name, famAllreduce, pow2, func(pol *mpicore.Policy) { pol.Allreduce = f }}
}

func gatherAlgo(name string, f func(p *proc, c *comm, own, region []byte, blockSz, root int, tag int32) int) collAlgo {
	return collAlgo{name, famGather, false, func(pol *mpicore.Policy) { pol.Gather = f }}
}

func scatterAlgo(name string, f func(p *proc, c *comm, region, own []byte, blockSz, root int, tag int32) int) collAlgo {
	return collAlgo{name, famScatter, false, func(pol *mpicore.Policy) { pol.Scatter = f }}
}

func allgatherAlgo(name string, pow2 bool, f func(p *proc, c *comm, region []byte, blockSz int, tag int32) int) collAlgo {
	return collAlgo{name, famAllgather, pow2, func(pol *mpicore.Policy) { pol.Allgather = f }}
}

func alltoallAlgo(name string, f func(p *proc, c *comm, out, in []byte, blockSz int, tag int32) int) collAlgo {
	return collAlgo{name, famAlltoall, false, func(pol *mpicore.Policy) { pol.Alltoall = f }}
}

func recDoubling(unfold int32) func(p *proc, c *comm, acc []byte, o *mop, k types.Kind, tag int32) int {
	return func(p *proc, c *comm, acc []byte, o *mop, k types.Kind, tag int32) int {
		return p.AllreduceRecDoubling(c, acc, o, k, tag, unfold)
	}
}

// collAlgos is the whole algorithm set, AllreduceRecDoubling once per
// unfold round an implementation uses.
var collAlgos = []collAlgo{
	barrierAlgo("BarrierDissemination", (*proc).BarrierDissemination),
	barrierAlgo("BarrierRDFold", (*proc).BarrierRDFold),
	bcastAlgo("BcastBinomial", (*proc).BcastBinomial),
	bcastAlgo("BcastScatterRing", (*proc).BcastScatterRing),
	bcastAlgo("BcastBinaryTree", (*proc).BcastBinaryTree),
	bcastAlgo("BcastChain/4096", func(p *proc, c *comm, packed []byte, root int, tag int32) int {
		return p.BcastChain(c, packed, root, tag, 4096)
	}),
	reduceAlgo("ReduceBinomial", (*proc).ReduceBinomial),
	reduceAlgo("ReduceBinaryTree", (*proc).ReduceBinaryTree),
	allreduceAlgo("AllreduceRecDoubling/61", false, recDoubling(61)),
	allreduceAlgo("AllreduceRecDoubling/62", false, recDoubling(62)),
	allreduceAlgo("AllreduceRecDoubling/63", false, recDoubling(63)),
	allreduceAlgo("AllreduceRabenseifner", true, (*proc).AllreduceRabenseifner),
	allreduceAlgo("AllreduceRing", false, (*proc).AllreduceRing),
	gatherAlgo("GatherBinomial", (*proc).GatherBinomial),
	gatherAlgo("GatherLinear", (*proc).GatherLinear),
	scatterAlgo("ScatterBinomial", (*proc).ScatterBinomial),
	scatterAlgo("ScatterLinear", (*proc).ScatterLinear),
	allgatherAlgo("AllgatherRecDoubling", true, (*proc).AllgatherRecDoubling),
	allgatherAlgo("AllgatherRing", false, (*proc).AllgatherRing),
	allgatherAlgo("AllgatherBruck", false, (*proc).AllgatherBruck),
	alltoallAlgo("AlltoallBruck", (*proc).AlltoallBruck),
	alltoallAlgo("AlltoallOverlap", (*proc).AlltoallOverlap),
	alltoallAlgo("AlltoallPairwise", (*proc).AlltoallPairwise),
}

// algoWorld is an n-rank world with one rank per node, so every message
// crosses a NIC and the clocks depend on the order of the sends.
func algoWorld(t *testing.T, n int) *fabric.World {
	t.Helper()
	cfg := simnet.Discovery10GbE()
	cfg.Nodes, cfg.RanksPerNode, cfg.JitterFrac = n, 1, 0
	w, err := fabric.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// algoCall is one wrapper call of a transcript row: the root, the packed
// bytes per block (per rank for Bcast, Reduce and Allreduce), and whether
// the datatype has holes, which sends the wrapper down its pack path.
type algoCall struct {
	root, bytes int
	holes       bool
}

func (a algoCall) String() string {
	dt := "contig"
	if a.holes {
		dt = "vector"
	}
	return fmt.Sprintf("root=%d bytes=%d %s", a.root, a.bytes, dt)
}

// algoCalls lists a row's calls: per root, three block sizes (one below
// 4 KiB, one between 4 and 16 KiB, one above 16 KiB, so each is on both
// sides of either EagerMax), then the middle size with holes.
func algoCalls(fam collFamily, n int) []algoCall {
	if fam == famBarrier {
		return []algoCall{{}, {}}
	}
	roots := []int{0}
	if fam.rooted() {
		for _, r := range []int{n / 2, n - 1} {
			if r != roots[len(roots)-1] && r != 0 {
				roots = append(roots, r)
			}
		}
	}
	var calls []algoCall
	for _, root := range roots {
		for _, b := range []int{1000, 8008, 20800} {
			calls = append(calls, algoCall{root, b, false})
		}
		calls = append(calls, algoCall{root, 8008, true})
	}
	return calls
}

// Seeded input pools, drawn once: a call's buffers are copies of
// windows of them. The float pool's sums are inexact, so a reduction's
// digest pins its fold order.
var bytePool, floatPool = func() ([]byte, []byte) {
	bp, fp := make([]byte, 1<<20), make([]byte, 1<<20)
	seeded(bp, 1)
	s := uint64(2)
	for i := 0; i < len(fp); i += 8 {
		s = s*6364136223846793005 + 1442695040888963407
		binary.LittleEndian.PutUint64(fp[i:], math.Float64bits(float64(int64(s>>40)-1<<23)/7))
	}
	return bp, fp
}()

// wordHash is a fast FNV-style digest of b, eight bytes a step: the
// outputs here run to megabytes per row.
func wordHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 1099511628211
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// algoOutcome is one rank's side of one call.
type algoOutcome struct {
	code   int
	clock  simnet.Time
	digest uint64
}

// runAlgoCall makes one wrapper call on p and digests its output. It
// fails if the call wrote its input.
// bufs is the rank's pair of buffers, reused from call to call.
func runAlgoCall(p *mpicore.Proc, fam collFamily, a algoCall, seed uint64, bufs *[2][]byte) (int, uint64, error) {
	c := p.CommWorld
	n := c.Size()
	if fam == famBarrier {
		return p.Barrier(c), 0, nil
	}
	elem, pool := types.KindByte, bytePool
	if fam.reduces() {
		elem, pool = types.KindFloat64, floatPool
	}
	dt := p.Predef(elem)
	if a.holes { // two elements over a three-element extent
		if !fam.reduces() {
			elem = types.KindInt32
		}
		var code int
		if dt, code = p.TypeVector(2, 1, 2, p.Predef(elem)); code == 0 {
			code = p.TypeCommit(dt)
		}
		if code != 0 {
			return code, 0, nil
		}
	}
	count := a.bytes / dt.T.Size()
	span := count * dt.T.Extent()
	// fresh copies a seed-chosen window of the pool; the output starts
	// as one too, so a byte the call leaves unwritten shows in the digest.
	var orig []byte
	used := 0
	fresh := func(size int) []byte {
		seed = seed*6364136223846793005 + 1442695040888963407
		off := int(seed>>24) % (len(pool) - size + 1) &^ 7
		orig = pool[off : off+size]
		b := &bufs[used]
		used++
		if cap(*b) < size {
			*b = make([]byte, size)
		}
		*b = (*b)[:size]
		copy(*b, orig)
		return *b
	}
	var code int
	var send, recv []byte
	switch fam {
	case famBcast:
		recv = fresh(span)
		code = p.Bcast(recv, count, dt, a.root, c)
		return code, wordHash(recv), nil
	case famReduce:
		recv, send = fresh(span), fresh(span)
		code = p.Reduce(send, recv, count, dt, p.PredefOp(ops.OpSum), a.root, c)
	case famAllreduce:
		recv, send = fresh(span), fresh(span)
		code = p.Allreduce(send, recv, count, dt, p.PredefOp(ops.OpSum), c)
	case famGather:
		recv, send = fresh(n*span), fresh(span)
		code = p.Gather(send, count, dt, recv, count, dt, a.root, c)
	case famScatter:
		recv, send = fresh(span), fresh(n*span)
		code = p.Scatter(send, count, dt, recv, count, dt, a.root, c)
	case famAllgather:
		recv, send = fresh(n*span), fresh(span)
		code = p.Allgather(send, count, dt, recv, count, dt, c)
	case famAlltoall:
		recv, send = fresh(n*span), fresh(n*span)
		code = p.Alltoall(send, count, dt, recv, count, dt, c)
	}
	if !bytes.Equal(send, orig) {
		return code, 0, fmt.Errorf("%s wrote its input", a)
	}
	return code, wordHash(recv), nil
}

// algoPolicy is a policy whose only selection is algo, over eager.
func algoPolicy(algo collAlgo, eager int) mpicore.Policy {
	pol := mpicore.Policy{EagerMax: eager, DeriveCID: mpicore.FNV1aCIDDeriver()}
	algo.set(&pol)
	return pol
}

// TestCollectiveAlgorithmTranscripts pins what each of the 21 shared
// collective algorithms does, driven through its generic wrapper by a
// one-algorithm Policy: for every communicator size it is defined on, at
// both protocol switchovers the implementations use (4 KiB and 16 KiB
// EagerMax), on three roots and three block sizes, every rank's return
// code, virtual clock and a digest of its buffers. Dead-peer rows kill
// one rank before the others enter the collective (the pattern of
// TestCollectiveFailsInsteadOfHanging) and record codes and clocks only.
// `go test ./internal/mpicore -run CollectiveAlgorithmTranscripts
// -update` rewrites testdata/coll_algorithms.golden.
//
// The race detector slows the test about fortyfold, so a race build runs
// only the worlds of up to raceMaxRanks ranks and compares their rows.
func TestCollectiveAlgorithmTranscripts(t *testing.T) {
	const raceMaxRanks = 5
	maxRanks := 1 << 30
	if mpicore.RaceBuild {
		if *update {
			t.Fatal("-update needs every row; run it without -race")
		}
		maxRanks = raceMaxRanks
	}
	im := mpich.Impl
	var got strings.Builder
	for _, algo := range collAlgos {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17} {
			if algo.pow2 && n&(n-1) != 0 || n > maxRanks {
				continue
			}
			calls := algoCalls(algo.fam, n)
			for _, eager := range []int{4 << 10, 16 << 10} {
				out := make([][]algoOutcome, len(calls))
				for i := range out {
					out[i] = make([]algoOutcome, n)
				}
				w := algoWorld(t, n)
				fabrictest.Run(t, w, func(r int) error {
					p := mpicore.NewProc(w, r, abi.ConstsOf(im.Dialect), im.Dialect.Codes, algoPolicy(algo, eager))
					var bufs [2][]byte
					for i, a := range calls {
						code, d, err := runAlgoCall(p, algo.fam, a, uint64(r+1)<<32|uint64(i)<<16, &bufs)
						if err != nil {
							return err
						}
						out[i][r] = algoOutcome{code, w.Endpoint(r).Clock().Now(), d}
					}
					return nil
				})
				for i, a := range calls {
					fmt.Fprintf(&got, "%s n=%d eager=%d %s:", algo.name, n, eager, a)
					for _, o := range out[i] {
						fmt.Fprintf(&got, " %d/%d/%08x", o.code, o.clock, uint32(o.digest))
					}
					got.WriteByte('\n')
				}
			}
		}
	}
	for _, algo := range collAlgos {
		for _, n := range []int{4, 7} {
			if algo.pow2 && n&(n-1) != 0 || n > maxRanks {
				continue
			}
			for _, victim := range []int{1, n - 1} {
				a := algoCall{root: 0, bytes: 8008}
				out := make([]algoOutcome, n)
				w := algoWorld(t, n)
				fabrictest.Run(t, w, func(r int) error {
					p := mpicore.NewProc(w, r, abi.ConstsOf(im.Dialect), im.Dialect.Codes, algoPolicy(algo, 4<<10))
					if r == victim {
						w.Kill(victim)
						w.NotifyFailure(victim)
						return nil
					}
					var bufs [2][]byte
					code, _, _ := runAlgoCall(p, algo.fam, a, uint64(r+1)<<32, &bufs)
					out[r] = algoOutcome{code: code, clock: w.Endpoint(r).Clock().Now()}
					// A survivor whose collective completed still revokes,
					// so a peer blocked on it gets ErrRevoked, not a hang.
					p.CommRevoke(p.CommWorld)
					return nil
				})
				fmt.Fprintf(&got, "dead %s n=%d victim=%d %s:", algo.name, n, victim, a)
				for r, o := range out {
					if r == victim {
						got.WriteString(" -")
						continue
					}
					fmt.Fprintf(&got, " %d/%d", o.code, o.clock)
				}
				got.WriteByte('\n')
			}
		}
	}
	compareGolden(t, "coll_algorithms.golden", got.String(), func(row string) bool {
		n, _ := strconv.Atoi(strings.Fields(row[strings.Index(row, " n=")+3:])[0])
		return n <= maxRanks
	})
}
