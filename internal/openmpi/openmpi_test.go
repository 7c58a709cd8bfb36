package openmpi

import (
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/fabric/fabrictest"
	"repro/internal/mpicore"
	"repro/internal/ops"
	"repro/internal/types"
)

// rank is one rank's side of a test: its native binding, world rank and
// world size.
type rank struct {
	*mpicore.Binding
	me, n int
}

func (p rank) Rank() int { return p.me }
func (p rank) Size() int { return p.n }

func runSPMD(t *testing.T, n int, fn func(p rank) error) {
	t.Helper()
	w := fabrictest.World(t, n)
	fabrictest.Run(t, w, func(r int) error { return fn(rank{Impl.Init(w, r), r, n}) })
}

func codef(err error, op string) error {
	if err != nil {
		return fmt.Errorf("%s failed: %w", op, err)
	}
	return nil
}

// native is the Open MPI code an error surfaces as.
func native(err error) int { return Dialect.Codes.CodeOf(abi.ClassOf(err)) }

// The predefined handles as an application compiled against Open MPI's
// mpi.h holds them.
var (
	world    = Dialect.Lookup(abi.SymCommWorld)
	commNull = Dialect.Lookup(abi.SymCommNull)
)

func dt(k types.Kind) abi.Handle { return Dialect.Lookup(abi.SymForKind(k)) }
func op(o ops.Op) abi.Handle     { return Dialect.Lookup(abi.SymForOp(o)) }

func TestSendRecvBothProtocols(t *testing.T) {
	for _, sz := range []int{64, 64 * 1024} { // eager and rendezvous
		t.Run(fmt.Sprintf("sz=%d", sz), func(t *testing.T) {
			runSPMD(t, 2, func(p rank) error {
				bt := dt(types.KindByte)
				if p.Rank() == 0 {
					buf := make([]byte, sz)
					for i := range buf {
						buf[i] = byte(i * 7)
					}
					return codef(p.Send(buf, sz, bt, 1, 4, world), "send")
				}
				buf := make([]byte, sz)
				var st abi.Status
				if err := codef(p.Recv(buf, sz, bt, 0, 4, world, &st), "recv"); err != nil {
					return err
				}
				for i := range buf {
					if buf[i] != byte(i*7) {
						return fmt.Errorf("byte %d corrupted", i)
					}
				}
				if st.Source != 0 || st.Tag != 4 || st.CountBytes != uint64(sz) {
					return fmt.Errorf("status wrong: %+v", st)
				}
				return nil
			})
		})
	}
}

func TestWildcardsUseOMPIValues(t *testing.T) {
	// AnySource here is -1 (MPICH uses -2): the matching engine must honor
	// this package's constants.
	runSPMD(t, 2, func(p rank) error {
		bt := dt(types.KindByte)
		if p.Rank() == 0 {
			return codef(p.Send([]byte{9}, 1, bt, 1, 3, world), "send")
		}
		buf := make([]byte, 1)
		var st abi.Status
		if err := codef(p.Recv(buf, 1, bt, AnySource, AnyTag, world, &st), "recv"); err != nil {
			return err
		}
		if buf[0] != 9 || st.Source != 0 {
			return fmt.Errorf("wildcard recv wrong: buf=%d st=%+v", buf[0], st)
		}
		return nil
	})
}

func TestProcNullUsesOMPIValue(t *testing.T) {
	runSPMD(t, 1, func(p rank) error {
		bt := dt(types.KindByte)
		if err := codef(p.Send(nil, 0, bt, ProcNull, 0, world), "send"); err != nil {
			return err
		}
		var st abi.Status
		if err := codef(p.Recv(nil, 0, bt, ProcNull, 0, world, &st), "recv"); err != nil {
			return err
		}
		if st.Source != ProcNull {
			return fmt.Errorf("source = %d, want %d", st.Source, ProcNull)
		}
		return nil
	})
}

func TestIsendIrecvRing(t *testing.T) {
	runSPMD(t, 5, func(p rank) error {
		it := dt(types.KindInt64)
		n, me := p.Size(), p.Rank()
		right, left := (me+1)%n, (me-1+n)%n
		rb := make([]byte, 8)
		rr, err := p.Irecv(rb, 1, it, left, 0, world)
		if err != nil {
			return codef(err, "irecv")
		}
		sr, err := p.Isend(abi.Int64Bytes([]int64{int64(me)}), 1, it, right, 0, world)
		if err != nil {
			return codef(err, "isend")
		}
		if err := p.Waitall([]abi.Handle{rr, sr}, nil); err != nil {
			return codef(err, "waitall")
		}
		if got := abi.Int64sOf(rb)[0]; got != int64(left) {
			return fmt.Errorf("got %d, want %d", got, left)
		}
		return nil
	})
}

func TestBarrierAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runSPMD(t, n, func(p rank) error {
				for i := 0; i < 3; i++ {
					if err := p.Barrier(world); err != nil {
						return codef(err, "barrier")
					}
				}
				return nil
			})
		})
	}
}

func TestBcastBinaryAndChain(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		for _, count := range []int{1, 3000} { // 8B binary tree, 24KB chain
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(p rank) error {
					ft := dt(types.KindFloat64)
					buf := make([]byte, count*8)
					root := n - 1
					if p.Rank() == root {
						vals := make([]float64, count)
						for i := range vals {
							vals[i] = float64(i) + 0.25
						}
						abi.PutFloat64s(buf, vals)
					}
					if err := p.Bcast(buf, count, ft, root, world); err != nil {
						return codef(err, "bcast")
					}
					got := abi.Float64sOf(buf)
					for i := range got {
						if got[i] != float64(i)+0.25 {
							return fmt.Errorf("elem %d = %v", i, got[i])
						}
					}
					return nil
				})
			})
		}
	}
}

func TestReduceBinaryTree(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runSPMD(t, n, func(p rank) error {
				it := dt(types.KindInt64)
				sb := abi.Int64Bytes([]int64{int64(p.Rank() + 1)})
				rb := make([]byte, 8)
				if err := p.Reduce(sb, rb, 1, it, op(ops.OpSum), 0, world); err != nil {
					return codef(err, "reduce")
				}
				if p.Rank() == 0 {
					want := int64(n * (n + 1) / 2)
					if got := abi.Int64sOf(rb)[0]; got != want {
						return fmt.Errorf("sum = %d, want %d", got, want)
					}
				}
				return nil
			})
		})
	}
}

func TestAllreduceRDAndRing(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6} {
		for _, count := range []int{1, 4096} { // 8B RD, 32KB ring
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(p rank) error {
					it := dt(types.KindInt64)
					vals := make([]int64, count)
					for i := range vals {
						vals[i] = int64(p.Rank()+1) * int64(i%9+1)
					}
					rb := make([]byte, count*8)
					if err := p.Allreduce(abi.Int64Bytes(vals), rb, count, it,
						op(ops.OpSum), world); err != nil {
						return codef(err, "allreduce")
					}
					tri := int64(n * (n + 1) / 2)
					got := abi.Int64sOf(rb)
					for i := range got {
						want := tri * int64(i%9+1)
						if got[i] != want {
							return fmt.Errorf("elem %d = %d, want %d", i, got[i], want)
						}
					}
					return nil
				})
			})
		}
	}
}

func TestGatherScatterLinear(t *testing.T) {
	runSPMD(t, 5, func(p rank) error {
		it := dt(types.KindInt32)
		n, me := p.Size(), p.Rank()
		root := 2
		sb := abi.Int32Bytes([]int32{int32(me * 3)})
		var rb []byte
		if me == root {
			rb = make([]byte, n*4)
		}
		if err := p.Gather(sb, 1, it, rb, 1, it, root, world); err != nil {
			return codef(err, "gather")
		}
		if me == root {
			got := abi.Int32sOf(rb)
			for r := 0; r < n; r++ {
				if got[r] != int32(r*3) {
					return fmt.Errorf("gather[%d] = %d", r, got[r])
				}
			}
		}
		out := make([]byte, 4)
		if err := p.Scatter(rb, 1, it, out, 1, it, root, world); err != nil {
			return codef(err, "scatter")
		}
		if got := abi.Int32sOf(out)[0]; got != int32(me*3) {
			return fmt.Errorf("scatter = %d, want %d", got, me*3)
		}
		return nil
	})
}

func TestAllgatherBruckAndRing(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		for _, count := range []int{1, 300} { // 8B Bruck, 2400B ring
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(p rank) error {
					it := dt(types.KindInt64)
					me := p.Rank()
					vals := make([]int64, count)
					for i := range vals {
						vals[i] = int64(me)*1000 + int64(i)
					}
					rb := make([]byte, n*count*8)
					if err := p.Allgather(abi.Int64Bytes(vals), count, it, rb, count, it, world); err != nil {
						return codef(err, "allgather")
					}
					got := abi.Int64sOf(rb)
					for r := 0; r < n; r++ {
						for i := 0; i < count; i++ {
							if got[r*count+i] != int64(r)*1000+int64(i) {
								return fmt.Errorf("block %d elem %d = %d", r, i, got[r*count+i])
							}
						}
					}
					return nil
				})
			})
		}
	}
}

func TestAlltoallLinear(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		for _, count := range []int{1, 700} {
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(p rank) error {
					it := dt(types.KindInt64)
					me := p.Rank()
					vals := make([]int64, n*count)
					for d := 0; d < n; d++ {
						for i := 0; i < count; i++ {
							vals[d*count+i] = int64(me*100000 + d*100 + i%97)
						}
					}
					rb := make([]byte, n*count*8)
					if err := p.Alltoall(abi.Int64Bytes(vals), count, it, rb, count, it, world); err != nil {
						return codef(err, "alltoall")
					}
					got := abi.Int64sOf(rb)
					for s := 0; s < n; s++ {
						for i := 0; i < count; i++ {
							want := int64(s*100000 + me*100 + i%97)
							if got[s*count+i] != want {
								return fmt.Errorf("from %d elem %d = %d, want %d", s, i, got[s*count+i], want)
							}
						}
					}
					return nil
				})
			})
		}
	}
}

func TestCommSplitAndCollectives(t *testing.T) {
	runSPMD(t, 6, func(p rank) error {
		me := p.Rank()
		sub, err := p.CommSplit(world, me%3, me)
		if err != nil {
			return codef(err, "split")
		}
		sz, _ := p.CommSize(sub)
		if sz != 2 {
			return fmt.Errorf("split size = %d", sz)
		}
		it := dt(types.KindInt64)
		rb := make([]byte, 8)
		if err := p.Allreduce(abi.Int64Bytes([]int64{int64(me)}), rb, 1, it,
			op(ops.OpSum), sub); err != nil {
			return codef(err, "allreduce on split")
		}
		want := int64(me%3) + int64(me%3+3)
		if got := abi.Int64sOf(rb)[0]; got != want {
			return fmt.Errorf("split allreduce = %d, want %d", got, want)
		}
		return nil
	})
}

func TestCommDupAndGroups(t *testing.T) {
	runSPMD(t, 4, func(p rank) error {
		dup, err := p.CommDup(world)
		if err != nil {
			return codef(err, "dup")
		}
		// The dup has its own context: a message on it is invisible to the
		// parent.
		bt := dt(types.KindByte)
		switch p.Rank() {
		case 0:
			if err := p.Send([]byte{1}, 1, bt, 1, 0, dup); err != nil {
				return codef(err, "send on dup")
			}
		case 1:
			if err := p.Probe(0, 0, dup, nil); err != nil {
				return codef(err, "probe dup")
			}
			if found, err := p.Iprobe(0, 0, world, nil); found || err != nil {
				return fmt.Errorf("dup shares the parent's context id (found=%t err=%v)", found, err)
			}
			if err := p.Recv(make([]byte, 1), 1, bt, 0, 0, dup, nil); err != nil {
				return codef(err, "recv on dup")
			}
		}
		g, err := p.CommGroup(dup)
		if err != nil {
			return codef(err, "group")
		}
		sub, err := p.GroupExcl(g, []int{0})
		if err != nil {
			return codef(err, "excl")
		}
		nc, err := p.CommCreate(dup, sub)
		if err != nil {
			return codef(err, "create")
		}
		if p.Rank() == 0 {
			if nc != commNull {
				return fmt.Errorf("excluded rank got a communicator")
			}
			return nil
		}
		sz, _ := p.CommSize(nc)
		if sz != 3 {
			return fmt.Errorf("created size = %d", sz)
		}
		return nil
	})
}

func TestDerivedTypes(t *testing.T) {
	runSPMD(t, 2, func(p rank) error {
		vec, err := p.TypeVector(2, 1, 3, dt(types.KindInt32))
		if err != nil {
			return codef(err, "vector")
		}
		if err := p.TypeCommit(vec); err != nil {
			return codef(err, "commit")
		}
		sz, _ := p.TypeSize(vec)
		ext, _ := p.TypeExtent(vec)
		if sz != 8 || ext != 16 {
			return fmt.Errorf("size/extent = %d/%d, want 8/16", sz, ext)
		}
		if p.Rank() == 0 {
			return codef(p.Send(abi.Int32Bytes([]int32{7, 0, 0, 8}), 1, vec, 1, 0, world), "send")
		}
		dst := make([]byte, 16)
		var st abi.Status
		if err := p.Recv(dst, 1, vec, 0, 0, world, &st); err != nil {
			return codef(err, "recv")
		}
		got := abi.Int32sOf(dst)
		if got[0] != 7 || got[3] != 8 {
			return fmt.Errorf("strided = %v", got)
		}
		cnt, err := p.GetCount(&st, vec)
		if err != nil || cnt != 1 {
			return fmt.Errorf("GetCount = %d err=%v", cnt, err)
		}
		return nil
	})
}

func TestErrorCodesDifferFromMPICH(t *testing.T) {
	// The numeric values are part of each implementation's ABI. Open MPI's
	// MPI_ERR_REQUEST is 7 and MPI_ERR_ROOT is 8; MPICH has 19 and 7. A
	// shim translating codes without a table would be wrong.
	if ErrRequest != 7 || ErrRoot != 8 || ErrTruncate != 15 {
		t.Fatalf("Open MPI error table changed: req=%d root=%d trunc=%d",
			ErrRequest, ErrRoot, ErrTruncate)
	}
	if AnySource != -1 || ProcNull != -3 {
		t.Fatalf("Open MPI constants changed: anysrc=%d procnull=%d", AnySource, ProcNull)
	}
}

func TestBadArguments(t *testing.T) {
	runSPMD(t, 1, func(p rank) error {
		bt := dt(types.KindByte)
		if code := native(p.Send(nil, 1, bt, 0, 0, commNull)); code != ErrComm {
			return fmt.Errorf("nil comm = %d", code)
		}
		if code := native(p.Send(nil, 1, Dialect.Lookup(abi.SymTypeNull), 0, 0, world)); code != ErrType {
			return fmt.Errorf("nil type = %d", code)
		}
		if code := native(p.Send(nil, 1, bt, 7, 0, world)); code != ErrRank {
			return fmt.Errorf("bad rank = %d", code)
		}
		if code := native(p.Bcast(nil, 1, bt, -9, world)); code != ErrRoot {
			return fmt.Errorf("bad root = %d", code)
		}
		if code := native(p.CommFree(world)); code != ErrComm {
			return fmt.Errorf("free world = %d", code)
		}
		if code := native(p.TypeFree(bt)); code != ErrType {
			return fmt.Errorf("free predefined = %d", code)
		}
		if code := native(p.OpFree(op(ops.OpSum))); code != ErrOp {
			return fmt.Errorf("free predefined op = %d", code)
		}
		return nil
	})
}

func TestTruncationCode(t *testing.T) {
	runSPMD(t, 2, func(p rank) error {
		bt := dt(types.KindByte)
		if p.Rank() == 0 {
			return codef(p.Send(make([]byte, 50), 50, bt, 1, 0, world), "send")
		}
		var st abi.Status
		code := native(p.Recv(make([]byte, 5), 5, bt, 0, 0, world, &st))
		if code != ErrTruncate {
			return fmt.Errorf("code = %d, want ErrTruncate(%d)", code, ErrTruncate)
		}
		return nil
	})
}
