package mpich

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/fabric"
	"repro/internal/fabric/fabrictest"
	"repro/internal/mpicore"
	"repro/internal/ops"
	"repro/internal/simnet"
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

// runSPMD launches fn on n ranks bound through MPICH's native binding
// and fails the test on error or timeout.
func runSPMD(t *testing.T, n int, fn func(p rank) error) {
	t.Helper()
	w := fabrictest.World(t, n)
	fabrictest.Run(t, w, func(r int) error { return fn(rank{Impl.Init(w, r), r, n}) })
}

func codef(err error, op string) error {
	if err != nil {
		return fmt.Errorf("%s failed: %w (code %d)", op, err, native(err))
	}
	return nil
}

// native is the MPICH code an error surfaces as.
func native(err error) int { return Dialect.Codes.CodeOf(abi.ClassOf(err)) }

// The predefined handles as an application compiled against MPICH's
// mpi.h holds them.
var world = toAbi(CommWorld)

func dt(k types.Kind) abi.Handle { return toAbi(TypeHandle(k)) }
func op(o ops.Op) abi.Handle     { return toAbi(OpHandle(o)) }

func TestSendRecvEager(t *testing.T) {
	runSPMD(t, 2, func(p rank) error {
		ft64 := dt(types.KindFloat64)
		if p.Rank() == 0 {
			buf := abi.Float64Bytes([]float64{1.5, -2.5, 3.25})
			return codef(p.Send(buf, 3, ft64, 1, 7, world), "send")
		}
		buf := make([]byte, 24)
		var st abi.Status
		if err := codef(p.Recv(buf, 3, ft64, 0, 7, world, &st), "recv"); err != nil {
			return err
		}
		got := abi.Float64sOf(buf)
		if got[0] != 1.5 || got[1] != -2.5 || got[2] != 3.25 {
			return fmt.Errorf("payload corrupted: %v", got)
		}
		if st.Source != 0 || st.Tag != 7 || st.CountBytes != 24 {
			return fmt.Errorf("status wrong: %+v", st)
		}
		return nil
	})
}

func TestSendRecvRendezvous(t *testing.T) {
	const n = 64 * 1024 // above eagerMax
	runSPMD(t, 2, func(p rank) error {
		bt := dt(types.KindByte)
		if p.Rank() == 0 {
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(i * 31)
			}
			return codef(p.Send(buf, n, bt, 1, 3, world), "send")
		}
		buf := make([]byte, n)
		var st abi.Status
		if err := codef(p.Recv(buf, n, bt, 0, 3, world, &st), "recv"); err != nil {
			return err
		}
		for i := range buf {
			if buf[i] != byte(i*31) {
				return fmt.Errorf("byte %d corrupted", i)
			}
		}
		if st.CountBytes != n {
			return fmt.Errorf("count = %d, want %d", st.CountBytes, n)
		}
		return nil
	})
}

func TestRecvWildcards(t *testing.T) {
	runSPMD(t, 3, func(p rank) error {
		bt := dt(types.KindByte)
		switch p.Rank() {
		case 1, 2:
			return codef(p.Send([]byte{byte(p.Rank())}, 1, bt, 0, 10+p.Rank(), world), "send")
		}
		seen := map[int32]bool{}
		for i := 0; i < 2; i++ {
			buf := make([]byte, 1)
			var st abi.Status
			if err := codef(p.Recv(buf, 1, bt, AnySource, AnyTag, world, &st), "recv"); err != nil {
				return err
			}
			if int32(buf[0]) != st.Source {
				return fmt.Errorf("payload %d does not match source %d", buf[0], st.Source)
			}
			if st.Tag != 10+st.Source {
				return fmt.Errorf("tag %d for source %d", st.Tag, st.Source)
			}
			seen[st.Source] = true
		}
		if !seen[1] || !seen[2] {
			return fmt.Errorf("missing senders: %v", seen)
		}
		return nil
	})
}

func TestProcNull(t *testing.T) {
	runSPMD(t, 1, func(p rank) error {
		bt := dt(types.KindByte)
		if err := codef(p.Send(nil, 0, bt, ProcNull, 0, world), "send to PROC_NULL"); err != nil {
			return err
		}
		var st abi.Status
		if err := codef(p.Recv(nil, 0, bt, ProcNull, 0, world, &st), "recv from PROC_NULL"); err != nil {
			return err
		}
		if st.Source != ProcNull || st.Tag != AnyTag || st.CountBytes != 0 {
			return fmt.Errorf("PROC_NULL status wrong: %+v", st)
		}
		return nil
	})
}

func TestTruncation(t *testing.T) {
	runSPMD(t, 2, func(p rank) error {
		bt := dt(types.KindByte)
		if p.Rank() == 0 {
			return codef(p.Send(make([]byte, 100), 100, bt, 1, 0, world), "send")
		}
		var st abi.Status
		code := native(p.Recv(make([]byte, 10), 10, bt, 0, 0, world, &st))
		if code != ErrTruncate {
			return fmt.Errorf("code = %d, want ErrTruncate", code)
		}
		if st.CountBytes != 10 {
			return fmt.Errorf("truncated count = %d, want 10", st.CountBytes)
		}
		return nil
	})
}

func TestIsendIrecvWaitall(t *testing.T) {
	runSPMD(t, 4, func(p rank) error {
		it := dt(types.KindInt64)
		n := p.Size()
		me := p.Rank()
		right := (me + 1) % n
		left := (me - 1 + n) % n
		sendbuf := abi.Int64Bytes([]int64{int64(me * 100)})
		recvbuf := make([]byte, 8)
		var reqs []abi.Handle
		r1, err := p.Irecv(recvbuf, 1, it, left, 5, world)
		if err != nil {
			return codef(err, "irecv")
		}
		r2, err := p.Isend(sendbuf, 1, it, right, 5, world)
		if err != nil {
			return codef(err, "isend")
		}
		reqs = append(reqs, r1, r2)
		sts := make([]abi.Status, 2)
		if err := codef(p.Waitall(reqs, sts), "waitall"); err != nil {
			return err
		}
		got := abi.Int64sOf(recvbuf)[0]
		if got != int64(left*100) {
			return fmt.Errorf("ring recv = %d, want %d", got, left*100)
		}
		if sts[0].Source != int32(left) {
			return fmt.Errorf("status source = %d, want %d", sts[0].Source, left)
		}
		return nil
	})
}

func TestTestPolling(t *testing.T) {
	runSPMD(t, 2, func(p rank) error {
		bt := dt(types.KindByte)
		if p.Rank() == 0 {
			// Delay the send so rank 1 polls at least once.
			time.Sleep(20 * time.Millisecond)
			return codef(p.Send([]byte{42}, 1, bt, 1, 1, world), "send")
		}
		buf := make([]byte, 1)
		req, err := p.Irecv(buf, 1, bt, 0, 1, world)
		if err != nil {
			return codef(err, "irecv")
		}
		var st abi.Status
		for {
			done, err := p.Test(req, &st)
			if err != nil {
				return codef(err, "test")
			}
			if done {
				break
			}
		}
		if buf[0] != 42 {
			return fmt.Errorf("payload = %d", buf[0])
		}
		return nil
	})
}

func TestSendrecvExchange(t *testing.T) {
	runSPMD(t, 2, func(p rank) error {
		it := dt(types.KindInt32)
		me := p.Rank()
		other := 1 - me
		sb := abi.Int32Bytes([]int32{int32(me + 1)})
		rb := make([]byte, 4)
		var st abi.Status
		if err := codef(p.Sendrecv(sb, 1, it, other, 9, rb, 1, it, other, 9, world, &st), "sendrecv"); err != nil {
			return err
		}
		if got := abi.Int32sOf(rb)[0]; got != int32(other+1) {
			return fmt.Errorf("got %d, want %d", got, other+1)
		}
		return nil
	})
}

func TestBarrierCompletes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
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

func TestBcastSizes(t *testing.T) {
	// Cross the binomial/scatter-ring threshold and odd communicator sizes.
	for _, n := range []int{2, 3, 4, 5, 8} {
		for _, count := range []int{1, 100, 5000} { // 8B, 800B, 40KB of float64
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(p rank) error {
					ft := dt(types.KindFloat64)
					buf := make([]byte, count*8)
					if p.Rank() == 2%n {
						vals := make([]float64, count)
						for i := range vals {
							vals[i] = float64(i) * 0.5
						}
						abi.PutFloat64s(buf, vals)
					}
					if err := p.Bcast(buf, count, ft, 2%n, world); err != nil {
						return codef(err, "bcast")
					}
					got := abi.Float64sOf(buf)
					for i := range got {
						if got[i] != float64(i)*0.5 {
							return fmt.Errorf("element %d = %v, want %v", i, got[i], float64(i)*0.5)
						}
					}
					return nil
				})
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 3, 4, 6} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runSPMD(t, n, func(p rank) error {
				it := dt(types.KindInt64)
				sb := abi.Int64Bytes([]int64{int64(p.Rank() + 1), int64(10 * (p.Rank() + 1))})
				rb := make([]byte, 16)
				if err := p.Reduce(sb, rb, 2, it, op(ops.OpSum), 0, world); err != nil {
					return codef(err, "reduce")
				}
				if p.Rank() == 0 {
					want := int64(n * (n + 1) / 2)
					got := abi.Int64sOf(rb)
					if got[0] != want || got[1] != 10*want {
						return fmt.Errorf("reduce = %v, want [%d %d]", got, want, 10*want)
					}
				}
				return nil
			})
		})
	}
}

func TestAllreduceSizesAndShapes(t *testing.T) {
	// Exercise recursive doubling (small, non-pow2) and Rabenseifner
	// (large, pow2).
	for _, n := range []int{2, 3, 4, 5, 8} {
		for _, count := range []int{1, 3, 1024} { // 8B, 24B, 8KB
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(p rank) error {
					it := dt(types.KindInt64)
					vals := make([]int64, count)
					for i := range vals {
						vals[i] = int64(p.Rank()+1) * int64(i+1)
					}
					sb := abi.Int64Bytes(vals)
					rb := make([]byte, count*8)
					if err := p.Allreduce(sb, rb, count, it, op(ops.OpSum), world); err != nil {
						return codef(err, "allreduce")
					}
					got := abi.Int64sOf(rb)
					tri := int64(n * (n + 1) / 2)
					for i := range got {
						if got[i] != tri*int64(i+1) {
							return fmt.Errorf("elem %d = %d, want %d", i, got[i], tri*int64(i+1))
						}
					}
					return nil
				})
			})
		}
	}
}

func TestAllreduceMax(t *testing.T) {
	runSPMD(t, 5, func(p rank) error {
		it := dt(types.KindInt32)
		sb := abi.Int32Bytes([]int32{int32(p.Rank() * 7 % 5)})
		rb := make([]byte, 4)
		if err := p.Allreduce(sb, rb, 1, it, op(ops.OpMax), world); err != nil {
			return codef(err, "allreduce max")
		}
		if got := abi.Int32sOf(rb)[0]; got != 4 {
			return fmt.Errorf("max = %d, want 4", got)
		}
		return nil
	})
}

func TestGatherScatter(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runSPMD(t, n, func(p rank) error {
				it := dt(types.KindInt32)
				root := n - 1
				me := p.Rank()
				sb := abi.Int32Bytes([]int32{int32(me), int32(me * 10)})
				var rb []byte
				if me == root {
					rb = make([]byte, n*8)
				}
				if err := p.Gather(sb, 2, it, rb, 2, it, root, world); err != nil {
					return codef(err, "gather")
				}
				if me == root {
					got := abi.Int32sOf(rb)
					for r := 0; r < n; r++ {
						if got[2*r] != int32(r) || got[2*r+1] != int32(r*10) {
							return fmt.Errorf("gather block %d = %v", r, got[2*r:2*r+2])
						}
					}
				}
				// Scatter the gathered data back out.
				rb2 := make([]byte, 8)
				if err := p.Scatter(rb, 2, it, rb2, 2, it, root, world); err != nil {
					return codef(err, "scatter")
				}
				got := abi.Int32sOf(rb2)
				if got[0] != int32(me) || got[1] != int32(me*10) {
					return fmt.Errorf("scatter = %v, want [%d %d]", got, me, me*10)
				}
				return nil
			})
		})
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{2, 4, 5} { // pow2 (recursive doubling) and odd (ring)
		for _, count := range []int{1, 2000} {
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(p rank) error {
					it := dt(types.KindInt64)
					me := p.Rank()
					vals := make([]int64, count)
					for i := range vals {
						vals[i] = int64(me)*1000 + int64(i)
					}
					sb := abi.Int64Bytes(vals)
					rb := make([]byte, n*count*8)
					if err := p.Allgather(sb, count, it, rb, count, it, world); err != nil {
						return codef(err, "allgather")
					}
					got := abi.Int64sOf(rb)
					for r := 0; r < n; r++ {
						for i := 0; i < count; i++ {
							want := int64(r)*1000 + int64(i)
							if got[r*count+i] != want {
								return fmt.Errorf("block %d elem %d = %d, want %d", r, i, got[r*count+i], want)
							}
						}
					}
					return nil
				})
			})
		}
	}
}

func TestAlltoallBruckAndPairwise(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6, 8} {
		for _, count := range []int{1, 200} { // 8B blocks (Bruck), 1600B (pairwise)
			t.Run(fmt.Sprintf("n=%d count=%d", n, count), func(t *testing.T) {
				runSPMD(t, n, func(p rank) error {
					it := dt(types.KindInt64)
					me := p.Rank()
					vals := make([]int64, n*count)
					for d := 0; d < n; d++ {
						for i := 0; i < count; i++ {
							vals[d*count+i] = int64(me*1000000 + d*1000 + i)
						}
					}
					sb := abi.Int64Bytes(vals)
					rb := make([]byte, n*count*8)
					if err := p.Alltoall(sb, count, it, rb, count, it, world); err != nil {
						return codef(err, "alltoall")
					}
					got := abi.Int64sOf(rb)
					for s := 0; s < n; s++ {
						for i := 0; i < count; i++ {
							want := int64(s*1000000 + me*1000 + i)
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

func TestCommDupIsolation(t *testing.T) {
	runSPMD(t, 2, func(p rank) error {
		dup, err := p.CommDup(world)
		if err != nil {
			return codef(err, "dup")
		}
		bt := dt(types.KindByte)
		me := p.Rank()
		if me == 0 {
			// Same peer+tag on two communicators must not cross-match.
			if err := p.Send([]byte{1}, 1, bt, 1, 0, world); err != nil {
				return codef(err, "send world")
			}
			if err := p.Send([]byte{2}, 1, bt, 1, 0, dup); err != nil {
				return codef(err, "send dup")
			}
			return nil
		}
		buf := make([]byte, 1)
		if err := p.Recv(buf, 1, bt, 0, 0, dup, nil); err != nil {
			return codef(err, "recv dup")
		}
		if buf[0] != 2 {
			return fmt.Errorf("dup recv = %d, want 2", buf[0])
		}
		if err := p.Recv(buf, 1, bt, 0, 0, world, nil); err != nil {
			return codef(err, "recv world")
		}
		if buf[0] != 1 {
			return fmt.Errorf("world recv = %d, want 1", buf[0])
		}
		return nil
	})
}

func TestCommSplit(t *testing.T) {
	runSPMD(t, 6, func(p rank) error {
		me := p.Rank()
		color := me % 2
		sub, err := p.CommSplit(world, color, -me) // reverse order by key
		if err != nil {
			return codef(err, "split")
		}
		sz, err := p.CommSize(sub)
		if err != nil {
			return codef(err, "size")
		}
		if sz != 3 {
			return fmt.Errorf("subcomm size = %d, want 3", sz)
		}
		rank, _ := p.CommRank(sub)
		// Keys are -me, so higher parent ranks come first.
		wantRank := map[int]int{0: 2, 2: 1, 4: 0, 1: 2, 3: 1, 5: 0}[me]
		if rank != wantRank {
			return fmt.Errorf("subcomm rank = %d, want %d", rank, wantRank)
		}
		// The subcommunicator must work for collectives.
		it := dt(types.KindInt64)
		sb := abi.Int64Bytes([]int64{int64(me)})
		rb := make([]byte, 8)
		if err := p.Allreduce(sb, rb, 1, it, op(ops.OpSum), sub); err != nil {
			return codef(err, "allreduce on split")
		}
		want := int64(0 + 2 + 4)
		if color == 1 {
			want = 1 + 3 + 5
		}
		if got := abi.Int64sOf(rb)[0]; got != want {
			return fmt.Errorf("split allreduce = %d, want %d", got, want)
		}
		return nil
	})
}

func TestCommSplitUndefined(t *testing.T) {
	runSPMD(t, 3, func(p rank) error {
		color := 0
		if p.Rank() == 1 {
			color = Undefined
		}
		sub, err := p.CommSplit(world, color, 0)
		if err != nil {
			return codef(err, "split")
		}
		if p.Rank() == 1 {
			if sub != toAbi(CommNull) {
				return fmt.Errorf("undefined color got %v, want CommNull", sub)
			}
			return nil
		}
		sz, _ := p.CommSize(sub)
		if sz != 2 {
			return fmt.Errorf("size = %d, want 2", sz)
		}
		return nil
	})
}

func TestGroupsAndCommCreate(t *testing.T) {
	runSPMD(t, 4, func(p rank) error {
		wg, err := p.CommGroup(world)
		if err != nil {
			return codef(err, "comm_group")
		}
		sub, err := p.GroupIncl(wg, []int{0, 2})
		if err != nil {
			return codef(err, "group_incl")
		}
		gsz, _ := p.GroupSize(sub)
		if gsz != 2 {
			return fmt.Errorf("group size = %d", gsz)
		}
		grank, _ := p.GroupRank(sub)
		wantRank := map[int]int{0: 0, 1: Undefined, 2: 1, 3: Undefined}[p.Rank()]
		if grank != wantRank {
			return fmt.Errorf("group rank = %d, want %d", grank, wantRank)
		}
		trans, err := p.GroupTranslateRanks(sub, []int{0, 1}, wg)
		if err != nil {
			return codef(err, "translate")
		}
		if trans[0] != 0 || trans[1] != 2 {
			return fmt.Errorf("translate = %v", trans)
		}
		nc, err := p.CommCreate(world, sub)
		if err != nil {
			return codef(err, "comm_create")
		}
		if p.Rank() == 1 || p.Rank() == 3 {
			if nc != toAbi(CommNull) {
				return fmt.Errorf("non-member got %v", nc)
			}
			return nil
		}
		sz, _ := p.CommSize(nc)
		if sz != 2 {
			return fmt.Errorf("created comm size = %d", sz)
		}
		return nil
	})
}

func TestGroupExcl(t *testing.T) {
	runSPMD(t, 4, func(p rank) error {
		wg, _ := p.CommGroup(world)
		sub, err := p.GroupExcl(wg, []int{1})
		if err != nil {
			return codef(err, "group_excl")
		}
		sz, _ := p.GroupSize(sub)
		if sz != 3 {
			return fmt.Errorf("size = %d", sz)
		}
		if err := codef(p.GroupFree(sub), "group_free"); err != nil {
			return err
		}
		return codef(p.GroupFree(wg), "group_free 2")
	})
}

func TestDerivedTypeSendRecv(t *testing.T) {
	runSPMD(t, 2, func(p rank) error {
		// Send a strided column: vector of 3 int32 blocks with stride 2.
		vec, err := p.TypeVector(3, 1, 2, dt(types.KindInt32))
		if err != nil {
			return codef(err, "type_vector")
		}
		if err := p.TypeCommit(vec); err != nil {
			return codef(err, "commit")
		}
		sz, _ := p.TypeSize(vec)
		ext, _ := p.TypeExtent(vec)
		if sz != 12 || ext != 20 {
			return fmt.Errorf("size/extent = %d/%d, want 12/20", sz, ext)
		}
		if p.Rank() == 0 {
			src := abi.Int32Bytes([]int32{1, -1, 2, -2, 3})
			return codef(p.Send(src, 1, vec, 1, 0, world), "send vec")
		}
		dst := make([]byte, 20)
		var st abi.Status
		if err := p.Recv(dst, 1, vec, 0, 0, world, &st); err != nil {
			return codef(err, "recv vec")
		}
		got := abi.Int32sOf(dst)
		if got[0] != 1 || got[2] != 2 || got[4] != 3 {
			return fmt.Errorf("strided recv = %v", got)
		}
		if got[1] != 0 || got[3] != 0 {
			return fmt.Errorf("holes written: %v", got)
		}
		cnt, err := p.GetCount(&st, vec)
		if err != nil || cnt != 1 {
			return fmt.Errorf("GetCount = %d (%v), want 1", cnt, err)
		}
		return codef(p.TypeFree(vec), "type_free")
	})
}

func TestErrorsOnBadArguments(t *testing.T) {
	runSPMD(t, 1, func(p rank) error {
		bt := dt(types.KindByte)
		if code := native(p.Send(nil, 1, bt, 0, 0, toAbi(CommNull))); code != ErrComm {
			return fmt.Errorf("send on null comm = %d, want ErrComm", code)
		}
		if code := native(p.Send(nil, 1, bt, 5, 0, world)); code != ErrRank {
			return fmt.Errorf("send to bad rank = %d, want ErrRank", code)
		}
		if code := native(p.Send(nil, 1, bt, 0, -5, world)); code != ErrTag {
			return fmt.Errorf("bad tag = %d, want ErrTag", code)
		}
		if code := native(p.Send(nil, -1, bt, 0, 0, world)); code != ErrCount {
			return fmt.Errorf("bad count = %d, want ErrCount", code)
		}
		if code := native(p.Send(nil, 1, toAbi(0x4c0000ff), 0, 0, world)); code != ErrType {
			return fmt.Errorf("bad type = %d, want ErrType", code)
		}
		if code := native(p.Bcast(nil, 1, bt, 9, world)); code != ErrRoot {
			return fmt.Errorf("bad root = %d, want ErrRoot", code)
		}
		if code := native(p.CommFree(world)); code != ErrComm {
			return fmt.Errorf("free world = %d, want ErrComm", code)
		}
		if code := native(p.TypeFree(bt)); code != ErrType {
			return fmt.Errorf("free predefined type = %d, want ErrType", code)
		}
		if code := native(p.Wait(toAbi(classRequest|0x7777), nil)); code != ErrRequest {
			return fmt.Errorf("wait bogus request = %d, want ErrRequest", code)
		}
		return nil
	})
}

func TestVirtualTimeAdvances(t *testing.T) {
	w := fabrictest.World(t, 2)
	var now [2]simnet.Time
	bt := dt(types.KindByte)
	fabrictest.Run(t, w, func(r int) error {
		p := Impl.Init(w, r)
		if r == 0 {
			p.Send(make([]byte, 4096), 4096, bt, 1, 0, world)
		} else {
			p.Recv(make([]byte, 4096), 4096, bt, 0, 0, world, nil)
		}
		now[r] = w.Endpoint(r).Clock().Now()
		return nil
	})
	if now[0] <= 0 || now[1] <= now[0] {
		t.Fatalf("virtual time not advancing: sender=%v receiver=%v", now[0], now[1])
	}
}

func TestHandleHelpers(t *testing.T) {
	if CommNull&classNullBit == 0 || CommWorld&classNullBit != 0 {
		t.Fatal("null detection broken")
	}
	if CommWorld.class() != classComm || GroupEmpty.class() != classGroup {
		t.Fatal("class bits broken")
	}
	if Dialect.ClassOf(world) != abi.ClassComm || Dialect.ClassOf(toAbi(RequestNull)) != abi.ClassRequest ||
		Dialect.ClassOf(abi.CommWorld) != abi.ClassNone {
		t.Fatal("Dialect.ClassOf broken")
	}
	if CommWorld.String() == "" {
		t.Fatal("no diagnostics")
	}
	if !strings.Contains(fmt.Sprint(Impl.Init(mustWorld(t), 0)), "mpich rank 0") {
		t.Fatal("binding diagnostics broken")
	}
}

func mustWorld(t *testing.T) *fabric.World { return fabrictest.World(t, 1) }
