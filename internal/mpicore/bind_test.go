package mpicore_test

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/abi"
	"repro/internal/fabric/fabrictest"
	"repro/internal/mpicore"
	"repro/internal/ops"
	"repro/internal/types"
)

// TestWarmCollectivesAllocateNothingThroughBinding is
// TestWarmCollectivesAllocateNothing one layer up: through each
// implementation's native FuncTable, a warmed iteration of allreduce,
// bcast, alltoall and barrier, plus the local calls local_call_ns times
// (CommRank, CommSize, TypeSize), allocates nothing on any of the 8
// ranks, in the same three shapes as the runtime-level test (rotating
// root, fixed root, a vector datatype). Handle resolution and code
// wrapping are the binding's whole per-call work; neither may cost an
// allocation on the success path.
func TestWarmCollectivesAllocateNothingThroughBinding(t *testing.T) {
	if mpicore.RaceBuild {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, warm, runs = 8, 4 * 8, 2 * 8
	for _, impl := range nativeImpls {
		for _, shape := range []string{"", "fixed-root", "vector"} {
			for _, size := range []int{64, 16 << 10} {
				name := fmt.Sprintf("%s/%dB", impl.name, size)
				if shape != "" {
					name = fmt.Sprintf("%s/%s/%dB", impl.name, shape, size)
				}
				t.Run(name, func(t *testing.T) {
					w := fabrictest.World(t, n)
					var allocs float64
					fabrictest.Run(t, w, func(r int) error {
						b := impl.bind(w, r)
						world := b.Lookup(abi.SymCommWorld)
						dt, count, span := b.Lookup(abi.SymForKind(types.KindByte)), size, size
						if shape == "vector" { // 8 bytes of int32 over a 12-byte extent
							var err error
							if dt, err = b.TypeVector(2, 1, 2, b.Lookup(abi.SymForKind(types.KindInt32))); err == nil {
								err = b.TypeCommit(dt)
							}
							if err != nil {
								return err
							}
							count, span = size/8, size/8*12
						}
						sum := b.Lookup(abi.SymForOp(ops.OpSum))
						send, recv := make([]byte, n*span), make([]byte, n*span)
						var first error
						keep := func(err error) {
							if err != nil && first == nil {
								first = err
							}
						}
						root := 0
						iter := func() {
							keep(b.Allreduce(send, recv, count, dt, sum, world))
							keep(b.Bcast(recv, count, dt, root, world))
							keep(b.Alltoall(send, count, dt, recv, count, dt, world))
							keep(b.Barrier(world))
							_, err := b.CommRank(world)
							keep(err)
							_, err = b.CommSize(world)
							keep(err)
							_, err = b.TypeSize(dt)
							keep(err)
							if shape != "fixed-root" {
								root = (root + 1) % n
							}
						}
						for i := 0; i < warm-1; i++ { // AllocsPerRun's warm-up call is the last
							iter()
						}
						if r != 0 {
							for i := 0; i < runs+1; i++ {
								iter()
							}
						} else {
							allocs = testing.AllocsPerRun(runs, iter)
						}
						return first
					})
					if allocs != 0 {
						t.Fatalf("%v allocations per warmed iteration across %d ranks, want 0", allocs, n)
					}
				})
			}
		}
	}
}

// TestFailedSendrecvPostsNoReceive: a Sendrecv whose send half fails
// (here a null send datatype) returns the error and leaves no receive
// posted behind it, on each implementation's native binding. Such a
// receive would later write into the caller's buffer and take the next
// matching message: rank 1's two tag-7 messages must reach the two Recvs
// that follow, in order, and the Sendrecv's buffer must stay untouched.
func TestFailedSendrecvPostsNoReceive(t *testing.T) {
	for _, impl := range nativeImpls {
		t.Run(impl.name, func(t *testing.T) {
			w := fabrictest.World(t, 2)
			fabrictest.Run(t, w, func(r int) error {
				b := impl.bind(w, r)
				world := b.Lookup(abi.SymCommWorld)
				i64 := b.Lookup(abi.SymForKind(types.KindInt64))
				if r == 1 {
					for _, v := range []int64{1, 2} {
						if err := b.Send(abi.Int64Bytes([]int64{v}), 1, i64, 0, 7, world); err != nil {
							return err
						}
					}
					return nil
				}
				untouched := abi.Int64Bytes([]int64{-1})
				rb := slices.Clone(untouched)
				err := b.Sendrecv(make([]byte, 8), 1, b.Lookup(abi.SymTypeNull), 1, 7,
					rb, 1, i64, 1, 7, world, nil)
				if abi.ClassOf(err) != abi.ErrType {
					return fmt.Errorf("Sendrecv with a null send type = %v, want MPI_ERR_TYPE", err)
				}
				for want := int64(1); want <= 2; want++ {
					got := make([]byte, 8)
					if err := b.Recv(got, 1, i64, 1, 7, world, nil); err != nil {
						return err
					}
					if !bytes.Equal(rb, untouched) {
						return fmt.Errorf("the failed Sendrecv's buffer now holds %d", abi.Int64sOf(rb)[0])
					}
					if v := abi.Int64sOf(got)[0]; v != want {
						return fmt.Errorf("Recv %d got message %d", want, v)
					}
				}
				return nil
			})
		})
	}
}

// TestRecycledRequestUnreachableByOldHandle: Wait and Test free a
// completed request's handle and recycle the request, which the next
// Irecv reuses. The old handle must not reach it: a second Wait or Test
// on the old handle answers MPI_ERR_REQUEST, and the new handle completes
// with its own message.
func TestRecycledRequestUnreachableByOldHandle(t *testing.T) {
	for _, impl := range nativeImpls {
		t.Run(impl.name, func(t *testing.T) {
			w := fabrictest.World(t, 2)
			fabrictest.Run(t, w, func(r int) error {
				b := impl.bind(w, r).(*mpicore.Binding)
				world, bt := b.Lookup(abi.SymCommWorld), b.Lookup(abi.SymForKind(types.KindByte))
				if r == 1 {
					for tag := 7; tag <= 9; tag++ {
						if err := b.Send([]byte{byte(tag)}, 1, bt, 0, tag, world); err != nil {
							return err
						}
					}
					return nil
				}
				buf := make([]byte, 1)
				// The first receive completes by Wait, the second by Test
				// (rank 1 has sent everything by the time rank 0's first
				// Wait returns, so Test need not wait for traffic).
				completes := []func(abi.Handle) error{
					func(h abi.Handle) error { return b.Wait(h, nil) },
					func(h abi.Handle) error {
						for i := 0; i < 8; i++ {
							if done, err := b.Test(h, nil); done || err != nil {
								return err
							}
						}
						return fmt.Errorf("Test never completed the receive")
					},
				}
				old, err := b.Irecv(buf, 1, bt, 1, 7, world)
				if err != nil {
					return err
				}
				for i, complete := range completes {
					req := b.RequestOf(old)
					if err := complete(old); err != nil || buf[0] != byte(7+i) {
						return fmt.Errorf("receive %d = %v with %d", i, err, buf[0])
					}
					h, err := b.Irecv(buf, 1, bt, 1, 8+i, world)
					if err != nil {
						return err
					}
					if b.RequestOf(h) != req {
						return fmt.Errorf("receive %d: the next Irecv did not reuse the completed request", i)
					}
					if err := complete(old); abi.ClassOf(err) != abi.ErrRequest {
						return fmt.Errorf("completing the old handle again = %v, want MPI_ERR_REQUEST", err)
					}
					old = h
				}
				if err := b.Wait(old, nil); err != nil || buf[0] != 9 {
					return fmt.Errorf("last receive = %v with %d", err, buf[0])
				}
				return nil
			})
		})
	}
}
