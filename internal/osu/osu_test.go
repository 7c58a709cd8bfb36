package osu

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/simnet"
)

func runBench(t *testing.T, prog string, stack core.Stack, conf func(*LatencyBench)) *LatencyBench {
	t.Helper()
	job, err := core.Launch(stack, prog, core.WithConfigure(func(rank int, p core.Program) {
		conf(p.(*LatencyBench))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	return job.Program(0).(*LatencyBench)
}

func smallStack(impl core.Impl) core.Stack {
	s := core.DefaultStack(impl, core.ABINative, core.CkptNone)
	s.Net = simnet.SingleNode(4)
	return s
}

func TestAllBenchmarksProduceResults(t *testing.T) {
	for _, prog := range []string{"osu.alltoall", "osu.bcast", "osu.allreduce"} {
		for _, impl := range []core.Impl{core.ImplMPICH, core.ImplOpenMPI} {
			t.Run(fmt.Sprintf("%s/%s", prog, impl), func(t *testing.T) {
				b := runBench(t, prog, smallStack(impl), func(lb *LatencyBench) {
					lb.Sizes = []int{1, 64, 4096}
					lb.Iters = 3
					lb.Warmup = 1
				})
				sizes, means := b.Results()
				if len(sizes) != 3 || len(means) != 3 {
					t.Fatalf("results incomplete: %v %v", sizes, means)
				}
				for i, m := range means {
					if m <= 0 {
						t.Fatalf("size %d latency %v not positive", sizes[i], m)
					}
				}
			})
		}
	}
}

func TestLatencyGrowsWithSize(t *testing.T) {
	b := runBench(t, "osu.alltoall", smallStack(core.ImplMPICH), func(lb *LatencyBench) {
		lb.Sizes = []int{64, 1 << 16}
		lb.Iters = 4
		lb.Warmup = 1
	})
	_, means := b.Results()
	if means[1] < 2*means[0] {
		t.Fatalf("64KB alltoall (%v us) not clearly slower than 64B (%v us)", means[1], means[0])
	}
}

func TestSleepWindowAdvancesVirtualTime(t *testing.T) {
	stack := smallStack(core.ImplOpenMPI)
	job, err := core.Launch(stack, "osu.alltoall.ckptwindow", core.WithConfigure(func(rank int, p core.Program) {
		lb := p.(*LatencyBench)
		lb.Sizes = []int{1}
		lb.Iters = 2
		lb.Warmup = 1
		lb.SleepReal = 0 // keep the test fast; virtual sleep remains
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if job.Clock(0).Duration().Seconds() < 10 {
		t.Fatalf("virtual clock %v did not include the 10s sleep window", job.Clock(0).Duration())
	}
}

func TestDefaultSizesMatchPaperAxis(t *testing.T) {
	sizes := DefaultSizes()
	if sizes[0] != 1 || sizes[len(sizes)-1] != 1<<18 || len(sizes) != 19 {
		t.Fatalf("sweep = %v", sizes)
	}
}

func TestUnknownCollectiveFails(t *testing.T) {
	stack := smallStack(core.ImplMPICH)
	job, err := core.Launch(stack, "osu.alltoall", core.WithConfigure(func(rank int, p core.Program) {
		lb := p.(*LatencyBench)
		lb.Op = Collective("gatherv")
		lb.Sizes = []int{1}
		lb.Iters = 1
		lb.Warmup = 1
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err == nil {
		t.Fatal("unknown collective ran successfully")
	}
}

// TestCheckpointImageCarriesNoBuffers: the message buffers run keeps
// across calls stay out of the checkpoint image. A 4-rank osu.allreduce at
// 16 KiB, checkpointed at its first safe point (one call in, both buffers
// sized), writes 225-byte rank images — the size of its exported state
// and MANA's blob in the canonical encoding — not 225 plus 32 KiB. The
// restarted bench decodes without buffers and must size them again on
// its first call to finish the sweep.
func TestCheckpointImageCarriesNoBuffers(t *testing.T) {
	const size, wantImage = 16 << 10, 225
	stack := core.DefaultStack(core.ImplMPICH, core.ABIMukautuva, core.CkptMANA)
	stack.Net = simnet.SingleNode(4)
	dir := t.TempDir()
	job, err := core.Launch(stack, "osu.allreduce", core.WithHold(), core.WithConfigure(func(rank int, p core.Program) {
		lb := p.(*LatencyBench)
		lb.Sizes, lb.Iters, lb.Warmup, lb.ItersLarge = []int{size}, 3, 2, 0
	}))
	if err != nil {
		t.Fatal(err)
	}
	done := job.CheckpointAsync(dir, true)
	job.Start()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if b := job.Program(0).(*LatencyBench); len(b.send) != size || len(b.recv) != size {
		t.Fatalf("buffers hold %d and %d bytes at the checkpoint, want %d each", len(b.send), len(b.recv), size)
	}
	images, err := filepath.Glob(filepath.Join(dir, "rank_*.img"))
	if err != nil || len(images) != 4 {
		t.Fatalf("rank images: %v, %v", images, err)
	}
	for _, img := range images {
		fi, err := os.Stat(img)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != wantImage {
			t.Errorf("%s is %d bytes, want %d", filepath.Base(img), fi.Size(), wantImage)
		}
	}
	target := core.DefaultStack(core.ImplOpenMPI, core.ABIMukautuva, core.CkptMANA)
	target.Net = simnet.SingleNode(4)
	restarted, err := core.Restart(dir, target)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Wait(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		b := restarted.Program(r).(*LatencyBench)
		if len(b.MeanMicros) != 1 || len(b.send) != size || len(b.recv) != size {
			t.Fatalf("restarted rank %d: %d results, buffers of %d and %d bytes, want 1 result and %d-byte buffers",
				r, len(b.MeanMicros), len(b.send), len(b.recv), size)
		}
	}
}

// TestSweepBuffersStayZero: sizeBuffers clears a buffer only by
// allocating it, once, which is right only while no collective writes a
// non-zero byte into a buffer of zeros. A short sweep of each collective
// on each of the stack_sweep workload's eight stacks (2x4 ranks) must
// leave its buffers all zeros on every rank. The sweep's sizes are out
// of order, so the buffers must also be sized to the largest of them,
// not the first or the last (n times that for alltoall), and a Bcast
// must have no recv buffer.
func TestSweepBuffersStayZero(t *testing.T) {
	stacks := []struct {
		impl core.Impl
		abi  core.ABIMode
		ckpt core.CkptMode
	}{
		{core.ImplMPICH, core.ABINative, core.CkptNone},
		{core.ImplOpenMPI, core.ABINative, core.CkptNone},
		{core.ImplStdABI, core.ABINative, core.CkptNone},
		{core.ImplMPICH, core.ABIMukautuva, core.CkptMANA},
		{core.ImplOpenMPI, core.ABIMukautuva, core.CkptMANA},
		{core.ImplMPICH, core.ABIWi4MPI, core.CkptMANA},
		{core.ImplMPICH, core.ABINative, core.CkptMANA},
		{core.ImplStdABI, core.ABIMukautuva, core.CkptNone},
	}
	for _, st := range stacks {
		for _, prog := range []string{"osu.alltoall", "osu.bcast", "osu.allreduce"} {
			stack := core.DefaultStack(st.impl, st.abi, st.ckpt)
			stack.Net.Nodes, stack.Net.RanksPerNode = 2, 4
			t.Run(fmt.Sprintf("%s/%s", stack.Label(), prog), func(t *testing.T) {
				job, err := core.Launch(stack, prog, core.WithConfigure(func(rank int, p core.Program) {
					lb := p.(*LatencyBench)
					lb.Sizes, lb.Iters, lb.Warmup, lb.ItersLarge = []int{1, 64, 4096, 16 << 10, 256}, 2, 1, 0
				}))
				if err != nil {
					t.Fatal(err)
				}
				if err := job.Wait(); err != nil {
					t.Fatal(err)
				}
				n := stack.Net.Size()
				wantSend, wantRecv := 16<<10, 16<<10
				switch prog {
				case "osu.alltoall":
					wantSend, wantRecv = n*16<<10, n*16<<10
				case "osu.bcast":
					wantRecv = 0
				}
				for r := 0; r < n; r++ {
					b := job.Program(r).(*LatencyBench)
					if len(b.send) != wantSend || len(b.recv) != wantRecv {
						t.Fatalf("rank %d: send %d and recv %d bytes, want %d and %d", r, len(b.send), len(b.recv), wantSend, wantRecv)
					}
					for name, buf := range map[string][]byte{"send": b.send, "recv": b.recv} {
						for i, c := range buf[:cap(buf)] {
							if c != 0 {
								t.Fatalf("rank %d: %s[%d] = %#x after the sweep, want all zeros", r, name, i, c)
							}
						}
					}
				}
			})
		}
	}
}
