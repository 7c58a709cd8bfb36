package repro

import (
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/fabric/fabrictest"
	"repro/internal/mpich"
	"repro/internal/mpicore"
	"repro/internal/openmpi"
	"repro/internal/ops"
	"repro/internal/osu"
	"repro/internal/scenario"
	"repro/internal/scenario/remote"
	"repro/internal/simnet"
	"repro/internal/stdabi"
	"repro/internal/trace"
	"repro/internal/types"
)

// benchStack builds a small-cluster stack (2x4 ranks) so benchmarks finish
// quickly while still crossing node boundaries.
func benchStack(impl Impl, abiMode ABIMode, ckpt CkptMode) Stack {
	s := DefaultStack(impl, abiMode, ckpt)
	s.Net.Nodes = 2
	s.Net.RanksPerNode = 4
	s.Net.JitterFrac = 0
	return s
}

// benchLatency runs b.N iterations of one collective at one size through a
// full stack and reports both wall-clock ns/op (the real interposition
// cost) and virtual-time us/op (the simulated cluster latency the paper
// plots).
func benchLatency(b *testing.B, stack Stack, op osu.Collective, size int) {
	b.Helper()
	job, err := Launch(stack, "osu."+string(op), WithConfigure(func(rank int, p Program) {
		lb := p.(*osu.LatencyBench)
		lb.Sizes = []int{size}
		lb.Warmup = 2
		lb.Iters = b.N
	}))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := job.Wait(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	_, means := job.Program(0).(*osu.LatencyBench).Results()
	if len(means) == 1 {
		b.ReportMetric(means[0], "virt-us/op")
	}
}

// fourBenchStacks mirrors the paper's comparison matrix.
func fourBenchStacks() []struct {
	name  string
	stack Stack
} {
	return []struct {
		name  string
		stack Stack
	}{
		{"MPICH", benchStack(ImplMPICH, ABINative, CkptNone)},
		{"MPICH_Muk_MANA", benchStack(ImplMPICH, ABIMukautuva, CkptMANA)},
		{"OpenMPI", benchStack(ImplOpenMPI, ABINative, CkptNone)},
		{"OpenMPI_Muk_MANA", benchStack(ImplOpenMPI, ABIMukautuva, CkptMANA)},
	}
}

// BenchmarkFig2Alltoall regenerates Figure 2's comparison at a small and a
// large message size for each stack.
func BenchmarkFig2Alltoall(b *testing.B) {
	for _, sz := range []int{1, 4096} {
		for _, sc := range fourBenchStacks() {
			b.Run(fmt.Sprintf("%s/size=%d", sc.name, sz), func(b *testing.B) {
				benchLatency(b, sc.stack, osu.Alltoall, sz)
			})
		}
	}
}

// BenchmarkFig3Bcast regenerates Figure 3's comparison.
func BenchmarkFig3Bcast(b *testing.B) {
	for _, sz := range []int{1, 4096} {
		for _, sc := range fourBenchStacks() {
			b.Run(fmt.Sprintf("%s/size=%d", sc.name, sz), func(b *testing.B) {
				benchLatency(b, sc.stack, osu.Bcast, sz)
			})
		}
	}
}

// BenchmarkFig4Allreduce regenerates Figure 4's comparison.
func BenchmarkFig4Allreduce(b *testing.B) {
	for _, sz := range []int{1, 4096} {
		for _, sc := range fourBenchStacks() {
			b.Run(fmt.Sprintf("%s/size=%d", sc.name, sz), func(b *testing.B) {
				benchLatency(b, sc.stack, osu.Allreduce, sz)
			})
		}
	}
}

// benchApp runs one Figure 5 application with b.N steps and reports
// virtual seconds per full run.
func benchApp(b *testing.B, stack Stack, prog string) {
	b.Helper()
	job, err := Launch(stack, prog, WithConfigure(func(rank int, p Program) {
		type scalable interface{ ScaleSteps(f float64) }
		if s, ok := p.(scalable); ok {
			s.ScaleSteps(0.02) // small fixed problem
		}
		type seedable interface{ SetSeed(s int64) }
		if s, ok := p.(seedable); ok {
			s.SetSeed(1)
		}
	}))
	if err != nil {
		b.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		b.Fatal(err)
	}
	var maxT float64
	for r := 0; r < stack.Net.Size(); r++ {
		if t := job.Clock(r).Duration().Seconds(); t > maxT {
			maxT = t
		}
	}
	b.ReportMetric(maxT*1000, "virt-ms/run")
}

// BenchmarkFig5CoMD regenerates Figure 5's CoMD bars.
func BenchmarkFig5CoMD(b *testing.B) {
	for _, sc := range fourBenchStacks() {
		b.Run(sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchApp(b, sc.stack, "app.comd")
			}
		})
	}
}

// BenchmarkFig5Wave regenerates Figure 5's wave_mpi bars.
func BenchmarkFig5Wave(b *testing.B) {
	for _, sc := range fourBenchStacks() {
		b.Run(sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchApp(b, sc.stack, "app.wave")
			}
		})
	}
}

// BenchmarkFig6CrossRestart measures the full Section 5.3 cycle: launch
// under Open MPI, checkpoint, restart under MPICH.
func BenchmarkFig6CrossRestart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "bench-fig6-*")
		if err != nil {
			b.Fatal(err)
		}
		launch := benchStack(ImplOpenMPI, ABIMukautuva, CkptMANA)
		job, err := Launch(launch, "osu.alltoall.ckptwindow", WithConfigure(func(rank int, p Program) {
			lb := p.(*osu.LatencyBench)
			lb.Sizes = []int{1, 1024}
			lb.Warmup = 2
			lb.Iters = 4
			lb.SleepReal = 80 * time.Millisecond
		}))
		if err != nil {
			b.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		if err := job.Checkpoint(dir, true); err != nil {
			b.Fatal(err)
		}
		if err := job.Wait(); err != nil {
			b.Fatal(err)
		}
		restarted, err := Restart(dir, benchStack(ImplMPICH, ABIMukautuva, CkptMANA))
		if err != nil {
			b.Fatal(err)
		}
		if err := restarted.Wait(); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
	}
}

// BenchmarkAblationFSGSBase contrasts the paper's old-kernel syscall cost
// with the 5.9+ userspace FSGSBASE path through the full MANA stack.
func BenchmarkAblationFSGSBase(b *testing.B) {
	for _, k := range []struct {
		name string
		kv   int
	}{{"pre5.9", 0}, {"5.9plus", 1}} {
		b.Run(k.name, func(b *testing.B) {
			stack := benchStack(ImplMPICH, ABIMukautuva, CkptMANA)
			if k.kv == 1 {
				stack.Kernel = Kernel5_9Plus
			} else {
				stack.Kernel = KernelPre5_9
			}
			benchLatency(b, stack, osu.Allreduce, 8)
		})
	}
}

// BenchmarkAblationManaOverNative measures the paper's older "virtual id"
// configuration (MANA directly over a native binding, no Mukautuva).
func BenchmarkAblationManaOverNative(b *testing.B) {
	for _, sc := range []struct {
		name  string
		stack Stack
	}{
		{"MPICH_native_MANA", benchStack(ImplMPICH, ABINative, CkptMANA)},
		{"MPICH_Muk_MANA", benchStack(ImplMPICH, ABIMukautuva, CkptMANA)},
	} {
		b.Run(sc.name, func(b *testing.B) {
			benchLatency(b, sc.stack, osu.Alltoall, 64)
		})
	}
}

// BenchmarkFaultRecovery measures the full fault-tolerance cycle the
// paper's title promises: launch under Open MPI with periodic
// checkpointing, crash a node mid-run, detect the failure, restart from
// the latest complete image under MPICH, run to completion. Reported
// wall time is the whole cycle; recovered-us isolates detection +
// restart + recomputation.
func BenchmarkFaultRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "bench-recovery-*")
		if err != nil {
			b.Fatal(err)
		}
		stack := benchStack(ImplOpenMPI, ABIMukautuva, CkptMANA)
		rstack := benchStack(ImplMPICH, ABIMukautuva, CkptMANA)
		inj, err := NewFaultInjector(FaultPlan{Faults: []FaultSpec{
			{Kind: FaultNodeCrash, Rank: FaultAnywhere, Node: 0, Step: 6},
		}}, 1, stack.Net)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		res, err := RunWithRecovery(stack, "test.bench.ring", inj, RecoveryPolicy{
			ImageRoot: dir, Interval: 2, MaxRecoveries: 2, RestartStack: &rstack,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed || res.Recoveries != 1 {
			b.Fatalf("completed=%v restarts=%d", res.Completed, res.Recoveries)
		}
		b.ReportMetric(float64(time.Since(start).Microseconds()), "cycle-us")
		os.RemoveAll(dir)
	}
}

// BenchmarkShrinkRecovery measures the OTHER fault-tolerance cycle —
// ULFM in-place recovery, the checkpoint-free path: launch, crash a
// rank mid-run, survivors' pending collectives complete
// with the proc-failed code, revoke/shrink/agree, recompute on the
// survivors-only world to completion. cycle-us is the whole cycle;
// contrast BenchmarkFaultRecovery's image-restart cycle on the same
// workload shape.
func BenchmarkShrinkRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stack := benchStack(ImplOpenMPI, ABIMukautuva, CkptNone)
		inj, err := NewFaultInjector(FaultPlan{Faults: []FaultSpec{
			{Kind: FaultRankCrash, Rank: 3, Step: 6},
		}}, 1, stack.Net)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		res, err := RunWithRecovery(stack, "test.bench.ring", inj, RecoveryPolicy{Mode: "shrink", MaxRecoveries: 2})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed || res.Recoveries != 1 {
			b.Fatalf("completed=%v shrinks=%d", res.Completed, res.Recoveries)
		}
		b.ReportMetric(float64(time.Since(start).Microseconds()), "cycle-us")
		var virt float64
		for r := 0; r < stack.Net.Size(); r++ {
			if t := res.Job.Clock(r).Duration().Seconds(); t > virt {
				virt = t
			}
		}
		b.ReportMetric(virt*1e3, "virt-ms/run")
	}
}

// BenchmarkReplicatedFailover measures the THIRD fault-tolerance cycle
// — replication, the pay-up-front path: launch with a warm shadow
// behind every logical rank, crash a primary mid-run, and
// finish on the promoted shadow with no rollback and no recomputation.
// cycle-us is the whole cycle; virt-ms/run is the virtual
// time-to-solution over logical clocks, which carries the steady-state
// duplicate-message overhead instead of a recovery window — contrast
// BenchmarkShrinkRecovery and BenchmarkFaultRecovery on the same
// workload shape.
func BenchmarkReplicatedFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stack := benchStack(ImplOpenMPI, ABIMukautuva, CkptNone)
		inj, err := NewFaultInjector(FaultPlan{Faults: []FaultSpec{
			{Kind: FaultRankCrash, Rank: 3, Step: 6},
		}}, 1, stack.Net)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		res, err := RunWithRecovery(stack, "test.bench.ring", inj, RecoveryPolicy{Mode: "replicate"})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed || res.Recoveries != 1 {
			b.Fatalf("completed=%v promotions=%d", res.Completed, res.Recoveries)
		}
		b.ReportMetric(float64(time.Since(start).Microseconds()), "cycle-us")
		var virt float64
		for r := 0; r < stack.Net.Size(); r++ {
			if t := res.Job.LogicalClock(r).Duration().Seconds(); t > virt {
				virt = t
			}
		}
		b.ReportMetric(virt*1e3, "virt-ms/run")
	}
}

// benchRing is a small lockstep workload for the recovery benchmark:
// one allreduce per step, quiescent at every safe point.
type benchRing struct {
	Total int
	Iter  int
}

func (p *benchRing) Setup(env *Env) error { return nil }

func (p *benchRing) Step(env *Env) (bool, error) {
	out := make([]byte, 8)
	if err := env.T.Allreduce(make([]byte, 8), out, 1, env.TypeInt64, env.OpSum, env.CommWorld); err != nil {
		return false, err
	}
	p.Iter++
	return p.Iter >= p.Total, nil
}

func init() {
	RegisterProgram("test.bench.ring", func() Program { return &benchRing{Total: 20} })
}

// BenchmarkCheckpointWrite isolates the checkpoint path: quiesce, drain,
// image write.
func BenchmarkCheckpointWrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "bench-ckpt-*")
		if err != nil {
			b.Fatal(err)
		}
		stack := benchStack(ImplMPICH, ABIMukautuva, CkptMANA)
		job, err := Launch(stack, "osu.alltoall.ckptwindow", WithConfigure(func(rank int, p Program) {
			lb := p.(*osu.LatencyBench)
			lb.Sizes = []int{64}
			lb.Warmup = 2
			lb.Iters = 4
			lb.SleepReal = 100 * time.Millisecond
		}))
		if err != nil {
			b.Fatal(err)
		}
		time.Sleep(15 * time.Millisecond)
		start := time.Now()
		if err := job.Checkpoint(dir, true); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(time.Since(start).Microseconds()), "ckpt-us")
		if err := job.Wait(); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
	}
}

// corePolicies names each implementation's algorithm personality — the
// per-policy axis of the mpicore collective microbenchmarks.
func corePolicies() []struct {
	name string
	pol  mpicore.Policy
} {
	return []struct {
		name string
		pol  mpicore.Policy
	}{
		{"MPICH", mpich.Policy()},
		{"OpenMPI", openmpi.Policy()},
		{"StdABI", stdabi.Policy()},
	}
}

// benchCoreConsts/CoreCodes: the vocabulary never affects the hot path,
// so the benchmarks use the standard one.
var benchCoreConsts = mpicore.Consts{
	AnySource: abi.AnySource, AnyTag: abi.AnyTag, ProcNull: abi.ProcNull,
	TagUB: abi.TagUB, Undefined: abi.Undefined,
}

var benchCoreCodes = mpicore.Codes{
	ErrBuffer: 1, ErrCount: 2, ErrType: 3, ErrTag: 4, ErrComm: 5,
	ErrRank: 6, ErrRequest: 7, ErrRoot: 8, ErrGroup: 9, ErrOp: 10,
	ErrArg: 11, ErrTruncate: 12, ErrIntern: 15, ErrOther: 16,
}

// benchCollective drives one collective b.N times on a fresh world of the
// given size directly over the shared runtime — no binding, no shim, no
// launcher — isolating the hot path the regression gate watches, from the
// 8-rank gate benches to the 4096-rank scale benches. Reported virt-us/op
// is rank 0's virtual clock advance per operation.
func benchCollective(b *testing.B, pol mpicore.Policy, coll string, ranks, count int) {
	b.Helper()
	w := fabrictest.World(b, ranks)
	b.ResetTimer()
	fabrictest.Run(b, w, func(r int) error {
		p := mpicore.NewProc(w, r, benchCoreConsts, benchCoreCodes, pol)
		c := p.CommWorld
		it := p.Predef(types.KindInt64)
		sum := p.PredefOp(ops.OpSum)
		sb := make([]byte, count*8)
		rb := make([]byte, count*8)
		var a2aIn, a2aOut []byte
		if coll == "alltoall" {
			a2aIn = make([]byte, ranks*count*8)
			a2aOut = make([]byte, ranks*count*8)
		}
		for i := 0; i < b.N; i++ {
			var code int
			switch coll {
			case "bcast":
				code = p.Bcast(sb, count, it, 0, c)
			case "allreduce":
				code = p.Allreduce(sb, rb, count, it, sum, c)
			case "alltoall":
				code = p.Alltoall(a2aIn, count, it, a2aOut, count, it, c)
			case "barrier":
				code = p.Barrier(c)
			}
			if code != 0 {
				return fmt.Errorf("%s failed with code %d", coll, code)
			}
		}
		return nil
	})
	b.StopTimer()
	virtUS := float64(w.Endpoint(0).Clock().Now()) / 1e3
	b.ReportMetric(virtUS/float64(b.N), "virt-us/op")
}

// BenchmarkMpicoreBcast sweeps the broadcast hot path per policy, at a
// size below and above every policy's tree/pipeline switchover.
func BenchmarkMpicoreBcast(b *testing.B) {
	for _, pc := range corePolicies() {
		for _, count := range []int{8, 8192} { // 64 B and 64 KiB
			b.Run(fmt.Sprintf("%s/bytes=%d", pc.name, count*8), func(b *testing.B) {
				benchCollective(b, pc.pol, "bcast", 8, count)
			})
		}
	}
}

// BenchmarkMpicoreAllreduce sweeps the allreduce hot path per policy
// (recursive doubling vs Rabenseifner vs ring, per each policy's cutoffs).
func BenchmarkMpicoreAllreduce(b *testing.B) {
	for _, pc := range corePolicies() {
		for _, count := range []int{8, 8192} {
			b.Run(fmt.Sprintf("%s/bytes=%d", pc.name, count*8), func(b *testing.B) {
				benchCollective(b, pc.pol, "allreduce", 8, count)
			})
		}
	}
}

// BenchmarkMpicoreAlltoall sweeps the alltoall hot path per policy
// (Bruck vs overlap vs pairwise, per each policy's cutoffs).
func BenchmarkMpicoreAlltoall(b *testing.B) {
	for _, pc := range corePolicies() {
		for _, count := range []int{8, 1024} { // 64 B and 8 KiB blocks
			b.Run(fmt.Sprintf("%s/bytes=%d", pc.name, count*8), func(b *testing.B) {
				benchCollective(b, pc.pol, "alltoall", 8, count)
			})
		}
	}
}

// BenchmarkNativeVsShimCallPath contrasts one two-rank round trip through
// the native binding and through the full Mukautuva+MANA stack — the
// wall-clock cost of interposition itself.
func BenchmarkNativeVsShimCallPath(b *testing.B) {
	for _, sc := range []struct {
		name  string
		stack Stack
	}{
		{"native", benchStack(ImplMPICH, ABINative, CkptNone)},
		{"muk", benchStack(ImplMPICH, ABIMukautuva, CkptNone)},
		{"wi4mpi", benchStack(ImplMPICH, ABIWi4MPI, CkptNone)},
		{"muk_mana", benchStack(ImplMPICH, ABIMukautuva, CkptMANA)},
	} {
		sc.stack.Net = simnet.SingleNode(2)
		b.Run(sc.name, func(b *testing.B) {
			benchLatency(b, sc.stack, osu.Allreduce, 8)
		})
	}
}

// BenchmarkLargeWorldAllreduce is the scale bench: a 64-byte allreduce at
// 1K and 4K ranks. All ranks share one execution token with batched
// delivery and pooled envelopes, which is what makes these rank counts
// benchable on a laptop.
func BenchmarkLargeWorldAllreduce(b *testing.B) {
	for _, ranks := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("event/ranks=%d", ranks), func(b *testing.B) {
			benchCollective(b, mpich.Policy(), "allreduce", ranks, 8)
		})
	}
}

// BenchmarkLargeWorldBcast: binomial broadcast at 1K ranks.
func BenchmarkLargeWorldBcast(b *testing.B) {
	b.Run("event/ranks=1024", func(b *testing.B) {
		benchCollective(b, mpich.Policy(), "bcast", 1024, 8)
	})
}

// BenchmarkLargeWorldBarrier: dissemination barrier at 1K ranks — the
// pure wakeup/handoff cost of the scheduler, no payload at all.
func BenchmarkLargeWorldBarrier(b *testing.B) {
	b.Run("event/ranks=1024", func(b *testing.B) {
		benchCollective(b, mpich.Policy(), "barrier", 1024, 0)
	})
}

// BenchmarkTraceOverhead measures what the tracing instrumentation
// costs on the 8-rank gate workload. "disabled" is the shipping
// default — every emission site pays one nil pointer compare — and
// must stay within noise of the pre-instrumentation wall numbers;
// "enabled" buys the full per-rank event record. The virtual-time
// metric is identical in both (and to the committed baseline):
// tracing reads rank clocks, never advances them, so the 25% virt
// gate sees bit-exact values with the sink on or off.
func BenchmarkTraceOverhead(b *testing.B) {
	run := func(b *testing.B, opts ...LaunchOption) {
		b.Helper()
		stack := benchStack(ImplMPICH, ABINative, CkptNone)
		all := append([]LaunchOption{WithConfigure(func(rank int, p Program) {
			lb := p.(*osu.LatencyBench)
			lb.Sizes = []int{1024}
			lb.Warmup = 2
			lb.Iters = b.N
		})}, opts...)
		job, err := Launch(stack, "osu.allreduce", all...)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		if err := job.Wait(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		_, means := job.Program(0).(*osu.LatencyBench).Results()
		if len(means) == 1 {
			b.ReportMetric(means[0], "virt-us/op")
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b) })
	b.Run("enabled", func(b *testing.B) {
		sink := trace.NewSink()
		run(b, WithTrace(sink))
	})
}

// matrixBenchWorkload builds the straggler-heavy subset the scheduling
// benchmark runs: a handful of crash cells whose synthetic costs vary
// (real fault cells do — detect latency and restart legs differ by
// shape), plus a tail of cheap plain cells. Six heavies over four
// workers is the shape where static round-robin sharding loses: two
// shards draw two stragglers each while two draw one, so the makespan
// is gated by the unluckiest pairing, not by total work.
func matrixBenchWorkload() ([]scenario.Spec, map[string]time.Duration) {
	var heavy, light []scenario.Spec
	for _, s := range scenario.DefaultMatrix().Enumerate() {
		switch {
		case (s.Fault == "rank-crash" && s.Recovery == "") || s.Fault == "node-crash":
			heavy = append(heavy, s)
		case s.Fault == "" && s.Ckpt == "none" && !s.HasRestart():
			light = append(light, s)
		}
	}
	heavy, light = heavy[:6], light[:30]
	costs := make(map[string]time.Duration, len(heavy)+len(light))
	specs := make([]scenario.Spec, 0, len(heavy)+len(light))
	for i, s := range heavy {
		// 32ms down to 22ms: varied stragglers, so packing order matters.
		costs[s.ID()] = time.Duration(32-2*i) * time.Millisecond
		specs = append(specs, s)
	}
	for _, s := range light {
		costs[s.ID()] = time.Millisecond
		specs = append(specs, s)
	}
	return specs, costs
}

// BenchmarkMatrixScheduling pits the two ways paperfigs spreads a matrix
// across four workers against each other on the straggler-heavy subset:
// static -shard i/4 round-robin partitioning (each worker sequentially
// runs its fixed slice; the run ends when the slowest shard does) versus
// the matrixd lease queue (workers steal the next longest-expected cell
// until the queue is dry, paying real HTTP+store overhead per cell).
// Cell execution is a sleep of the cell's synthetic cost on both sides,
// so the measured difference is pure scheduling. Metrics are wall-clock
// only — the virtual-time regression gate does not apply here.
func BenchmarkMatrixScheduling(b *testing.B) {
	specs, costs := matrixBenchWorkload()
	opts := scenario.Quick()
	opts.Reps = 1
	execute := func(s scenario.Spec, _ scenario.Options) scenario.Result {
		c := costs[s.ID()]
		time.Sleep(c)
		return scenario.Result{ID: s.ID(), Spec: s, Status: scenario.StatusPass, Reps: 1, WallMS: c.Milliseconds()}
	}
	const workers = 4

	b.Run("static-4shard", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			start := time.Now()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for _, s := range (scenario.Shard{Index: w, Count: workers}).Select(specs) {
						execute(s, opts)
					}
				}(w)
			}
			wg.Wait()
			total += time.Since(start)
		}
		b.ReportMetric(float64(total.Microseconds())/1e3/float64(b.N), "wall-ms/run")
	})

	b.Run("worksteal-4workers", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			store, err := scenario.OpenCache(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			srv, err := remote.NewServer(remote.ServerConfig{Specs: specs, Options: opts, Store: store})
			if err != nil {
				b.Fatal(err)
			}
			hs := httptest.NewServer(srv)
			clients := make([]*remote.Client, workers)
			for w := range clients {
				if clients[w], err = remote.Dial(hs.URL); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()

			start := time.Now()
			var wg sync.WaitGroup
			errs := make([]error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					_, errs[w] = clients[w].Drain(remote.WorkerConfig{
						Name:    fmt.Sprintf("bench-%d", w),
						Execute: execute,
					})
				}(w)
			}
			wg.Wait()
			total += time.Since(start)

			b.StopTimer()
			hs.Close()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(total.Microseconds())/1e3/float64(b.N), "wall-ms/run")
	})
}
