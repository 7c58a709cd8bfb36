package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/dmtcp"
	"repro/internal/fabric"
	"repro/internal/mpich"
	"repro/internal/mpicore"
	"repro/internal/ops"
	"repro/internal/osu"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/types"
)

// Probes are short fixed loops against one layer's public API, run only
// in a traced run. Each returns the median of a few repetitions; none is
// gated. n picks a loop count for the scale.

type prober struct {
	cfg config
	set metricSet
}

func (p *prober) n(full, smoke int) int {
	if p.cfg.smoke {
		return smoke
	}
	return full
}

// ranks shrinks a world at smoke scale; metric names keep the full size.
func (p *prober) ranks(full int) int {
	if p.cfg.smoke {
		return full / 16
	}
	return full
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func medianOf(reps int, fn func() (float64, error)) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		x, err := fn()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

func runProbes(cfg config, set metricSet) error {
	p := &prober{cfg: cfg, set: set}
	for _, probe := range []func() error{
		p.simnet, p.fabric, p.p2p, p.collectives, p.launch, p.localCalls,
		p.checkpoint, p.scenarioLayer, p.traceRatio,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) simnet() error {
	cfg := simnet.Discovery10GbE()
	cfg.Nodes, cfg.RanksPerNode = 2, 4
	net, err := simnet.NewNetwork(cfg)
	if err != nil {
		return err
	}
	n := p.n(200000, 2000)
	v, _ := medianOf(5, func() (float64, error) {
		var at simnet.Time
		start := time.Now()
		for i := 0; i < n; i++ {
			at = net.Transfer(0, 4, 1024, at)
		}
		return float64(time.Since(start)) / float64(n), nil
	})
	p.set.put("simnet.transfer_ns", v, "ns")
	return nil
}

// spawnAll runs body on every rank of a fresh world and waits for all.
func spawnAll(n int, event bool, body func(w *fabric.World, rank int)) error {
	var w *fabric.World
	var err error
	if event {
		w, err = fabric.NewWorldMode(simnet.SingleNode(n), fabric.ProgressEvent)
	} else {
		w, err = fabric.NewWorld(simnet.SingleNode(n))
	}
	if err != nil {
		return err
	}
	defer w.Close()
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		w.Spawn(r, func() {
			defer wg.Done()
			body(w, r)
		})
	}
	wg.Wait()
	return nil
}

func (p *prober) fabric() error {
	trips := p.n(20000, 200)
	pingpong := func(event bool) (float64, error) {
		return medianOf(3, func() (float64, error) {
			start := time.Now()
			err := spawnAll(2, event, func(w *fabric.World, rank int) {
				ep := w.Endpoint(rank)
				buf := make([]byte, 8)
				for i := 0; i < trips; i++ {
					if rank == 0 {
						e := fabric.GetEnvelope()
						e.Dst, e.Payload = 1, buf
						ep.Send(e)
						fabric.PutEnvelope(ep.Recv())
					} else {
						fabric.PutEnvelope(ep.Recv())
						e := fabric.GetEnvelope()
						e.Dst, e.Payload = 0, buf
						ep.Send(e)
					}
				}
			})
			return float64(time.Since(start)) / float64(trips), err
		})
	}
	v, err := pingpong(true)
	if err != nil {
		return err
	}
	p.set.put("fabric.event_pingpong_ns", v, "ns")
	if v, err = pingpong(false); err != nil {
		return err
	}
	p.set.put("fabric.default_pingpong_ns", v, "ns")

	n := p.ranks(1024)
	v, err = medianOf(5, func() (float64, error) {
		start := time.Now()
		err := spawnAll(n, true, func(*fabric.World, int) {})
		return ms(time.Since(start)), err
	})
	p.set.put("fabric.spawn_1024_ms", v, "ms")
	return err
}

// coreConsts and coreCodes: the vocabulary never affects the hot path.
var coreConsts = mpicore.Consts{
	AnySource: mpich.AnySource, AnyTag: mpich.AnyTag, ProcNull: mpich.ProcNull,
	TagUB: mpich.TagUB, Undefined: mpich.Undefined,
}

var coreCodes = mpicore.Codes{
	ErrBuffer: 1, ErrCount: 2, ErrType: 3, ErrTag: 4, ErrComm: 5,
	ErrRank: 6, ErrRequest: 7, ErrRoot: 8, ErrGroup: 9, ErrOp: 10,
	ErrArg: 11, ErrTruncate: 12, ErrIntern: 15, ErrOther: 16,
}

// coreWorld runs body on every rank of an event-mode world over the
// shared runtime directly — no binding, no shim, no launcher — and
// returns the first nonzero MPI code. Exactly one rank of a probe times
// an interval and returns it; the others return zero.
func coreWorld(n int, body func(p *mpicore.Proc) (time.Duration, int)) (time.Duration, error) {
	var timed time.Duration
	var mu sync.Mutex
	var bad int
	err := spawnAll(n, true, func(w *fabric.World, rank int) {
		proc := mpicore.NewProc(w, rank, coreConsts, coreCodes, mpich.Policy())
		d, code := body(proc)
		mu.Lock()
		timed += d
		if code != 0 && bad == 0 {
			bad = code
		}
		mu.Unlock()
		if code != 0 {
			w.Close()
		}
	})
	if err == nil && bad != 0 {
		err = fmt.Errorf("probe: MPI code %d", bad)
	}
	return timed, err
}

func (p *prober) p2p() error {
	rounds := p.n(6400, 128)
	const depth = 64
	// Posted path: both ranks post the receive, then send, then wait, so
	// nearly every arrival finds its receive already posted.
	v, err := medianOf(3, func() (float64, error) {
		d, err := coreWorld(2, func(pr *mpicore.Proc) (time.Duration, int) {
			peer := 1 - pr.Rank()
			bt := pr.Predef(types.KindByte)
			in, out := make([]byte, 8), make([]byte, 8)
			start := time.Now()
			for i := 0; i < rounds; i++ {
				rr, code := pr.Irecv(in, 8, bt, peer, 1, pr.CommWorld)
				if code != 0 {
					return 0, code
				}
				sr, code := pr.Isend(out, 8, bt, peer, 1, pr.CommWorld)
				if code != 0 {
					return 0, code
				}
				if code := pr.Waitall([]*mpicore.Request{rr, sr}, nil); code != 0 {
					return 0, code
				}
			}
			if pr.Rank() != 0 {
				return 0, 0
			}
			return time.Since(start), 0
		})
		return float64(d) / float64(rounds), err
	})
	if err != nil {
		return err
	}
	p.set.put("mpicore.p2p_match_ns", v, "ns")

	// Unexpected path: rank 0 sends 64 eager messages, a barrier lets
	// them all queue, and rank 1 receives them newest tag first, so every
	// match searches the unexpected queue.
	batches := rounds / depth
	if batches < 1 {
		batches = 1
	}
	v, err = medianOf(3, func() (float64, error) {
		d, err := coreWorld(2, func(pr *mpicore.Proc) (time.Duration, int) {
			bt := pr.Predef(types.KindByte)
			buf := make([]byte, 8)
			var spent time.Duration
			for b := 0; b < batches; b++ {
				if pr.Rank() == 0 {
					for tag := 0; tag < depth; tag++ {
						if code := pr.Send(buf, 8, bt, 1, tag, pr.CommWorld); code != 0 {
							return 0, code
						}
					}
				}
				if code := pr.Barrier(pr.CommWorld); code != 0 {
					return 0, code
				}
				if pr.Rank() == 1 {
					start := time.Now()
					for tag := depth - 1; tag >= 0; tag-- {
						if code := pr.Recv(buf, 8, bt, 0, tag, pr.CommWorld, nil); code != 0 {
							return 0, code
						}
					}
					spent += time.Since(start)
				}
				if code := pr.Barrier(pr.CommWorld); code != 0 {
					return 0, code
				}
			}
			return spent, 0
		})
		return float64(d) / float64(batches*depth), err
	})
	p.set.put("mpicore.unexpected_match_ns", v, "ns")
	return err
}

// collective times iters calls of one collective on an n-rank world over
// the shared runtime, in milliseconds per call: from rank 0 leaving the
// opening barrier until the last rank has returned (a broadcast's root is
// done long before its leaves).
func collective(kind collKind, n, iters int) (float64, error) {
	var start time.Time
	_, err := coreWorld(n, func(pr *mpicore.Proc) (time.Duration, int) {
		c := pr.CommWorld
		it, bt := pr.Predef(types.KindInt64), pr.Predef(types.KindByte)
		sum := pr.PredefOp(ops.OpSum)
		count := smallBytes / 8
		if kind == collAllreduce64K {
			count = 8192
		}
		sb, rb := make([]byte, count*8), make([]byte, count*8)
		var a2aIn, a2aOut []byte
		if kind == collAlltoall {
			a2aIn, a2aOut = make([]byte, n*smallBytes), make([]byte, n*smallBytes)
		}
		if code := pr.Barrier(c); code != 0 {
			return 0, code
		}
		if pr.Rank() == 0 {
			start = time.Now()
		}
		for i := 0; i < iters; i++ {
			var code int
			switch kind {
			case collAllreduce, collAllreduce64K:
				code = pr.Allreduce(sb, rb, count, it, sum, c)
			case collBcast:
				code = pr.Bcast(sb, smallBytes, bt, 0, c)
			case collBarrier:
				code = pr.Barrier(c)
			case collAlltoall:
				code = pr.Alltoall(a2aIn, smallBytes, bt, a2aOut, smallBytes, bt, c)
			}
			if code != 0 {
				return 0, code
			}
		}
		return 0, 0
	})
	return ms(time.Since(start)) / float64(iters), err
}

// stepLabel is the suffix shared by a core.step_ms metric and the
// mpicore probe it is compared with: <collective>_<full-scale ranks>.
func stepLabel(kind collKind, ranks int) string { return fmt.Sprintf("%s_%d", kind, ranks) }

// collProbes are the direct-mpicore twins of the collective_scale steps.
var collProbes = []struct {
	metric string
	kind   collKind
	ranks  int
	iters  int
}{
	{"mpicore.allreduce_1024_ms", collAllreduce, 1024, 5},
	{"mpicore.bcast_1024_ms", collBcast, 1024, 5},
	{"mpicore.barrier_1024_ms", collBarrier, 1024, 5},
	{"mpicore.allreduce_1024_64k_ms", collAllreduce64K, 1024, 2},
	{"mpicore.alltoall_256_ms", collAlltoall, 256, 5},
	{"mpicore.allreduce_4096_ms", collAllreduce, 4096, 2},
}

func (p *prober) collectives() error {
	for _, c := range collProbes {
		v, err := collective(c.kind, p.ranks(c.ranks), c.iters)
		if err != nil {
			return fmt.Errorf("%s: %w", c.metric, err)
		}
		p.set.put(c.metric, v, "ms")
	}
	// n log n predicts 4 * 12/10 = 4.8.
	p.set.put("mpicore.scale_ratio_4096_over_1024",
		p.set["mpicore.allreduce_4096_ms"].Value/p.set["mpicore.allreduce_1024_ms"].Value, "ratio")
	return nil
}

func (p *prober) launch() error {
	oneStep := func(stack repro.Stack) (float64, error) {
		start := time.Now()
		job, err := repro.Launch(stack, progCollMix, repro.WithConfigure(func(rank int, pr repro.Program) {
			pr.(*collMix).plan = []collKind{collBarrier}
		}))
		if err != nil {
			return 0, err
		}
		err = job.Wait()
		return ms(time.Since(start)), err
	}
	small := sweepStacks[0].stack(p.cfg.seed)
	v, err := medianOf(p.n(20, 2), func() (float64, error) { return oneStep(small) })
	if err != nil {
		return err
	}
	p.set.put("core.launch_ms", v, "ms")
	big := small
	big.Net = simnet.SingleNode(p.ranks(1024))
	big.Progress = "event"
	v, err = medianOf(3, func() (float64, error) { return oneStep(big) })
	p.set.put("core.launch_1024_ms", v, "ms")
	return err
}

func (p *prober) localCalls() error {
	iters := p.n(200000, 2000)
	probe := func(impl repro.Impl, abi repro.ABIMode, ckpt repro.CkptMode) (float64, error) {
		stack := repro.DefaultStack(impl, abi, ckpt)
		stack.Net = simnet.SingleNode(2)
		return medianOf(3, func() (float64, error) {
			job, err := repro.Launch(stack, progLocalCall, repro.WithConfigure(func(rank int, pr repro.Program) {
				pr.(*localCall).iters = iters
			}))
			if err != nil {
				return 0, err
			}
			if err := job.Wait(); err != nil {
				return 0, err
			}
			return job.Program(0).(*localCall).perNS, nil
		})
	}
	for _, l := range []struct {
		layer string
		impl  repro.Impl
		abi   repro.ABIMode
		ckpt  repro.CkptMode
	}{
		{"mpich", repro.ImplMPICH, repro.ABINative, repro.CkptNone},
		{"openmpi", repro.ImplOpenMPI, repro.ABINative, repro.CkptNone},
		{"stdabi", repro.ImplStdABI, repro.ABINative, repro.CkptNone},
		{"mukautuva", repro.ImplMPICH, repro.ABIMukautuva, repro.CkptNone},
		{"wi4mpi", repro.ImplMPICH, repro.ABIWi4MPI, repro.CkptNone},
		{"mana", repro.ImplMPICH, repro.ABIMukautuva, repro.CkptMANA},
	} {
		v, err := probe(l.impl, l.abi, l.ckpt)
		if err != nil {
			return fmt.Errorf("%s.local_call_ns: %w", l.layer, err)
		}
		p.set.put(l.layer+".local_call_ns", v, "ns")
	}
	native := p.set["mpich.local_call_ns"].Value
	for _, layer := range []string{"mukautuva", "wi4mpi", "mana"} {
		p.set.put(layer+".call_ratio", p.set[layer+".local_call_ns"].Value/native, "ratio")
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// checkpoint writes image sets of a held app.wave under Open MPI +
// Mukautuva + MANA, reads them back, and restarts them under the same
// and under the other implementation.
func (p *prober) checkpoint() error {
	sets := p.n(12, 2)
	from, cross := sweepStacks[4].stack(p.cfg.seed), sweepStacks[3].stack(p.cfg.seed)
	ranks := from.Net.Size()
	configure := configureWave(0.08, p.cfg.seed)
	root, err := p.cfg.scratchDir("ckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	var ckptMS, writeMBs, readMBs, restartMS, crossMS []float64
	var perRankKB float64
	for i := 0; i < sets; i++ {
		dir := filepath.Join(root, fmt.Sprintf("set%02d", i))
		wrote, err := checkpointWave(from, configure, dir)
		if err != nil {
			return fmt.Errorf("mana.ckpt_ms: %w", err)
		}
		bytes, err := dirBytes(dir)
		if err != nil {
			return err
		}
		ckptMS = append(ckptMS, ms(wrote))
		writeMBs = append(writeMBs, float64(bytes)/1e6/wrote.Seconds())
		perRankKB = float64(bytes) / 1024 / float64(ranks)

		start := time.Now()
		if _, err := dmtcp.ReadMeta(dir); err != nil {
			return err
		}
		for r := 0; r < ranks; r++ {
			if _, err := dmtcp.ReadRankImage(dir, r); err != nil {
				return err
			}
		}
		readMBs = append(readMBs, float64(bytes)/1e6/time.Since(start).Seconds())

		for _, leg := range []struct {
			stack repro.Stack
			into  *[]float64
		}{{from, &restartMS}, {cross, &crossMS}} {
			start = time.Now()
			job, err := repro.Restart(dir, leg.stack)
			if err != nil {
				return err
			}
			if err := job.Wait(); err != nil {
				return err
			}
			*leg.into = append(*leg.into, ms(time.Since(start)))
		}
	}
	p.set.put("mana.ckpt_ms", median(ckptMS), "ms")
	p.set.put("dmtcp.write_mb_per_s", median(writeMBs), "MB/s")
	p.set.put("dmtcp.read_mb_per_s", median(readMBs), "MB/s")
	p.set.put("dmtcp.image_kb_per_rank", perRankKB, "KiB")
	p.set.put("core.restart_ms", median(restartMS), "ms")
	p.set.put("core.restart_cross_ms", median(crossMS), "ms")
	return nil
}

func (p *prober) scenarioLayer() error {
	var specs []scenario.Spec
	v, _ := medianOf(p.n(15, 2), func() (float64, error) {
		start := time.Now()
		specs = scenario.DefaultMatrix().Enumerate()
		return ms(time.Since(start)), nil
	})
	p.set.put("scenario.enumerate_ms", v, "ms")
	opts := scenario.Quick()
	opts.BaseSeed = p.cfg.seed
	hashes := make([]string, len(specs))
	v, _ = medianOf(5, func() (float64, error) {
		start := time.Now()
		for i, s := range specs {
			hashes[i] = scenario.CellHash(s, opts)
		}
		return float64(time.Since(start)) / 1e3 / float64(len(specs)), nil
	})
	p.set.put("scenario.cellhash_us", v, "us")

	dir, err := p.cfg.scratchDir("cache-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := scenario.OpenCache(dir)
	if err != nil {
		return err
	}
	tr := newTracer()
	store := timedStore{cache, tr, "cache", -1, 0}
	for i, s := range specs {
		if err := store.Put(hashes[i], syntheticResult(p.cfg.seed, s)); err != nil {
			return err
		}
	}
	for i := range specs {
		if _, ok := store.Get(hashes[i]); !ok {
			return fmt.Errorf("scenario.cache_get_us: entry %d missing", i)
		}
	}
	p.set.put("scenario.cache_put_us", median(tr.durationsMS("cache.put"))*1e3, "us")
	p.set.put("scenario.cache_get_us", median(tr.durationsMS("cache.get"))*1e3, "us")
	return nil
}

// traceRatio is the wall cost of the program's own virtual-time tracing:
// an 8-rank allreduce loop with a sink attached over the same loop
// without one.
func (p *prober) traceRatio() error {
	iters := p.n(1500, 20)
	run := func(opts ...repro.LaunchOption) (float64, error) {
		opts = append(opts, repro.WithConfigure(func(rank int, pr repro.Program) {
			b := pr.(*osu.LatencyBench)
			b.Sizes, b.Warmup, b.Iters, b.ItersLarge = []int{1024}, 2, iters, 0
		}))
		start := time.Now()
		job, err := repro.Launch(sweepStacks[0].stack(p.cfg.seed), "osu.allreduce", opts...)
		if err != nil {
			return 0, err
		}
		err = job.Wait()
		return ms(time.Since(start)), err
	}
	var on, off []float64
	for i := 0; i < 3; i++ {
		a, err := run()
		if err != nil {
			return err
		}
		b, err := run(repro.WithTrace(trace.NewSink()))
		if err != nil {
			return err
		}
		off, on = append(off, a), append(on, b)
	}
	p.set.put("trace.enabled_ratio", median(on)/median(off), "ratio")
	return nil
}
