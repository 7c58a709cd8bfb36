// Package apps_test exercises the two Figure 5 applications end to end:
// numerical sanity, stack-independence of results, and checkpoint/restart
// mid-simulation.
package apps_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/apps/comd"
	"repro/internal/apps/wavempi"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/dmtcp"
	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/simnet"
)

func smallStack(impl core.Impl, abiMode core.ABIMode, ckpt core.CkptMode, n int) core.Stack {
	s := core.DefaultStack(impl, abiMode, ckpt)
	s.Net = simnet.SingleNode(n)
	return s
}

func runWave(t *testing.T, stack core.Stack, steps, points int) *wavempi.Wave {
	t.Helper()
	job, err := core.Launch(stack, "app.wave", core.WithConfigure(func(rank int, p core.Program) {
		w := p.(*wavempi.Wave)
		w.Steps = steps
		w.GlobalPoints = points
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	return job.Program(0).(*wavempi.Wave)
}

func TestWaveChecksumStackIndependent(t *testing.T) {
	// The standing wave's energy checksum must be identical regardless of
	// implementation or interposition: MPI plumbing must not change the
	// numerics.
	var ref float64
	for i, stack := range []core.Stack{
		smallStack(core.ImplMPICH, core.ABINative, core.CkptNone, 4),
		smallStack(core.ImplOpenMPI, core.ABINative, core.CkptNone, 4),
		smallStack(core.ImplStdABI, core.ABINative, core.CkptNone, 4),
		smallStack(core.ImplMPICH, core.ABIMukautuva, core.CkptMANA, 4),
		smallStack(core.ImplOpenMPI, core.ABIMukautuva, core.CkptMANA, 4),
		smallStack(core.ImplStdABI, core.ABIMukautuva, core.CkptMANA, 4),
	} {
		w := runWave(t, stack, 25, 2048)
		if i == 0 {
			ref = w.Checked
			if ref <= 0 {
				t.Fatalf("degenerate checksum %v", ref)
			}
			continue
		}
		if math.Abs(w.Checked-ref) > 1e-9 {
			t.Fatalf("stack %d checksum %v != reference %v", i, w.Checked, ref)
		}
	}
}

// A warm Step allocates no slab: the next time level is written into the
// previous one's storage, and the halo buffers and requests are the
// program's own, reused from step to step. Doubling the step count of a
// two-rank run must add under 1 KiB per rank per extra step, which is what
// the stack below allocates per message (about 420 bytes, mostly
// requests); one slab per step would be 256 KiB.
func TestWaveStepAllocatesNoSlab(t *testing.T) {
	const points, steps, ranks = 1 << 16, 24, 2
	stack := smallStack(core.ImplMPICH, core.ABINative, core.CkptNone, ranks)
	allocated := func(steps int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if w := runWave(t, stack, steps, points); w.Iter != steps {
			t.Fatalf("ran %d steps, want %d", w.Iter, steps)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(steps) // warm the process-wide pools
	short, long := allocated(steps), allocated(2*steps)
	const perStep = 1 << 10 // bytes per rank per step
	if extra := int64(long) - int64(short); extra > steps*ranks*perStep {
		t.Fatalf("%d extra steps allocated %d bytes (%.0f per rank per step), want under %d",
			steps, extra, float64(extra)/float64(steps*ranks), perStep)
	}
}

// The explicit scheme stays stable at every scale the repo runs it: the
// quick scales of the figures and the matrix, and the paper's. The
// standing wave starts with |u| <= 1, so its checksum, the sum of u² over
// the grid, stays positive and under the number of points.
func TestWaveEnergyBounded(t *testing.T) {
	for _, scale := range []float64{0.02, scenario.Quick().AppScale, scenario.Full().AppScale} {
		job, err := core.Launch(smallStack(core.ImplMPICH, core.ABINative, core.CkptNone, 8), "app.wave",
			core.WithConfigure(func(rank int, p core.Program) { p.(*wavempi.Wave).ScaleSteps(scale) }))
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(); err != nil {
			t.Fatal(err)
		}
		w := job.Program(0).(*wavempi.Wave)
		if !(w.Checked > 0 && w.Checked < float64(w.GlobalPoints)) {
			t.Fatalf("scale %v, %d points, %d steps: solution diverged: checksum %v",
				scale, w.GlobalPoints, w.Steps, w.Checked)
		}
		t.Logf("scale %v, %d points, %d steps: checksum %.1f", scale, w.GlobalPoints, w.Steps, w.Checked)
	}
}

func TestWaveRejectsTinyGrid(t *testing.T) {
	job, err := core.Launch(smallStack(core.ImplMPICH, core.ABINative, core.CkptNone, 4), "app.wave",
		core.WithConfigure(func(rank int, p core.Program) {
			w := p.(*wavempi.Wave)
			w.GlobalPoints = 3
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err == nil {
		t.Fatal("3-point grid over 4 ranks accepted")
	}
}

func runCoMD(t *testing.T, stack core.Stack, steps, atoms int) (*comd.CoMD, float64) {
	t.Helper()
	job, err := core.Launch(stack, "app.comd", core.WithConfigure(func(rank int, p core.Program) {
		c := p.(*comd.CoMD)
		c.Steps = steps
		c.ParticlesPerRank = atoms
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	var maxT float64
	for r := 0; r < stack.Net.Size(); r++ {
		if ts := job.Clock(r).Duration().Seconds(); ts > maxT {
			maxT = ts
		}
	}
	return job.Program(0).(*comd.CoMD), maxT
}

func TestCoMDEnergiesFinite(t *testing.T) {
	for _, impl := range []core.Impl{core.ImplMPICH, core.ImplOpenMPI} {
		t.Run(string(impl), func(t *testing.T) {
			c, elapsed := runCoMD(t, smallStack(impl, core.ABINative, core.CkptNone, 4), 10, 64)
			if math.IsNaN(c.KineticE) || math.IsNaN(c.PotentialE) {
				t.Fatalf("energies NaN: %v %v", c.KineticE, c.PotentialE)
			}
			if c.KineticE <= 0 {
				t.Fatalf("kinetic energy %v not positive", c.KineticE)
			}
			if elapsed <= 0 {
				t.Fatal("no virtual time elapsed")
			}
		})
	}
}

// runCoMDRanks runs CoMD and returns every rank's final program state.
func runCoMDRanks(t *testing.T, stack core.Stack, steps, atoms int) []*comd.CoMD {
	t.Helper()
	job, err := core.Launch(stack, "app.comd", core.WithConfigure(func(rank int, p core.Program) {
		c := p.(*comd.CoMD)
		c.Steps = steps
		c.ParticlesPerRank = atoms
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	ranks := make([]*comd.CoMD, stack.Net.Size())
	for r := range ranks {
		ranks[r] = job.Program(r).(*comd.CoMD)
	}
	return ranks
}

// Same seed, same particles: every rank's final atoms and both energies
// are bit-identical across implementations and interposition. The halo
// exchange is bytewise identical and the two-value allreduce sums in the
// same order everywhere, so no tolerance is needed.
func TestCoMDDeterministicAcrossImpls(t *testing.T) {
	for _, n := range []int{4, 8} {
		stacks := []core.Stack{
			smallStack(core.ImplMPICH, core.ABINative, core.CkptNone, n),
			smallStack(core.ImplOpenMPI, core.ABINative, core.CkptNone, n),
			smallStack(core.ImplOpenMPI, core.ABIMukautuva, core.CkptMANA, n),
			smallStack(core.ImplStdABI, core.ABINative, core.CkptNone, n),
		}
		ref := runCoMDRanks(t, stacks[0], 8, 64)
		for _, stack := range stacks[1:] {
			for r, c := range runCoMDRanks(t, stack, 8, 64) {
				want := ref[r]
				if !reflect.DeepEqual(c.Atoms, want.Atoms) {
					t.Errorf("%d ranks, %s: rank %d atoms diverge from %s", n, stack.Label(), r, stacks[0].Label())
				}
				if math.Float64bits(c.KineticE) != math.Float64bits(want.KineticE) ||
					math.Float64bits(c.PotentialE) != math.Float64bits(want.PotentialE) {
					t.Errorf("%d ranks, %s: rank %d energies %v, %v; %s has %v, %v", n, stack.Label(), r,
						c.KineticE, c.PotentialE, stacks[0].Label(), want.KineticE, want.PotentialE)
				}
			}
		}
	}
}

// A warm CoMD step allocates no halo: positions, message buffers and the
// strip index are reused. Doubling the step count of a two-rank run must
// add well under one halo's bytes per rank per extra step.
func TestCoMDStepAllocatesNoHalo(t *testing.T) {
	const atoms, steps, ranks = 384, 24, 2
	stack := smallStack(core.ImplMPICH, core.ABINative, core.CkptNone, ranks)
	allocated := func(steps int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if c := runCoMDRanks(t, stack, steps, atoms)[0]; c.Iter != steps {
			t.Fatalf("ran %d steps, want %d", c.Iter, steps)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(steps) // warm the process-wide pools
	short, long := allocated(steps), allocated(2*steps)
	const halo = atoms * 3 * 8 // one neighbor's positions, in bytes
	if extra := int64(long) - int64(short); extra > steps*ranks*halo/8 {
		t.Fatalf("%d extra steps allocated %d bytes (%.2f halos per rank per step), want under 1/8",
			steps, extra, float64(extra)/float64(steps*ranks*halo))
	}
}

func TestCoMDRejectsBadGeometry(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*comd.CoMD)
	}{
		{"no atoms", func(c *comd.CoMD) { c.ParticlesPerRank = 0 }},
		{"zero cutoff", func(c *comd.CoMD) { c.Cutoff = 0 }},
		{"negative cutoff", func(c *comd.CoMD) { c.Cutoff = -1.6 }},
		{"NaN cutoff", func(c *comd.CoMD) { c.Cutoff = math.NaN() }},
		{"zero box", func(c *comd.CoMD) { c.BoxSide = 0 }},
		{"negative box", func(c *comd.CoMD) { c.BoxSide = -6 }},
		{"infinite box", func(c *comd.CoMD) { c.BoxSide = math.Inf(1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			job, err := core.Launch(smallStack(core.ImplMPICH, core.ABINative, core.CkptNone, 2), "app.comd",
				core.WithConfigure(func(rank int, p core.Program) { c.set(p.(*comd.CoMD)) }))
			if err != nil {
				t.Fatal(err)
			}
			if err := job.Wait(); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

// A run checkpointed under Open MPI and restarted under MPICH must finish
// with exactly the state of an uninterrupted MPICH run, every rank's
// exported fields included. The checkpointed job is released first, so
// the restart decodes into its program instances' storage.
func TestAppsCheckpointRestartCrossImpl(t *testing.T) {
	for _, app := range []string{"app.wave", "app.comd"} {
		t.Run(app, func(t *testing.T) {
			const n = 4
			configure := core.WithConfigure(func(rank int, p core.Program) {
				switch v := p.(type) {
				case *wavempi.Wave:
					v.Steps = 2000
					v.GlobalPoints = 2048
				case *comd.CoMD:
					v.Steps = 2000
					v.ParticlesPerRank = 48
				}
			})
			target := smallStack(core.ImplMPICH, core.ABIMukautuva, core.CkptMANA, n)
			want, err := core.Launch(target, app, configure)
			finish(t, want, err)
			dir := filepath.Join(t.TempDir(), "img")
			// Hold the launch so the checkpoint request is registered
			// before any rank steps: the checkpoint lands at the first
			// safe point instead of racing the job to completion.
			job, err := core.Launch(smallStack(core.ImplOpenMPI, core.ABIMukautuva, core.CkptMANA, n), app, configure, core.WithHold())
			if err != nil {
				t.Fatal(err)
			}
			ckpt := job.CheckpointAsync(dir, true)
			job.Start()
			if err := <-ckpt; err != nil {
				t.Fatal(err)
			}
			if err := job.Wait(); err != nil {
				t.Fatal(err)
			}
			job.Release()
			restarted, err := core.Restart(dir, target)
			finish(t, restarted, err)
			for r := 0; r < n; r++ {
				if got := encodeState(t, restarted.Program(r)); !bytes.Equal(got, encodeState(t, want.Program(r))) {
					t.Fatalf("rank %d: the restarted run's state differs from the uninterrupted run's", r)
				}
			}
		})
	}
}

// finish waits for the job a Launch or Restart returned and fails t
// unless it completed.
func finish(t *testing.T, job *core.Job, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WaitTimeout(job, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
}

func encodeState(t *testing.T, p core.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := canon.Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// equivProbe is a seeded SPMD program exercising the collective surface
// with integer payloads: every round it derives a deterministic vector
// from (seed, round, rank), runs it through allreduce (sum and max),
// bcast, allgather and alltoall, and folds every result byte into a
// running FNV-1a digest. Integer reductions are exact, so the digest —
// and the whole encoded program state — must be byte-identical
// under every implementation and binding, whatever tree shapes and
// thresholds their policies pick. (Floating-point apps get a tolerance;
// this probe is the exact-arithmetic form of the invariant.)
type equivProbe struct {
	Seed   int64
	Rounds int
	Round  int
	Digest uint64
}

func (p *equivProbe) Setup(env *abi.Env) error {
	p.Digest = 14695981039346656037 // FNV-1a offset basis
	return nil
}

func (p *equivProbe) fold(b []byte) {
	for _, x := range b {
		p.Digest ^= uint64(x)
		p.Digest *= 1099511628211
	}
}

func (p *equivProbe) Step(env *abi.Env) (bool, error) {
	n, me := env.Size(), env.Rank()
	const count = 96 // crosses none of the eager limits; payload math still exact
	vals := make([]int64, count)
	for i := range vals {
		vals[i] = p.Seed + int64(p.Round)*1009 + int64(me)*31 + int64(i)
	}
	sb := abi.Int64Bytes(vals)
	rb := make([]byte, count*8)
	if err := env.T.Allreduce(sb, rb, count, env.TypeInt64, env.OpSum, env.CommWorld); err != nil {
		return false, err
	}
	p.fold(rb)
	if err := env.T.Allreduce(sb, rb, count, env.TypeInt64, env.OpMax, env.CommWorld); err != nil {
		return false, err
	}
	p.fold(rb)
	root := p.Round % n
	bc := make([]byte, count*8)
	if me == root {
		copy(bc, sb)
	}
	if err := env.T.Bcast(bc, count, env.TypeInt64, root, env.CommWorld); err != nil {
		return false, err
	}
	p.fold(bc)
	ag := make([]byte, n*8)
	if err := env.T.Allgather(abi.Int64Bytes([]int64{vals[0]}), 1, env.TypeInt64,
		ag, 1, env.TypeInt64, env.CommWorld); err != nil {
		return false, err
	}
	p.fold(ag)
	a2a := make([]int64, n)
	for d := 0; d < n; d++ {
		a2a[d] = vals[0]*1000 + int64(d)
	}
	at := make([]byte, n*8)
	if err := env.T.Alltoall(abi.Int64Bytes(a2a), 1, env.TypeInt64,
		at, 1, env.TypeInt64, env.CommWorld); err != nil {
		return false, err
	}
	p.fold(at)
	p.Round++
	return p.Round >= p.Rounds, nil
}

func init() {
	core.RegisterProgram("test.equiv.collectives", func() core.Program {
		return &equivProbe{Seed: 7, Rounds: 5}
	})
}

// TestCollectiveResultsByteIdenticalAcrossImpls is the "same math,
// different ABI" invariant: the same seeded program must produce
// byte-identical reduction/collective results under mpich, openmpi and
// stdabi — natively and through the standard-ABI shim — down to the
// encoded program state of every rank.
func TestCollectiveResultsByteIdenticalAcrossImpls(t *testing.T) {
	const n = 5 // odd size exercises the non-power-of-two paths everywhere
	type leg struct {
		impl core.Impl
		abi  core.ABIMode
	}
	legs := []leg{
		{core.ImplMPICH, core.ABINative},
		{core.ImplOpenMPI, core.ABINative},
		{core.ImplStdABI, core.ABINative},
		{core.ImplMPICH, core.ABIMukautuva},
		{core.ImplOpenMPI, core.ABIMukautuva},
		{core.ImplStdABI, core.ABIMukautuva},
	}
	var ref [][]byte // per-rank encoded state of the first leg
	for i, l := range legs {
		stack := smallStack(l.impl, l.abi, core.CkptNone, n)
		job, err := core.Launch(stack, "test.equiv.collectives")
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(); err != nil {
			t.Fatalf("%s+%s: %v", l.impl, l.abi, err)
		}
		states := make([][]byte, n)
		for r := 0; r < n; r++ {
			var buf bytes.Buffer
			if err := canon.Encode(&buf, job.Program(r)); err != nil {
				t.Fatal(err)
			}
			states[r] = buf.Bytes()
			probe := job.Program(r).(*equivProbe)
			if probe.Round != probe.Rounds || probe.Digest == 0 {
				t.Fatalf("%s+%s rank %d: probe did not complete: %+v", l.impl, l.abi, r, probe)
			}
		}
		if i == 0 {
			ref = states
			continue
		}
		for r := 0; r < n; r++ {
			if !bytes.Equal(states[r], ref[r]) {
				t.Errorf("%s+%s rank %d: state diverges from %s+%s (digest %x vs %x)",
					l.impl, l.abi, r, legs[0].impl, legs[0].abi,
					job.Program(r).(*equivProbe).Digest, mustProbe(t, ref[r]).Digest)
			}
		}
	}
}

// mustProbe decodes a probe's encoded state.
func mustProbe(t *testing.T, raw []byte) *equivProbe {
	t.Helper()
	var p equivProbe
	if err := canon.Decode(raw, &p); err != nil {
		t.Fatal(err)
	}
	return &p
}

func TestScaleHelpers(t *testing.T) {
	w := wavempi.New()
	w.ScaleSteps(0.001)
	if w.Steps < 3 || w.GlobalPoints < 256 {
		t.Fatalf("wave floor violated: %d %d", w.Steps, w.GlobalPoints)
	}
	c := comd.New()
	c.ScaleSteps(0.001)
	if c.Steps < 3 || c.ParticlesPerRank < 32 {
		t.Fatalf("comd floor violated: %d %d", c.Steps, c.ParticlesPerRank)
	}
	w.SetSeed(5)
	c.SetSeed(5)
	if w.Seed != 5 || c.Seed != 5 {
		t.Fatal("seed setters broken")
	}
}

// TestWaveShrinkRecoveryDigest is the application-level acceptance check
// for ULFM in-place recovery: kill a rank mid-run under every
// implementation (the survivors are inside the halo exchange — only the
// victim's neighbors observe the death directly; the rest are dragged
// in by revocation), shrink, and require the recovered checksum to
// match a survivors-only reference run bit-for-bit.
func TestWaveShrinkRecoveryDigest(t *testing.T) {
	const n, victim = 4, 3
	configure := core.WithConfigure(func(rank int, p core.Program) {
		w := p.(*wavempi.Wave)
		w.Steps = 20
		w.GlobalPoints = 2048
	})
	for _, impl := range []core.Impl{core.ImplMPICH, core.ImplOpenMPI, core.ImplStdABI} {
		t.Run(string(impl), func(t *testing.T) {
			stack := smallStack(impl, core.ABINative, core.CkptNone, n)
			inj, err := faults.NewInjector(faults.Plan{Faults: []faults.Spec{
				{Kind: faults.KindRankCrash, Rank: victim, Step: 5},
			}}, 1, stack.Net)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.RunWithRecovery(stack, "app.wave", inj,
				core.RecoveryPolicy{Mode: core.RecoveryShrink, LegTimeout: 2 * time.Minute}, configure)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed || res.Recoveries != 1 {
				t.Fatalf("completed=%v shrinks=%d", res.Completed, res.Recoveries)
			}
			ref := runWave(t, smallStack(impl, core.ABINative, core.CkptNone, n-1), 20, 2048)
			got := res.Job.Program(0).(*wavempi.Wave).Checked
			if ref.Checked == 0 || got != ref.Checked {
				t.Fatalf("recovered checksum %v != %d-rank reference %v", got, n-1, ref.Checked)
			}
		})
	}
}

// Wave's state is its exported fields like any program's: the two time
// levels go out as raw runs of bit patterns and come back exactly, and the
// partition, which is unexported, is left for the first step to recompute.
func TestWaveImageSectionRoundTrip(t *testing.T) {
	w := wavempi.New()
	w.Steps, w.GlobalPoints, w.Seed, w.Iter, w.Checked = 9, 64, 5, 3, 0.25
	w.U = []float64{1, math.Copysign(0, -1), math.Inf(-1), math.SmallestNonzeroFloat64}
	w.UPrev = []float64{4, 3, 2, 1}
	var buf bytes.Buffer
	if err := canon.Encode(&buf, w); err != nil {
		t.Fatal(err)
	}
	back := wavempi.New()
	if err := canon.Decode(buf.Bytes(), back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, w) {
		t.Fatalf("restored %+v, want %+v", back, w)
	}
	if math.Signbit(back.U[1]) != true {
		t.Fatal("negative zero lost its sign")
	}
}

// Time levels of different lengths cannot be stepped: a restart from an
// image that holds them fails its first step instead of indexing past one.
func TestWaveRestartRefusesMismatchedTimeLevels(t *testing.T) {
	stack := smallStack(core.ImplMPICH, core.ABINative, core.CkptDMTCP, 2)
	dir := filepath.Join(t.TempDir(), "img")
	job, err := core.Launch(stack, "app.wave", core.WithHold(), core.WithConfigure(func(_ int, p core.Program) {
		p.(*wavempi.Wave).Steps, p.(*wavempi.Wave).GlobalPoints = 6, 256
	}))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := job.CheckpointAsync(dir, true)
	job.Start()
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	// Rewrite rank 0's image around a state with one point dropped from
	// the previous level (the container layout is docs/recovery.md's).
	img, err := dmtcp.ReadRankImage(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := new(wavempi.Wave)
	if err := canon.Decode(img.ProgState, w); err != nil {
		t.Fatal(err)
	}
	w.UPrev = w.UPrev[1:]
	var state bytes.Buffer
	if err := canon.Encode(&state, w); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "rank_0000.img")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head := raw[:40+len(img.PluginBlob)]
	doctored := append(append(bytes.Clone(head), state.Bytes()...), binary.LittleEndian.AppendUint64(nil, uint64(state.Len()))...)
	if err := os.WriteFile(path, append(doctored, "IMGEND\r\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	restarted, err := core.Restart(dir, stack)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Wait(); err == nil || !strings.Contains(err.Error(), "previous points") {
		t.Fatalf("restart from mismatched time levels: %v", err)
	}
}

// A run interrupted by checkpoint + restart must finish with exactly the
// checksum of an uninterrupted run — under each implementation, and when
// the restart leg runs under a different one than the checkpoint leg.
func TestWaveRestartReproducesUninterruptedChecksum(t *testing.T) {
	const steps, points = 30, 2048
	configure := core.WithConfigure(func(_ int, p core.Program) {
		w := p.(*wavempi.Wave)
		w.Steps, w.GlobalPoints = steps, points
	})
	for _, leg := range []struct{ from, to core.Impl }{
		{core.ImplMPICH, core.ImplMPICH},
		{core.ImplOpenMPI, core.ImplOpenMPI},
		{core.ImplStdABI, core.ImplStdABI},
		{core.ImplOpenMPI, core.ImplMPICH},
	} {
		t.Run(string(leg.from)+"->"+string(leg.to), func(t *testing.T) {
			target := smallStack(leg.to, core.ABIMukautuva, core.CkptMANA, 4)
			want := runWave(t, target, steps, points).Checked
			if want <= 0 {
				t.Fatalf("degenerate reference checksum %v", want)
			}
			dir := filepath.Join(t.TempDir(), "img")
			job, err := core.Launch(smallStack(leg.from, core.ABIMukautuva, core.CkptMANA, 4), "app.wave", configure, core.WithHold())
			if err != nil {
				t.Fatal(err)
			}
			ckpt := job.CheckpointAsync(dir, true)
			job.Start()
			if err := <-ckpt; err != nil {
				t.Fatal(err)
			}
			if err := job.Wait(); err != nil {
				t.Fatal(err)
			}
			restarted, err := core.Restart(dir, target)
			if err != nil {
				t.Fatal(err)
			}
			if err := restarted.Wait(); err != nil {
				t.Fatal(err)
			}
			got := restarted.Program(0).(*wavempi.Wave)
			if got.Iter != steps || got.Checked != want {
				t.Fatalf("restarted run: iter %d checksum %v, uninterrupted %v", got.Iter, got.Checked, want)
			}
		})
	}
}
