package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"repro/internal/apps/comd"
	"repro/internal/apps/wavempi"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/dmtcp"
	"repro/internal/faults"
	"repro/internal/simnet"
)

// small runs each Figure 5 application for a few steps on a few points.
var small = core.WithConfigure(func(_ int, p core.Program) {
	switch v := p.(type) {
	case *wavempi.Wave:
		v.Steps, v.GlobalPoints, v.Seed = 12, 1024, 3
	case *comd.CoMD:
		v.Steps, v.ParticlesPerRank, v.Seed = 8, 32, 3
	}
})

func answerStack(impl core.Impl, abiMode core.ABIMode, ckpt core.CkptMode, n int) core.Stack {
	s := core.DefaultStack(impl, abiMode, ckpt)
	s.Net = simnet.SingleNode(n)
	return s
}

// digests is the sha256 of each of the first n ranks' encoded program
// state: the run's answer, every exported field included.
func digests(t *testing.T, job *core.Job, n int) [][32]byte {
	t.Helper()
	out := make([][32]byte, n)
	for r := range out {
		var buf bytes.Buffer
		if err := canon.Encode(&buf, job.Program(r)); err != nil {
			t.Fatal(err)
		}
		out[r] = sha256.Sum256(buf.Bytes())
	}
	return out
}

// finisher returns a function that waits for the job a Launch or Restart
// returned and fails t unless it completed.
func finisher(t *testing.T) func(*core.Job, error) *core.Job {
	return func(job *core.Job, err error) *core.Job {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := core.WaitTimeout(job, 2*time.Minute); err != nil {
			t.Fatal(err)
		}
		return job
	}
}

// storage names the arrays a program's restored state lives in: an
// instance's two wave time levels (in either order, since a step swaps
// them), or CoMD's atoms.
func storage(p core.Program) [2]uintptr {
	w, ok := p.(*wavempi.Wave)
	if !ok {
		return [2]uintptr{uintptr(unsafe.Pointer(unsafe.SliceData(p.(*comd.CoMD).Atoms)))}
	}
	a, b := uintptr(unsafe.Pointer(unsafe.SliceData(w.U))), uintptr(unsafe.Pointer(unsafe.SliceData(w.UPrev)))
	if a > b {
		a, b = b, a
	}
	return [2]uintptr{a, b}
}

// A restart that decodes into a released job's program instances must
// reach the answer of a restart onto fresh instances, of the checkpointed
// run itself and of the straight *+native+none run, for both Figure 5
// applications on every implementation; so must a crash-restart recovery
// (whose crashed leg is released before its restart) and a shrink (whose
// survivors reset their own instances).
func TestReleasedStateRestartAnswers(t *testing.T) {
	const n = 4
	for _, app := range []string{"app.wave", "app.comd"} {
		for _, impl := range []core.Impl{core.ImplMPICH, core.ImplOpenMPI, core.ImplStdABI} {
			t.Run(app+"/"+string(impl), func(t *testing.T) {
				finish := finisher(t)
				straight := finish(core.Launch(answerStack(impl, core.ABINative, core.CkptNone, n), app, small))
				want := digests(t, straight, n)
				straight.Release()

				stack := answerStack(impl, core.ABIMukautuva, core.CkptMANA, n)
				images := dmtcp.NewMem()
				defer images.Release()
				launch, err := core.Launch(stack, app, small, core.WithImages(images), core.WithHold())
				if err != nil {
					t.Fatal(err)
				}
				ckpt := launch.CheckpointAsync("first", false)
				launch.Start()
				finish(launch, nil)
				if err := <-ckpt; err != nil {
					t.Fatal(err)
				}
				check := func(leg string, got [][32]byte) {
					t.Helper()
					for r := range want {
						if got[r] != want[r] {
							t.Fatalf("%s: rank %d's state differs from the straight run's", leg, r)
						}
					}
				}
				check("checkpointed run", digests(t, launch, n))

				core.DrainFreePrograms(app)
				fresh := finish(core.Restart("first", stack, core.WithImages(images)))
				check("restart onto fresh instances", digests(t, fresh, n))

				kept := map[core.Program][2]uintptr{}
				for r := 0; r < n; r++ {
					kept[launch.Program(r)] = storage(launch.Program(r))
				}
				launch.Release()
				reused := finish(core.Restart("first", stack, core.WithImages(images)))
				for r := 0; r < n; r++ {
					p := reused.Program(r)
					if arrays, ok := kept[p]; !ok || arrays != storage(p) {
						t.Fatalf("rank %d: the restart did not decode into the released instance's storage", r)
					}
				}
				check("restart into released instances", digests(t, reused, n))
				reused.Release()

				inj, err := faults.NewInjector(faults.Plan{Faults: []faults.Spec{
					{Kind: faults.KindRankCrash, Rank: 1, Node: faults.Anywhere, Step: 5},
				}}, 1, stack.Net)
				if err != nil {
					t.Fatal(err)
				}
				rr, err := core.RunWithRecovery(stack, app, inj,
					core.RecoveryPolicy{ImageRoot: "ckpt", Interval: 2, LegTimeout: 2 * time.Minute},
					small, core.WithImages(images))
				if err != nil {
					t.Fatal(err)
				}
				if !rr.Completed || rr.Recoveries != 1 {
					t.Fatalf("crash-restart: completed=%v restarts=%d", rr.Completed, rr.Recoveries)
				}
				check("crash-restart", digests(t, rr.Job, n))
				rr.Job.Release()

				survivors := finish(core.Launch(answerStack(impl, core.ABINative, core.CkptNone, n-1), app, small))
				want = digests(t, survivors, n-1)
				survivors.Release()
				inj, err = faults.NewInjector(faults.Plan{Faults: []faults.Spec{
					{Kind: faults.KindRankCrash, Rank: n - 1, Node: faults.Anywhere, Step: 3},
				}}, 1, stack.Net)
				if err != nil {
					t.Fatal(err)
				}
				shrunk, err := core.RunWithRecovery(answerStack(impl, core.ABINative, core.CkptNone, n), app, inj,
					core.RecoveryPolicy{Mode: core.RecoveryShrink, LegTimeout: 2 * time.Minute}, small)
				if err != nil {
					t.Fatal(err)
				}
				if !shrunk.Completed || shrunk.Recoveries != 1 {
					t.Fatalf("shrink: completed=%v shrinks=%d", shrunk.Completed, shrunk.Recoveries)
				}
				check(fmt.Sprintf("shrink to %d ranks", n-1), digests(t, shrunk.Job, n-1))
				shrunk.Job.Release()
			})
		}
	}
}
