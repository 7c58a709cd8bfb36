package repro

import (
	"os"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/osu"
)

func TestPublicAPISurface(t *testing.T) {
	progs := core.Programs()
	want := map[string]bool{
		"osu.alltoall": false, "osu.bcast": false, "osu.allreduce": false,
		"osu.alltoall.ckptwindow": false, "app.comd": false, "app.wave": false,
	}
	for _, p := range progs {
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("built-in program %q not registered", name)
		}
	}
	if DefaultStack(ImplMPICH, ABINative, CkptNone).Net.Size() != 48 {
		t.Errorf("default cluster is not the paper's 48 ranks")
	}
}

// The README quickstart, verbatim: checkpoint under Open MPI, restart
// under MPICH.
func TestReadmeQuickstartFlow(t *testing.T) {
	dir, err := os.MkdirTemp("", "readme-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)

	stack := DefaultStack(ImplOpenMPI, ABIMukautuva, CkptMANA)
	stack.Net.Nodes = 2
	stack.Net.RanksPerNode = 2
	job, err := Launch(stack, "osu.alltoall.ckptwindow", WithConfigure(func(rank int, p Program) {
		b := p.(*osu.LatencyBench)
		b.Sizes = []int{1, 64}
		b.Iters = 3
		b.Warmup = 1
		b.SleepReal = 100 * time.Millisecond
	}))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := job.Checkpoint(dir, false); err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	mpich := DefaultStack(ImplMPICH, ABIMukautuva, CkptMANA)
	mpich.Net.Nodes = 2
	mpich.Net.RanksPerNode = 2
	restarted, err := Restart(dir, mpich)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Wait(); err != nil {
		t.Fatal(err)
	}
	sizes, means := restarted.Program(0).(*osu.LatencyBench).Results()
	if len(sizes) != 2 || means[0] <= 0 {
		t.Fatalf("restarted sweep incomplete: %v %v", sizes, means)
	}
}

func TestCustomProgramRegistration(t *testing.T) {
	RegisterProgram("test.custom", func() Program { return &customProg{} })
	stack := DefaultStack(ImplMPICH, ABINative, CkptNone)
	stack.Net.Nodes = 1
	stack.Net.RanksPerNode = 4
	job, err := Launch(stack, "test.custom")
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := job.Program(0).(*customProg).Sum; got != 6 {
		t.Fatalf("custom program sum = %d, want 6", got)
	}
}

type customProg struct{ Sum int64 }

func (c *customProg) Setup(env *Env) error { return nil }

func (c *customProg) Step(env *Env) (bool, error) {
	out := make([]byte, 8)
	if err := env.T.Allreduce(abi.Int64Bytes([]int64{int64(env.Rank())}), out, 1,
		env.TypeInt64, env.OpSum, env.CommWorld); err != nil {
		return false, err
	}
	c.Sum = abi.Int64sOf(out)[0]
	return true, nil
}

// TestPublicShrinkRecovery drives the re-exported ULFM surface: a rank
// crash survived in place through the public API's shrink mode.
func TestPublicShrinkRecovery(t *testing.T) {
	stack := DefaultStack(ImplOpenMPI, ABIMukautuva, CkptNone)
	stack.Net.Nodes = 1
	stack.Net.RanksPerNode = 4
	inj, err := faults.NewInjector(faults.Plan{Faults: []faults.Spec{
		{Kind: faults.KindRankCrash, Rank: 1, Step: 3},
	}}, 7, stack.Net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWithRecovery(stack, "test.bench.ring", inj,
		RecoveryPolicy{Mode: "shrink", LegTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Recoveries != 1 {
		t.Fatalf("completed=%v shrinks=%d", res.Completed, res.Recoveries)
	}
	if len(res.Events) != 1 || res.Events[0].Survivors != 3 {
		t.Fatalf("events = %+v", res.Events)
	}
}

// benchRing is a small lockstep workload for the recovery tests: one
// allreduce per step, quiescent at every safe point.
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
