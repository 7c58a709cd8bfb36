package core

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/dmtcp"
	"repro/internal/simnet"
)

// ringProg is the integration-test workload: every step it receives the
// message its left neighbor sent in the PREVIOUS step (so one message per
// pair is in flight at every safe point — the drain protocol must capture
// it), performs an allreduce, and sends the next message right. Exported
// fields are the checkpointed state.
type ringProg struct {
	Total     int
	Iter      int
	Sum       int64
	StepDelay time.Duration // real-time pacing so tests can checkpoint mid-run
}

func (p *ringProg) Setup(env *abi.Env) error { return nil }

func (p *ringProg) value(iter, rank int) int64 { return int64(iter*1000 + rank) }

func (p *ringProg) Step(env *abi.Env) (bool, error) {
	n, me := env.Size(), env.Rank()
	left, right := (me-1+n)%n, (me+1)%n
	if p.Iter > 0 {
		buf := make([]byte, 8)
		var st abi.Status
		if err := env.T.Recv(buf, 1, env.TypeInt64, left, 77, env.CommWorld, &st); err != nil {
			return false, fmt.Errorf("ring recv: %w", err)
		}
		got := abi.Int64sOf(buf)[0]
		want := p.value(p.Iter-1, left)
		if got != want {
			return false, fmt.Errorf("iter %d: ring got %d, want %d", p.Iter, got, want)
		}
	}
	if p.Iter < p.Total {
		if err := env.T.Send(abi.Int64Bytes([]int64{p.value(p.Iter, me)}), 1,
			env.TypeInt64, right, 77, env.CommWorld); err != nil {
			return false, fmt.Errorf("ring send: %w", err)
		}
	}
	// Allreduce accumulates a deterministic checksum of progress.
	out := make([]byte, 8)
	if err := env.T.Allreduce(abi.Int64Bytes([]int64{int64(p.Iter)}), out, 1,
		env.TypeInt64, env.OpSum, env.CommWorld); err != nil {
		return false, fmt.Errorf("allreduce: %w", err)
	}
	p.Sum += abi.Int64sOf(out)[0]
	if p.StepDelay > 0 && me == 0 {
		// One slow rank paces the whole lockstep ring; ranks share one
		// execution token, so a delay on every rank would only add up.
		time.Sleep(p.StepDelay) //mpivet:allow parksafe -- deliberate slow-rank simulation, opt-in via StepDelay (default 0)
	}
	p.Iter++
	return p.Iter > p.Total, nil
}

// expectedSum is the checksum after a full run on n ranks.
func (p *ringProg) expectedSum(n int) int64 {
	var sum int64
	for i := 0; i <= p.Total; i++ {
		sum += int64(i * n)
	}
	return sum
}

// splitProg exercises dynamic objects across checkpoints: it creates a
// communicator split and a derived datatype up front and uses both every
// step. Restart must rebind the vids for both.
type splitProg struct {
	Total int
	Iter  int
	Acc   int64

	sub abi.Handle // NOT exported: rebuilt via vids — see Setup/ensure
	vec abi.Handle

	Sub abi.Handle // exported copies: vids survive gob, handles stay valid
	Vec abi.Handle
}

func (p *splitProg) Setup(env *abi.Env) error {
	var err error
	p.Sub, err = env.T.CommSplit(env.CommWorld, env.Rank()%2, env.Rank())
	if err != nil {
		return err
	}
	p.Vec, err = env.T.TypeVector(2, 1, 2, env.TypeInt64)
	if err != nil {
		return err
	}
	return env.T.TypeCommit(p.Vec)
}

func (p *splitProg) Step(env *abi.Env) (bool, error) {
	out := make([]byte, 8)
	if err := env.T.Allreduce(abi.Int64Bytes([]int64{int64(env.Rank())}), out, 1,
		env.TypeInt64, env.OpSum, p.Sub); err != nil {
		return false, fmt.Errorf("allreduce on split comm: %w", err)
	}
	p.Acc += abi.Int64sOf(out)[0]
	// Use the derived type in a self-contained send/recv pair.
	n, me := env.Size(), env.Rank()
	right, left := (me+1)%n, (me-1+n)%n
	rreq, err := env.T.Irecv(make([]byte, 24), 1, p.Vec, left, 5, env.CommWorld)
	if err != nil {
		return false, err
	}
	if err := env.T.Send(make([]byte, 24), 1, p.Vec, right, 5, env.CommWorld); err != nil {
		return false, err
	}
	if err := env.T.Wait(rreq, nil); err != nil {
		return false, err
	}
	if me == 0 {
		time.Sleep(500 * time.Microsecond) //mpivet:allow parksafe -- deliberate pacing so the overlap window under test stays open
	}
	p.Iter++
	return p.Iter >= p.Total, nil
}

func init() {
	RegisterProgram("test.ring", func() Program { return &ringProg{Total: 40} })
	RegisterProgram("test.ring.short", func() Program { return &ringProg{Total: 6} })
	RegisterProgram("test.ring.slow", func() Program { return &ringProg{Total: 300, StepDelay: time.Millisecond} })
	RegisterProgram("test.split", func() Program { return &splitProg{Total: 200} })
	RegisterProgram("test.lockstep", func() Program { return &lockstepProg{Total: 40} })
	RegisterProgram("test.panic", func() Program { return &panicProg{} })
}

func testStack(impl Impl, abiMode ABIMode, ckpt CkptMode, n int) Stack {
	s := DefaultStack(impl, abiMode, ckpt)
	s.Net = simnet.SingleNode(n)
	return s
}

func TestLaunchAllStacks(t *testing.T) {
	for _, impl := range []Impl{ImplMPICH, ImplOpenMPI} {
		for _, mode := range []ABIMode{ABINative, ABIMukautuva} {
			for _, ckpt := range []CkptMode{CkptNone, CkptMANA} {
				name := fmt.Sprintf("%s/%s/%s", impl, mode, ckpt)
				t.Run(name, func(t *testing.T) {
					job, err := Launch(testStack(impl, mode, ckpt, 4), "test.ring")
					if err != nil {
						t.Fatal(err)
					}
					if err := job.Wait(); err != nil {
						t.Fatal(err)
					}
					want := (&ringProg{Total: 40}).expectedSum(4)
					for r := 0; r < 4; r++ {
						got := job.Program(r).(*ringProg).Sum
						if got != want {
							t.Fatalf("rank %d sum = %d, want %d", r, got, want)
						}
					}
				})
			}
		}
	}
}

func TestStackValidation(t *testing.T) {
	if _, err := Launch(Stack{Impl: "lam", ABI: ABINative, Ckpt: CkptNone, Net: simnet.SingleNode(2)}, "test.ring"); err == nil {
		t.Fatal("bad impl accepted")
	}
	if _, err := Launch(testStack(ImplMPICH, ABINative, CkptNone, 2), "no.such.program"); err == nil {
		t.Fatal("unknown program accepted")
	}
	if err := (Stack{Impl: ImplMPICH, ABI: "static", Ckpt: CkptNone, Net: simnet.SingleNode(1)}).Validate(); err == nil {
		t.Fatal("bad ABI mode accepted")
	}
	if err := (Stack{Impl: ImplMPICH, ABI: ABINative, Ckpt: "dmtcp2", Net: simnet.SingleNode(1)}).Validate(); err == nil {
		t.Fatal("bad ckpt mode accepted")
	}
}

func TestStackLabels(t *testing.T) {
	cases := map[string]Stack{
		"MPICH":                       testStack(ImplMPICH, ABINative, CkptNone, 1),
		"Open MPI + Mukautuva + MANA": testStack(ImplOpenMPI, ABIMukautuva, CkptMANA, 1),
		"MPICH + Mukautuva":           testStack(ImplMPICH, ABIMukautuva, CkptNone, 1),
		"Open MPI + MANA(vid)":        testStack(ImplOpenMPI, ABINative, CkptMANA, 1),
	}
	for want, s := range cases {
		if got := s.Label(); got != want {
			t.Errorf("Label() = %q, want %q", got, want)
		}
	}
}

// checkpointMidRun launches the slow ring, checkpoints once it is running,
// and returns the image directory and the launch error after completion.
func checkpointMidRun(t *testing.T, stack Stack, exit bool) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ckpt")
	job, err := Launch(stack, "test.ring.slow")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let it reach mid-run
	if err := job.Checkpoint(dir, exit); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := job.Wait(); err != nil {
		t.Fatalf("original job: %v", err)
	}
	return dir
}

func TestCheckpointRestartSameImpl(t *testing.T) {
	stack := testStack(ImplMPICH, ABIMukautuva, CkptMANA, 4)
	dir := checkpointMidRun(t, stack, true)
	restarted, err := Restart(dir, stack)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Wait(); err != nil {
		t.Fatal(err)
	}
	want := (&ringProg{Total: 300}).expectedSum(4)
	for r := 0; r < 4; r++ {
		prog := restarted.Program(r).(*ringProg)
		if prog.Sum != want {
			t.Fatalf("rank %d sum after restart = %d, want %d (state or drained messages lost)",
				r, prog.Sum, want)
		}
		if prog.Iter != prog.Total+1 {
			t.Fatalf("rank %d iter = %d, want %d", r, prog.Iter, prog.Total+1)
		}
	}
}

// The paper's headline experiment: checkpoint under Open MPI, restart
// under MPICH (and the reverse).
func TestCrossImplementationRestart(t *testing.T) {
	for _, dir := range []struct {
		from, to Impl
	}{
		{ImplOpenMPI, ImplMPICH},
		{ImplMPICH, ImplOpenMPI},
	} {
		t.Run(fmt.Sprintf("%s_to_%s", dir.from, dir.to), func(t *testing.T) {
			images := checkpointMidRun(t, testStack(dir.from, ABIMukautuva, CkptMANA, 4), true)
			restarted, err := Restart(images, testStack(dir.to, ABIMukautuva, CkptMANA, 4))
			if err != nil {
				t.Fatal(err)
			}
			if err := restarted.Wait(); err != nil {
				t.Fatal(err)
			}
			want := (&ringProg{Total: 300}).expectedSum(4)
			for r := 0; r < 4; r++ {
				if got := restarted.Program(r).(*ringProg).Sum; got != want {
					t.Fatalf("rank %d sum = %d, want %d", r, got, want)
				}
			}
		})
	}
}

// A native-ABI image must refuse to restart under a different
// implementation — the incompatibility the standard ABI exists to remove.
func TestNativeImageRejectsCrossRestart(t *testing.T) {
	images := checkpointMidRun(t, testStack(ImplMPICH, ABINative, CkptMANA, 4), true)
	_, err := Restart(images, testStack(ImplOpenMPI, ABIMukautuva, CkptMANA, 4))
	if err == nil {
		t.Fatal("cross-implementation restart of a native image succeeded")
	}
	if !strings.Contains(err.Error(), "native") {
		t.Fatalf("unhelpful rejection: %v", err)
	}
	// Same implementation is fine.
	restarted, err := Restart(images, testStack(ImplMPICH, ABINative, CkptMANA, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestRestartRequiresCheckpointLayer(t *testing.T) {
	images := checkpointMidRun(t, testStack(ImplMPICH, ABIMukautuva, CkptMANA, 2), true)
	if _, err := Restart(images, testStack(ImplMPICH, ABIMukautuva, CkptNone, 2)); err == nil {
		t.Fatal("restart without MANA accepted")
	}
	if _, err := Restart(images, testStack(ImplMPICH, ABIMukautuva, CkptMANA, 3)); err == nil {
		t.Fatal("restart with wrong world size accepted")
	}
	if _, err := Restart(filepath.Join(t.TempDir(), "nope"), testStack(ImplMPICH, ABIMukautuva, CkptMANA, 2)); err == nil {
		t.Fatal("restart from missing directory accepted")
	}
}

func TestCheckpointContinueKeepsRunning(t *testing.T) {
	stack := testStack(ImplOpenMPI, ABIMukautuva, CkptMANA, 3)
	job, err := Launch(stack, "test.ring.slow")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	dir := filepath.Join(t.TempDir(), "ck")
	if err := job.Checkpoint(dir, false); err != nil {
		t.Fatal(err)
	}
	// The job continues to completion after a continue-mode checkpoint.
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	want := (&ringProg{Total: 300}).expectedSum(3)
	for r := 0; r < 3; r++ {
		if got := job.Program(r).(*ringProg).Sum; got != want {
			t.Fatalf("rank %d sum = %d, want %d", r, got, want)
		}
	}
	// And the image is restartable too.
	restarted, err := Restart(dir, stack)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointAfterCompletionFails(t *testing.T) {
	job, err := Launch(testStack(ImplMPICH, ABINative, CkptNone, 2), "test.ring")
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := job.Checkpoint(t.TempDir(), false); err == nil {
		t.Fatal("checkpoint after completion succeeded")
	}
}

// Dynamic objects (split communicators, derived datatypes) must survive
// restart via recipe replay — under a different implementation.
func TestDynamicObjectsAcrossCrossRestart(t *testing.T) {
	stack := testStack(ImplOpenMPI, ABIMukautuva, CkptMANA, 4)
	dir := filepath.Join(t.TempDir(), "ckpt")
	job, err := Launch(stack, "test.split")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	if err := job.Checkpoint(dir, true); err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	restarted, err := Restart(dir, testStack(ImplMPICH, ABIMukautuva, CkptMANA, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Wait(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		prog := restarted.Program(r).(*splitProg)
		// Each step adds the sum of the two ranks sharing r's parity.
		var stepSum int64
		if r%2 == 0 {
			stepSum = 0 + 2
		} else {
			stepSum = 1 + 3
		}
		want := stepSum * int64(prog.Total)
		if prog.Acc != want {
			t.Fatalf("rank %d acc = %d, want %d", r, prog.Acc, want)
		}
	}
}

func TestVirtualClockRestored(t *testing.T) {
	stack := testStack(ImplMPICH, ABIMukautuva, CkptMANA, 2)
	dir := checkpointMidRun(t, stack, true)
	restarted, err := Restart(dir, stack)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Wait(); err != nil {
		t.Fatal(err)
	}
	// The restarted clocks must have continued from the checkpointed time,
	// not from zero: a full run's worth of virtual time has passed.
	if restarted.Clock(0) <= 0 {
		t.Fatal("virtual clock not restored")
	}
}

// Wi4MPI preload stacks: an MPICH-dialect binding over either
// implementation, composable with MANA, checkpoint/restart included.
func TestWi4MPIStacks(t *testing.T) {
	for _, impl := range []Impl{ImplMPICH, ImplOpenMPI} {
		t.Run(string(impl), func(t *testing.T) {
			job, err := Launch(testStack(impl, ABIWi4MPI, CkptNone, 4), "test.ring")
			if err != nil {
				t.Fatal(err)
			}
			if err := job.Wait(); err != nil {
				t.Fatal(err)
			}
			want := (&ringProg{Total: 40}).expectedSum(4)
			for r := 0; r < 4; r++ {
				if got := job.Program(r).(*ringProg).Sum; got != want {
					t.Fatalf("rank %d sum = %d, want %d", r, got, want)
				}
			}
		})
	}
}

func TestWi4MPICrossRestart(t *testing.T) {
	// Checkpoint over Wi4MPI->openmpi, restart over Wi4MPI->mpich: the MANA
	// blob is standard-ABI either way, so the image is portable.
	images := checkpointMidRun(t, testStack(ImplOpenMPI, ABIWi4MPI, CkptMANA, 4), true)
	restarted, err := Restart(images, testStack(ImplMPICH, ABIWi4MPI, CkptMANA, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Wait(); err != nil {
		t.Fatal(err)
	}
	want := (&ringProg{Total: 300}).expectedSum(4)
	for r := 0; r < 4; r++ {
		if got := restarted.Program(r).(*ringProg).Sum; got != want {
			t.Fatalf("rank %d sum = %d, want %d", r, got, want)
		}
	}
	// And a Mukautuva restart of the same image also works.
	restarted2, err := Restart(images, testStack(ImplMPICH, ABIMukautuva, CkptMANA, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// lockstepProg completes all communication within each step (one
// allreduce), so it is quiescent at every safe point — the workload shape
// plain DMTCP can checkpoint without MANA's drain protocol.
type lockstepProg struct {
	Total int
	Iter  int
	Sum   int64
}

func (p *lockstepProg) Setup(env *abi.Env) error { return nil }

func (p *lockstepProg) Step(env *abi.Env) (bool, error) {
	out := make([]byte, 8)
	if err := env.T.Allreduce(abi.Int64Bytes([]int64{int64(p.Iter)}), out, 1,
		env.TypeInt64, env.OpSum, env.CommWorld); err != nil {
		return false, err
	}
	p.Sum += abi.Int64sOf(out)[0]
	p.Iter++
	return p.Iter >= p.Total, nil
}

// Plain DMTCP (no MANA plugin): checkpoints work for step-quiescent
// programs, but the image restores the whole process — MPI library
// included — so only the identical stack can resume it, and
// cross-implementation restart is rejected.
func TestDMTCPCheckpointRestartRules(t *testing.T) {
	stack := testStack(ImplMPICH, ABIMukautuva, CkptDMTCP, 4)
	dir := filepath.Join(t.TempDir(), "ckpt")
	job, err := Launch(stack, "test.lockstep", WithHold())
	if err != nil {
		t.Fatal(err)
	}
	ckpt := job.CheckpointAsync(dir, true)
	job.Start()
	if err := <-ckpt; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := job.Wait(); err != nil {
		t.Fatalf("original job: %v", err)
	}

	// Wrong checkpointer on the restart side.
	if _, err := Restart(dir, testStack(ImplMPICH, ABIMukautuva, CkptMANA, 4)); err == nil {
		t.Fatal("MANA restart of a DMTCP image accepted")
	}
	// Different implementation.
	if _, err := Restart(dir, testStack(ImplOpenMPI, ABIMukautuva, CkptDMTCP, 4)); err == nil {
		t.Fatal("cross-implementation restart of a DMTCP image accepted")
	}
	// Different binding mode.
	if _, err := Restart(dir, testStack(ImplMPICH, ABIWi4MPI, CkptDMTCP, 4)); err == nil {
		t.Fatal("cross-ABI restart of a DMTCP image accepted")
	}

	// The identical stack resumes and completes correctly.
	restarted, err := Restart(dir, stack)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Wait(); err != nil {
		t.Fatal(err)
	}
	// Sum of 4*i over i=0..39: each step's allreduce contributes 4*Iter.
	var want int64
	for i := 0; i < 40; i++ {
		want += int64(4 * i)
	}
	for r := 0; r < 4; r++ {
		if got := restarted.Program(r).(*lockstepProg).Sum; got != want {
			t.Fatalf("rank %d sum after DMTCP restart = %d, want %d", r, got, want)
		}
	}
}

// A checkpoint on a stack without a checkpointing package fails fast.
func TestCheckpointRequiresCheckpointer(t *testing.T) {
	job, err := Launch(testStack(ImplMPICH, ABINative, CkptNone, 2), "test.ring.slow")
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Checkpoint(t.TempDir(), false); err == nil {
		t.Fatal("checkpoint without a checkpointer accepted")
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
}

// A held launch pins the checkpoint to the first safe point, and a
// checkpoint requested after completion errors instead of hanging.
func TestHeldLaunchDeterministicCheckpoint(t *testing.T) {
	stack := testStack(ImplOpenMPI, ABIMukautuva, CkptMANA, 3)
	dir := filepath.Join(t.TempDir(), "ck")
	job, err := Launch(stack, "test.ring", WithHold())
	if err != nil {
		t.Fatal(err)
	}
	ckpt := job.CheckpointAsync(dir, false)
	job.Start()
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	meta, err := dmtcp.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 1 {
		t.Fatalf("checkpoint step = %d, want 1 (first safe point)", meta.Step)
	}
	if meta.Ckpt != string(CkptMANA) || meta.ABI != string(ABIMukautuva) {
		t.Fatalf("image lineage meta = %+v", meta)
	}

	// The job has finished: a late checkpoint request must error, not hang.
	done := make(chan error, 1)
	go func() { done <- job.Checkpoint(t.TempDir(), false) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("post-completion checkpoint succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("post-completion checkpoint hung")
	}
}

// Cancel aborts a running job and unblocks Wait.
func TestCancelAbortsJob(t *testing.T) {
	job, err := Launch(testStack(ImplMPICH, ABINative, CkptNone, 4), "test.ring.slow")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	job.Cancel()
	done := make(chan error, 1)
	go func() { done <- job.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled job reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait hung after Cancel")
	}
}

// panicProg blows up mid-step; the job must fail, not the process.
type panicProg struct{ Iter int }

func (p *panicProg) Setup(env *abi.Env) error { return nil }
func (p *panicProg) Step(env *abi.Env) (bool, error) {
	p.Iter++
	if p.Iter == 3 {
		panic("boom")
	}
	return p.Iter >= 10, nil
}

func TestProgramPanicFailsJobNotProcess(t *testing.T) {
	job, err := Launch(testStack(ImplMPICH, ABINative, CkptNone, 2), "test.panic")
	if err != nil {
		t.Fatal(err)
	}
	err = job.Wait()
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("Wait() = %v, want a panic-carrying error", err)
	}
}

// Synchronous Checkpoint and Wait on a held job must error, not deadlock
// or silently succeed.
func TestHeldJobGuards(t *testing.T) {
	job, err := Launch(testStack(ImplMPICH, ABIMukautuva, CkptMANA, 2), "test.ring", WithHold())
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Checkpoint(t.TempDir(), false); err == nil {
		t.Fatal("blocking Checkpoint on a held job accepted")
	}
	if err := job.Wait(); err == nil {
		t.Fatal("Wait on a never-started job reported success")
	}
	job.Start()
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
}

// streamProg owns its image section (the optional CheckpointTo/RestoreFrom
// pair); everything else in these suites is gob-encoded whole.
type streamProg struct {
	Vals     []float64
	restored bool
}

func (p *streamProg) Setup(*abi.Env) error        { return nil }
func (p *streamProg) Step(*abi.Env) (bool, error) { return true, nil }
func (p *streamProg) CheckpointTo(w io.Writer) error {
	return abi.WriteFloat64s(w, p.Vals)
}
func (p *streamProg) RestoreFrom(r io.Reader) (err error) {
	p.restored = true
	p.Vals, err = abi.ReadFloat64s(r)
	return err
}

// Which encoding a program's image section gets is decided by what the
// program implements, and either way the section must be consumed whole.
func TestProgramStateCodecFollowsTheProgram(t *testing.T) {
	var viaGob, viaStream bytes.Buffer
	if err := encodeProgram(&viaGob, &lockstepProg{Total: 9, Iter: 4, Sum: 6}); err != nil {
		t.Fatal(err)
	}
	var back lockstepProg
	if err := decodeProgram(viaGob.Bytes(), &back); err != nil || back != (lockstepProg{Total: 9, Iter: 4, Sum: 6}) {
		t.Fatalf("gob path: %+v, %v", back, err)
	}

	if err := encodeProgram(&viaStream, &streamProg{Vals: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if viaStream.Len() != 8+3*8 {
		t.Fatalf("stream path wrote %d bytes, want the bare 32-byte block", viaStream.Len())
	}
	var sp streamProg
	if err := decodeProgram(viaStream.Bytes(), &sp); err != nil || !sp.restored || len(sp.Vals) != 3 || sp.Vals[2] != 3 {
		t.Fatalf("stream path: %+v, %v", sp, err)
	}

	for name, tc := range map[string]struct {
		state []byte
		into  Program
	}{
		"gob":    {append(viaGob.Bytes(), 0), &lockstepProg{}},
		"stream": {append(viaStream.Bytes(), 0), &streamProg{}},
	} {
		if err := decodeProgram(tc.state, tc.into); err == nil || !strings.Contains(err.Error(), "left over") {
			t.Errorf("%s path accepted a section with a trailing byte: %v", name, err)
		}
	}
}
