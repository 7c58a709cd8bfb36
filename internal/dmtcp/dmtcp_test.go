package dmtcp

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/fabric"
	"repro/internal/fabric/fabrictest"
)

// runAgents drives one agent per rank of w through `steps` safe points
// with the given per-rank serializer, returning each rank's decisions.
func runAgents(t *testing.T, w *fabric.World, c *Coordinator, steps int, plugin Plugin) [][]Decision {
	t.Helper()
	out := make([][]Decision, w.Size())
	fabrictest.Run(t, w, func(r int) error {
		a := c.NewAgent(r)
		for s := 0; s < steps; s++ {
			d, err := a.SafePoint(func(w io.Writer) error {
				_, err := fmt.Fprintf(w, "rank%d-step%d", r, s)
				return err
			}, plugin)
			if err != nil {
				return fmt.Errorf("step %d: %w", s, err)
			}
			out[r] = append(out[r], d)
			if d == DecisionExit {
				return nil
			}
		}
		return nil
	})
	return out
}

func newWorld(t *testing.T, n int) *fabric.World { return fabrictest.World(t, n) }

func TestSafePointWithoutRequest(t *testing.T) {
	w := newWorld(t, 4)
	c := NewCoordinator(w, Meta{Impl: "mpich", Program: "p"}, Dir(""))
	decisions := runAgents(t, w, c, 3, NopPlugin{})
	for r, ds := range decisions {
		for s, d := range ds {
			if d != DecisionContinue {
				t.Fatalf("rank %d step %d decision %v, want Continue", r, s, d)
			}
		}
	}
}

func TestCheckpointContinueWritesImages(t *testing.T) {
	w := newWorld(t, 3)
	c := NewCoordinator(w, Meta{Impl: "openmpi", StandardABI: true, Program: "prog"}, Dir(""))
	dir := filepath.Join(t.TempDir(), "imgs")
	errCh := c.RequestCheckpoint(dir, false)
	decisions := runAgents(t, w, c, 2, NopPlugin{})
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	sawCkpt := false
	for _, ds := range decisions {
		for _, d := range ds {
			if d == DecisionCheckpointed {
				sawCkpt = true
			}
		}
	}
	if !sawCkpt {
		t.Fatal("no rank observed the checkpoint")
	}
	meta, err := ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumRanks != 3 || meta.Impl != "openmpi" || !meta.StandardABI || meta.Program != "prog" {
		t.Fatalf("meta = %+v", meta)
	}
	for r := 0; r < 3; r++ {
		img, err := ReadRankImage(dir, r)
		if err != nil {
			t.Fatal(err)
		}
		if img.Rank != r || len(img.ProgState) == 0 {
			t.Fatalf("rank image %d = %+v", r, img)
		}
		if string(img.ProgState) != fmt.Sprintf("rank%d-step0", r) {
			t.Fatalf("state = %q", img.ProgState)
		}
	}
}

// The vote ORs one bit over all ranks: a request that only the last rank
// to vote can see — it lands after every other rank has already deposited
// "nothing pending" — still checkpoints on all of them. The scheduler
// makes the interleaving exact: SpawnAll runs ranks in order, so ranks
// 0..n-2 are parked inside the vote when rank n-1 files the request.
func TestRequestSeenByOneRankCheckpointsAll(t *testing.T) {
	const n = 4
	w := newWorld(t, n)
	c := NewCoordinator(w, Meta{Impl: "mpich", Program: "p"}, Dir(""))
	dir := filepath.Join(t.TempDir(), "imgs")
	var errCh <-chan error
	decisions := make([][]Decision, n)
	fabrictest.Run(t, w, func(r int) error {
		a := c.NewAgent(r)
		if r == n-1 {
			errCh = c.RequestCheckpoint(dir, false)
		}
		for s := 0; s < 2; s++ {
			d, err := a.SafePoint(func(w io.Writer) error {
				_, err := fmt.Fprintf(w, "rank%d", r)
				return err
			}, NopPlugin{})
			if err != nil {
				return fmt.Errorf("step %d: %w", s, err)
			}
			decisions[r] = append(decisions[r], d)
		}
		return nil
	})
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	for r, ds := range decisions {
		if len(ds) != 2 || ds[0] != DecisionCheckpointed || ds[1] != DecisionContinue {
			t.Errorf("rank %d decisions = %v, want [Checkpointed Continue]", r, ds)
		}
		if _, err := ReadRankImage(dir, r); err != nil {
			t.Errorf("rank %d image: %v", r, err)
		}
	}
}

func TestCheckpointExitStopsRanks(t *testing.T) {
	w := newWorld(t, 2)
	c := NewCoordinator(w, Meta{Impl: "mpich"}, Dir(""))
	dir := filepath.Join(t.TempDir(), "imgs")
	errCh := c.RequestCheckpoint(dir, true)
	decisions := runAgents(t, w, c, 5, NopPlugin{})
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	for r, ds := range decisions {
		if len(ds) != 1 || ds[0] != DecisionExit {
			t.Fatalf("rank %d decisions = %v, want one Exit", r, ds)
		}
	}
}

func TestDoubleRequestRejected(t *testing.T) {
	w := newWorld(t, 1)
	c := NewCoordinator(w, Meta{}, Dir(""))
	_ = c.RequestCheckpoint(t.TempDir(), false)
	errCh2 := c.RequestCheckpoint(t.TempDir(), false)
	if err := <-errCh2; err == nil {
		t.Fatal("second concurrent request accepted")
	}
}

func TestAbortPending(t *testing.T) {
	w := newWorld(t, 1)
	c := NewCoordinator(w, Meta{}, Dir(""))
	errCh := c.RequestCheckpoint(t.TempDir(), false)
	c.AbortPending(fmt.Errorf("job done"))
	if err := <-errCh; err == nil {
		t.Fatal("aborted request reported success")
	}
	// Coordinator is closed: further requests fail fast.
	if err := <-c.RequestCheckpoint(t.TempDir(), false); err == nil {
		t.Fatal("request after close accepted")
	}
}

func TestReadMetaMissing(t *testing.T) {
	if _, err := ReadMeta(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing meta read succeeded")
	}
	if _, err := ReadRankImage(t.TempDir(), 0); err == nil {
		t.Fatal("missing rank image read succeeded")
	}
}

// failingPlugin simulates a drain failure on one rank; the checkpoint must
// report failure to the requester but leave the job running.
type failingPlugin struct{ rank int }

func (p failingPlugin) PreCheckpoint() ([]byte, error) {
	if p.rank == 1 {
		return nil, fmt.Errorf("injected drain failure")
	}
	return []byte("ok"), nil
}

func (p failingPlugin) Resume() error { return nil }

func TestPluginFailurePropagates(t *testing.T) {
	w := newWorld(t, 2)
	c := NewCoordinator(w, Meta{}, Dir(""))
	errCh := c.RequestCheckpoint(filepath.Join(t.TempDir(), "x"), false)
	fabrictest.Run(t, w, func(r int) error {
		// The failing rank gets an error from SafePoint; the healthy
		// rank completes the protocol.
		_, _ = c.NewAgent(r).SafePoint(func(io.Writer) error { return nil }, failingPlugin{rank: r})
		return nil
	})
	if err := <-errCh; err == nil {
		t.Fatal("plugin failure not reported to requester")
	}
}

func TestStepCounter(t *testing.T) {
	w := newWorld(t, 1)
	c := NewCoordinator(w, Meta{}, Dir(""))
	a := c.NewAgent(0)
	if a.Step() != 0 {
		t.Fatal("fresh agent step != 0")
	}
	a.SetStep(41)
	if _, err := a.SafePoint(func(io.Writer) error { return nil }, NopPlugin{}); err != nil {
		t.Fatal(err)
	}
	if a.Step() != 42 {
		t.Fatalf("step = %d, want 42", a.Step())
	}
}
