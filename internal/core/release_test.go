package core

import (
	"math"
	"testing"

	"repro/internal/abi"
)

// reusableProg has a Reset: it keeps Buf's storage and counts its resets
// in a field Reset does not clear, so a test can tell a reused instance.
type reusableProg struct {
	Total, Iter int
	Buf         []float64
	resets      int
}

func (p *reusableProg) Setup(env *abi.Env) error {
	p.Buf = append(p.Buf[:0], float64(env.Rank()))
	return nil
}

func (p *reusableProg) Step(env *abi.Env) (bool, error) {
	p.Iter++
	return p.Iter >= p.Total, nil
}

func (p *reusableProg) Reset() {
	Poison(p.Buf)
	*p = reusableProg{Total: 3, Buf: p.Buf[:0], resets: p.resets + 1}
}

func init() {
	RegisterProgram("test.reusable", func() Program { return &reusableProg{Total: 3} })
}

func runToEnd(t *testing.T, name string, opts ...LaunchOption) *Job {
	t.Helper()
	job, err := Launch(testStack(ImplMPICH, ABINative, CkptNone, 3), name, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(); err != nil {
		t.Fatal(err)
	}
	return job
}

// A released job's programs are gone from it and serve the next job of
// the same name, reset and reconfigured; a race build poisons the storage
// they keep; a program without Reset is never reused.
func TestReleaseHandsProgramsToTheNextJob(t *testing.T) {
	DrainFreePrograms("test.reusable")
	first := runToEnd(t, "test.reusable")
	released := map[Program]bool{}
	for r := 0; r < 3; r++ {
		released[first.Program(r)] = true
	}
	stale := first.Program(0).(*reusableProg).Buf
	first.Release()
	first.Release() // harmless
	if poisonOnRelease && !math.IsNaN(stale[0]) {
		t.Fatalf("a race build left released storage readable: %v", stale[0])
	}
	for r := 0; r < 3; r++ {
		if first.Program(r) != nil || first.LogicalProgram(r) != nil {
			t.Fatalf("rank %d: a released job still returns its program", r)
		}
	}
	second := runToEnd(t, "test.reusable", WithConfigure(func(_ int, p Program) { p.(*reusableProg).Total = 5 }))
	for r := 0; r < 3; r++ {
		p := second.Program(r).(*reusableProg)
		if !released[p] || p.resets != 1 {
			t.Fatalf("rank %d: instance reused %v, reset %d times", r, released[p], p.resets)
		}
		if p.Iter != 5 || len(p.Buf) != 1 || p.Buf[0] != float64(r) {
			t.Fatalf("rank %d: reused instance ran to iter %d with %v", r, p.Iter, p.Buf)
		}
	}

	ring := runToEnd(t, "test.ring.short")
	ring.Release()
	if ring.Program(0) != nil {
		t.Fatal("a released job still returns its program")
	}
	var one [1]Program
	if takePrograms("test.ring.short", one[:]) != 0 {
		t.Fatal("an instance without Reset was filed for reuse")
	}
}

// Each name's free list holds at most maxFreePrograms instances.
func TestFreeProgramsBounded(t *testing.T) {
	const name = "test.reusable.bound"
	progs := make([]Program, 2*maxFreePrograms)
	for i := range progs {
		progs[i] = &reusableProg{}
	}
	recyclePrograms(name, progs)
	got := make([]Program, len(progs))
	if n := takePrograms(name, got); n != maxFreePrograms {
		t.Fatalf("free list held %d instances, want %d", n, maxFreePrograms)
	}
}
