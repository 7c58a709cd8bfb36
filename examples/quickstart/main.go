// Quickstart: write an SPMD program against the standard ABI, register it,
// and run the SAME program over both simulated MPI implementations —
// compiled once, run everywhere.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/abi"
)

// hello is a minimal SPMD program: a ring exchange plus an allreduce.
// Exported fields would be checkpointed; this example runs without a
// checkpointer.
type hello struct {
	Done    bool
	RingVal int64
	SumVal  int64
}

func (h *hello) Setup(env *abi.Env) error { return nil }

func (h *hello) Step(env *abi.Env) (bool, error) {
	n, me := env.Size(), env.Rank()
	right, left := (me+1)%n, (me-1+n)%n

	// Nonblocking ring exchange with standard wildcards.
	rb := make([]byte, 8)
	req, err := env.T.Irecv(rb, 1, env.TypeInt64, left, 0, env.CommWorld)
	if err != nil {
		return false, err
	}
	if err := env.T.Send(abi.Int64Bytes([]int64{int64(me * me)}), 1,
		env.TypeInt64, right, 0, env.CommWorld); err != nil {
		return false, err
	}
	var st abi.Status
	if err := env.T.Wait(req, &st); err != nil {
		return false, err
	}
	h.RingVal = abi.Int64sOf(rb)[0]

	// Global sum.
	out := make([]byte, 8)
	if err := env.T.Allreduce(abi.Int64Bytes([]int64{int64(me)}), out, 1,
		env.TypeInt64, env.OpSum, env.CommWorld); err != nil {
		return false, err
	}
	h.SumVal = abi.Int64sOf(out)[0]
	h.Done = true
	return true, nil
}

func main() {
	repro.RegisterProgram("example.hello", func() repro.Program { return &hello{} })

	for _, impl := range repro.DefaultScenarioMatrix().Impls {
		stack := repro.DefaultStack(impl, repro.ABIMukautuva, repro.CkptNone)
		stack.Net.Nodes = 2
		stack.Net.RanksPerNode = 4
		job, err := repro.Launch(stack, "example.hello")
		if err != nil {
			log.Fatal(err)
		}
		if err := job.Wait(); err != nil {
			log.Fatal(err)
		}
		n := stack.Net.Size()
		h0 := job.Program(0).(*hello)
		fmt.Printf("%-28s ranks=%d  rank0 ring value=%d (from rank %d)  global sum=%d\n",
			stack.Label(), n, h0.RingVal, n-1, h0.SumVal)
	}
	fmt.Println("same binary state, three MPI implementations — the standard ABI at work")
}
