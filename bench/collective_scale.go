package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/simnet"
)

// scaleLaunch is one world of a collective_scale slice: ranks on one node
// under the event engine, running the listed steps in order. label is the
// full-scale rank count, which span and metric names keep at smoke scale.
type scaleLaunch struct {
	label int
	ranks int
	steps []scaleStep
}

type scaleStep struct {
	kind  collKind
	count int
}

// scalePlan is one slice: the same collectives the mpicore-direct
// benches time, reached through the public Launch path (binding, safe-
// point vote per step, job teardown), at three world sizes.
var scalePlan = []scaleLaunch{
	{1024, 1024, []scaleStep{{collAllreduce, 10}, {collBcast, 10}, {collBarrier, 10}, {collAllreduce64K, 1}}},
	{256, 256, []scaleStep{{collAlltoall, 10}}},
	{4096, 4096, []scaleStep{{collAllreduce, 1}}},
}

var scalePlanSmoke = []scaleLaunch{
	{1024, 64, []scaleStep{{collAllreduce, 2}, {collBcast, 2}, {collBarrier, 2}, {collAllreduce64K, 1}}},
	{256, 32, []scaleStep{{collAlltoall, 2}}},
	{4096, 128, []scaleStep{{collAllreduce, 1}}},
}

func (l scaleLaunch) plan() []collKind {
	var out []collKind
	for _, s := range l.steps {
		for i := 0; i < s.count; i++ {
			out = append(out, s.kind)
		}
	}
	return out
}

type collectiveScale struct {
	cfg  config
	plan []scaleLaunch
}

func setupCollectiveScale(cfg config) (instance, error) {
	c := &collectiveScale{cfg: cfg, plan: scalePlan}
	if cfg.smoke {
		c.plan = scalePlanSmoke
	}
	return c, nil
}

func (c *collectiveScale) slice(i int, tr *tracer) (sliceResult, error) {
	root := tr.begin("collective_scale.slice", -1, i)
	defer tr.end(root)
	var out sliceResult
	for _, l := range c.plan {
		r, err := runCollMix(l, c.cfg.seed+int64(i), tr, root, i)
		if err != nil {
			return out, err
		}
		out.add(r)
	}
	return out, nil
}

// runCollMix launches bench.collmix on n ranks (MPICH native, no
// checkpointer, event engine), waits for it and checks every rank's
// results. An operation is one rank's collective call.
func runCollMix(l scaleLaunch, seed int64, tr *tracer, parent, op int) (sliceResult, error) {
	n, plan := l.ranks, l.plan()
	stack := repro.DefaultStack(repro.ImplMPICH, repro.ABINative, repro.CkptNone)
	stack.Net = simnet.SingleNode(n)
	stack.Net.Seed = seed
	stack.Progress = "event"
	value := 1 + seed%1000
	launch := tr.begin(fmt.Sprintf("core.launch_%d", l.label), parent, op)
	job, err := repro.Launch(stack, progCollMix, repro.WithConfigure(func(rank int, p repro.Program) {
		m := p.(*collMix)
		m.plan, m.value, m.seed, m.stamp = plan, value, seed, tr != nil
	}))
	tr.end(launch)
	if err != nil {
		return sliceResult{}, fmt.Errorf("collective_scale: launching %d ranks: %w", n, err)
	}
	wait := tr.begin(fmt.Sprintf("core.wait_%d", l.label), parent, op)
	err = job.Wait()
	tr.end(wait)
	end := time.Now()
	out := sliceResult{ops: n * len(plan)}
	if err != nil {
		// A nonzero MPI code on any rank surfaces here and fails every
		// operation of the launch.
		out.failed = out.ops
		return out, nil
	}
	for r := 0; r < n; r++ {
		out.failed += job.Program(r).(*collMix).bad
	}
	out.virtUS = job.Clock(0).Micros() * float64(n)
	if tr != nil {
		// Rank 0 stamped every Step entry; a step lasts until the next
		// entry (so it includes the safe-point vote), the last until the
		// job ended.
		stamps := append(job.Program(0).(*collMix).stamps, end)
		for s := 0; s+1 < len(stamps); s++ {
			tr.add("core.step."+stepLabel(plan[s], l.label), wait, op, stamps[s], stamps[s+1])
		}
	}
	return out, nil
}
