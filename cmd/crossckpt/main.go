// Command crossckpt runs the paper's Section 5.3 scenario across the
// whole matrix of restart pairings: for every checkpointed stack of the
// chosen program, launch it, checkpoint at the first safe point, let the
// original complete, restart the images under every implementation the
// image is valid for, and report each pairing's outcome. The pairings
// come from the scenario matrix — cross-implementation restarts (the
// paper's headline) exist exactly where MANA checkpoints through the
// standard ABI; plain DMTCP pairings restart only under their own stack.
//
// Usage:
//
//	crossckpt [-program osu.alltoall] [-from openmpi] [-to mpich] [-cross-only]
//	          [-faults] [-nodes 4] [-rpn 12] [-max-size 16384] [-parallel N]
//	          [-dir images/] [-out report.json]
//	crossckpt -shrink [-program app.wave] [-from impl] [-nodes 2] [-rpn 2] [-out report.json]
//	crossckpt -replicate [-program app.wave] [-from impl] [-nodes 2] [-rpn 2] [-out report.json]
//
// With -shrink the tool runs the OTHER half of fault-tolerant MPI
// instead: ULFM in-place recovery legs, one per implementation in both
// native and Mukautuva-shimmed bindings — a rank crash fires
// mid-run, survivors' pending operations complete with the
// implementation's own MPIX proc-failed code, and the application
// revokes, shrinks and recomputes on the survivors-only communicator.
// No checkpoints are written and nothing restarts.
//
// With -replicate the tool runs the THIRD recovery mode: replication
// failover legs, again one per implementation in both bindings. Every
// logical rank runs as a primary + warm-shadow pair, a rank crash
// kills one primary mid-run, and its shadow is promoted in place
// — no checkpoints, no restart, no shrink, and the job completes at
// full size with the same results as a fault-free run.
//
// Images live in memory; pass -dir to also keep a copy of every image set
// for inspection with manactl (the report's lineage paths are relative
// to it). The copy is write-only, so a reused -dir never changes a result.
//
// With -from/-to the pairing list is filtered to matching launch/restart
// implementations: `crossckpt -from openmpi -to mpich` runs the paper's
// Section 5.3 direction over both standard-ABI bindings (one MANA
// pairing through Mukautuva, one through Wi4MPI).
//
// With -faults every pairing runs under an injected failure instead of
// the clean compare protocol: the launch leg checkpoints periodically, a
// crash fires mid-run (a whole node for cross-implementation pairings —
// the paper's headline demonstration: checkpoint under Open MPI, lose a
// node, automatically restart and complete under MPICH; one rank for
// same-implementation pairings), and the recovery driver restarts from
// the latest complete image. The JSON report records each cell's fault
// spec, detection/lost-work virtual times and image lineage.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/scenario"
)

func main() {
	var (
		program   = flag.String("program", "osu.alltoall", "registered program to run under every pairing")
		from      = flag.String("from", "", "only pairings launched under this implementation")
		to        = flag.String("to", "", "only pairings restarted under this implementation")
		crossOnly = flag.Bool("cross-only", false, "only cross-implementation pairings")
		withFlt   = flag.Bool("faults", false, "inject a crash into every pairing and drive automated recovery (node crash on cross-implementation pairings, rank crash otherwise)")
		shrink    = flag.Bool("shrink", false, "run ULFM shrink-recovery legs instead of restart pairings: one rank crash per implementation (native and Mukautuva-shimmed), survived in place by revoke/shrink/recompute")
		replicate = flag.Bool("replicate", false, "run replication-failover legs instead of restart pairings: one primary crash per implementation (native and Mukautuva-shimmed), absorbed by promoting the warm shadow in place")
		nodes     = flag.Int("nodes", 4, "compute nodes")
		rpn       = flag.Int("rpn", 12, "ranks per node")
		maxSz     = flag.Int("max-size", 1<<14, "largest message size in bytes")
		reps      = flag.Int("reps", 1, "repetitions per pairing")
		parallel  = flag.Int("parallel", 0, "bound on concurrently running pairings (0 = one per CPU)")
		dir       = flag.String("dir", "", "also write checkpoint images under this directory for inspection (report lineage paths are relative to it)")
		out       = flag.String("out", "", "optional path for the JSON report")
	)
	flag.Parse()

	m := scenario.DefaultMatrix()
	m.Programs = []string{*program}
	m.Faults = nil // pristine pairings; -faults arms its own crash per pairing
	var specs []scenario.Spec
	if *shrink || *replicate {
		// In-place recovery legs have no restart side, no pairing filter
		// beyond the launch implementation, and arm their own rank-crash
		// fault: refuse the restart-mode flags instead of silently
		// ignoring them.
		if *to != "" || *crossOnly || *withFlt {
			fatal(fmt.Errorf("-shrink/-replicate run in-place recovery legs; they conflict with -to, -cross-only and -faults"))
		}
		if *shrink && *replicate {
			fatal(fmt.Errorf("-shrink and -replicate are separate demo modes; pick one"))
		}
		recovery := scenario.RecoveryShrink
		if *replicate {
			recovery = scenario.RecoveryReplicate
		}
		// The in-place demo legs: every implementation survives the same
		// seeded rank crash in place — natively and through the shim, so
		// the MPIX error classes (shrink) and the promotion machinery
		// (replicate) cross the translation layer both ways.
		for _, impl := range []core.Impl{core.ImplMPICH, core.ImplOpenMPI, core.ImplStdABI} {
			for _, mode := range []core.ABIMode{core.ABINative, core.ABIMukautuva} {
				if *from != "" && impl != core.Impl(*from) {
					continue
				}
				specs = append(specs, scenario.Spec{
					Program: *program, Impl: impl, ABI: mode, Ckpt: core.CkptNone,
					Fault: faults.KindRankCrash, Recovery: recovery,
				})
			}
		}
		runSpecs(specs, *program, *nodes, *rpn, *maxSz, *reps, *parallel, *dir, *out)
		return
	}
	for _, s := range m.Enumerate() {
		if !s.HasRestart() {
			continue
		}
		if *from != "" && s.Impl != core.Impl(*from) {
			continue
		}
		if *to != "" && s.RestartImpl != core.Impl(*to) {
			continue
		}
		if *crossOnly && s.RestartImpl == s.Impl {
			continue
		}
		if *withFlt {
			if s.RestartImpl != s.Impl {
				s.Fault = faults.KindNodeCrash
			} else {
				s.Fault = faults.KindRankCrash
			}
		}
		specs = append(specs, s)
	}
	if len(specs) == 0 {
		fatal(fmt.Errorf("no valid restart pairings for program=%s from=%q to=%q", *program, *from, *to))
	}

	o := scenario.Quick()
	o.Nodes = *nodes
	o.RanksPerNode = *rpn
	o.MaxSize = *maxSz
	o.Reps = *reps
	o.Parallel = *parallel
	o.Timeout = 10 * time.Minute
	o.KeepImages = *dir

	fmt.Printf("running %d restart pairings of %s over %dx%d ranks ...\n\n",
		len(specs), *program, *nodes, *rpn)
	rep := scenario.Run(specs, o)

	for _, res := range rep.Results {
		kind := "same-impl"
		if res.Cross() {
			kind = "CROSS-IMPL"
		}
		switch {
		case res.Status != scenario.StatusPass:
			fmt.Printf("FAIL %-10s %-70s %s\n", kind, res.ID, res.Error)
		case len(res.Faults) > 0:
			f := res.Faults[0]
			fmt.Printf("OK   %-10s %-70s %s ranks %v at step %d; recovered from image step %d (%d restarts, %.3f ms lost)\n",
				kind, res.ID, f.Kind, f.Ranks, f.Step, f.ImageStep, f.Restarts, f.LostVirtMS)
		case len(res.Lineage) > 0:
			fmt.Printf("OK   %-10s %-70s ckpt step %d\n", kind, res.ID, res.Lineage[0].Step)
		default:
			fmt.Printf("OK   %-10s %-70s\n", kind, res.ID)
		}
	}
	var cross int
	for _, res := range rep.Results {
		if res.Cross() && res.Status == scenario.StatusPass {
			cross++
		}
	}
	fmt.Printf("\n%d/%d pairings passed (%d cross-implementation restarts, no recompilation).\n",
		rep.Passed, rep.Scenarios, cross)

	if *out != "" {
		if err := rep.WriteJSON(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (schema v%d)\n", *out, scenario.SchemaVersion)
	}
	if rep.Failed > 0 {
		fatal(fmt.Errorf("%d pairings failed", rep.Failed))
	}
}

// runSpecs executes the in-place recovery demo legs (shrink or
// replicate) and reports each in its mode's own terms: victims,
// survivors and in-place recoveries for shrink; killed primaries and
// promoted shadows for replicate.
func runSpecs(specs []scenario.Spec, program string, nodes, rpn, maxSz, reps, parallel int, dir, out string) {
	if len(specs) == 0 {
		fatal(fmt.Errorf("no in-place recovery legs selected for program=%s", program))
	}
	o := scenario.Quick()
	o.Nodes = nodes
	o.RanksPerNode = rpn
	o.MaxSize = maxSz
	o.Reps = reps
	o.Parallel = parallel
	o.Timeout = 10 * time.Minute
	o.KeepImages = dir

	label := "ULFM shrink-recovery"
	if specs[0].Recovery == scenario.RecoveryReplicate {
		label = "replication-failover"
	}
	fmt.Printf("running %d %s legs of %s over %dx%d ranks ...\n\n",
		len(specs), label, program, nodes, rpn)
	rep := scenario.Run(specs, o)
	for _, res := range rep.Results {
		switch {
		case res.Status != scenario.StatusPass:
			fmt.Printf("FAIL %-70s %s\n", res.ID, res.Error)
		case len(res.Faults) > 0 && res.Faults[0].Promotions > 0:
			f := res.Faults[0]
			fmt.Printf("OK   %-70s primary %v died at step %d; shadow %v promoted in place, job completed at full size\n",
				res.ID, f.Ranks, f.Step, f.Promoted)
		case len(res.Faults) > 0:
			f := res.Faults[0]
			fmt.Printf("OK   %-70s rank %v died at step %d; %d survivors shrank and completed in place (%d shrink(s))\n",
				res.ID, f.Ranks, f.Step, f.Survivors, f.Shrinks)
		default:
			fmt.Printf("OK   %-70s\n", res.ID)
		}
	}
	fmt.Printf("\n%d/%d %s legs passed (no checkpoints written, no restarts).\n",
		rep.Passed, rep.Scenarios, label)
	if out != "" {
		if err := rep.WriteJSON(out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (schema v%d)\n", out, scenario.SchemaVersion)
	}
	if rep.Failed > 0 {
		fatal(fmt.Errorf("%d shrink legs failed", rep.Failed))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crossckpt:", err)
	os.Exit(1)
}
