// Package scenario is the scenario-matrix engine behind the paper's
// combinatorial claim (Sections 4-5): one application, compiled once
// against the standard ABI, must run — and checkpoint, and restart —
// under *every* valid pairing of MPI implementation, binding mode and
// checkpointing package, cross-implementation restarts included.
//
// A Spec names one cell of that matrix: a registered program, the three
// legs of the stool (implementation, ABI binding, checkpointer), an
// optional kernel model for the MANA FSGSBASE ablation, an optional
// restart pairing (checkpoint under one implementation, restart under
// another — the Section 5.3 / Figure 6 protocol), and an optional
// injected fault (internal/faults) that turns the cell into the paper's
// title claim under actual failure: crash, detect, restart from the
// latest periodic image, complete — under the other implementation where
// the pairing allows it. MatrixSpec enumerates every valid Spec in a
// deterministic order, excluding the combinations the paper's model
// forbids: restarting without a checkpointer, cross-implementation
// restart of a native-ABI or plain-DMTCP image, and restarting a
// standard-ABI image without a translation layer.
//
// Run executes a list of Specs with deterministic per-scenario seeds,
// per-scenario timeouts and failure isolation (a panicking or deadlocked
// stack fails its own cell, not the run), and aggregates repetitions with
// internal/stats exactly as the paper does (medians, standard
// deviations). Its workers Drain a Queue, the one scheduler, which
// matrixd (package remote) also serves to a fleet over HTTP. Results
// persist as versioned JSON (see Report) so matrix runs are diffable
// across revisions; internal/harness builds the paper's figures as thin
// queries over them.
//
// Every cell has a stable content address (CellHash — spec,
// result-determining options, derived seeds, engine version), so a
// content-addressed Store (the directory Cache, or a matrixd server)
// serves unchanged cells without re-executing them, with provenance
// recording which cells ran live, which came from a store, and what each
// worker cost.
package scenario

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mana"
)

// KernelModern selects the post-5.9 (userspace FSGSBASE) kernel model for
// the MANA layer; the empty string selects the paper's pre-5.9 testbed
// kernel. These are the two points of the FSGSBASE ablation.
const KernelModern = "5_9plus"

// Spec identifies one scenario: a program run under one full stack, with
// an optional checkpoint/restart pairing. The zero values of RestartImpl
// and RestartABI mean "no restart leg".
type Spec struct {
	// Program is the registered core.Program name (e.g. "app.wave",
	// "osu.alltoall").
	Program string `json:"program"`
	// Impl, ABI and Ckpt are the launch stack's three legs.
	Impl core.Impl     `json:"impl"`
	ABI  core.ABIMode  `json:"abi"`
	Ckpt core.CkptMode `json:"ckpt"`
	// Kernel optionally selects the MANA kernel model (KernelModern);
	// empty means the paper's pre-5.9 testbed kernel.
	Kernel string `json:"kernel,omitempty"`
	// RestartImpl/RestartABI, when set, add a restart leg: the run is
	// checkpointed at its first safe point and the images are restarted
	// under this stack (same checkpointer), while the original run
	// continues to completion for comparison.
	RestartImpl core.Impl    `json:"restart_impl,omitempty"`
	RestartABI  core.ABIMode `json:"restart_abi,omitempty"`
	// Fault, when set, turns the cell into a fault-injection scenario.
	// Crash kinds run the automated recovery protocol instead of the
	// compare protocol: the job checkpoints periodically, the fault fires
	// at a seeded step, and the recovery driver restarts from the latest
	// complete image — under the restart stack when the scenario has a
	// restart leg (cross-implementation where the legs allow it).
	// faults.KindNICDegrade degrades the fabric instead; the run
	// completes under it without recovery.
	Fault faults.Kind `json:"fault,omitempty"`
	// Recovery selects the recovery mode (a core.RecoveryMode) for
	// rank-crash cells: empty means the default checkpoint/restart
	// protocol above; RecoveryShrink survives the crash in place by ULFM
	// revoke/shrink/recompute and RecoveryReplicate by promoting the
	// victim's warm shadow — both checkpoint-free (core.RecoveryMode.Check
	// is the rule). The axis exists so the harness can compare the three
	// legs of fault-tolerant MPI — restart a bigger job from images,
	// shrink and recompute in place, or pay for replication up front — on
	// the same crashes.
	Recovery string `json:"recovery,omitempty"`
	// FaultStep pins the fault's trigger step (0 = drawn from the
	// repetition seed; see faults.Spec).
	FaultStep uint64 `json:"fault_step,omitempty"`
	// CkptEvery overrides Options.CkptEvery for this cell's periodic
	// checkpoint interval (0 = the run-wide default). The
	// recovery-overhead table sweeps it.
	CkptEvery uint64 `json:"ckpt_every,omitempty"`
}

// The in-place values of Spec.Recovery (core.RecoveryShrink and
// core.RecoveryReplicate as plain strings).
const (
	RecoveryShrink    = string(core.RecoveryShrink)
	RecoveryReplicate = string(core.RecoveryReplicate)
)

// HasRestart reports whether the scenario includes a restart leg.
func (s Spec) HasRestart() bool { return s.RestartImpl != "" }

// ID is the scenario's stable identifier:
// program/impl+abi+ckpt[@kernel][>restartimpl+restartabi][!fault[#step][%every][~recovery]].
// Reports are sorted and queried by it.
func (s Spec) ID() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s+%s+%s", s.Program, s.Impl, s.ABI, s.Ckpt)
	if s.Kernel != "" {
		fmt.Fprintf(&b, "@%s", s.Kernel)
	}
	if s.HasRestart() {
		fmt.Fprintf(&b, ">%s+%s", s.RestartImpl, s.RestartABI)
	}
	if s.Fault != "" {
		fmt.Fprintf(&b, "!%s", s.Fault)
		if s.FaultStep > 0 {
			fmt.Fprintf(&b, "#%d", s.FaultStep)
		}
		if s.CkptEvery > 0 {
			fmt.Fprintf(&b, "%%%d", s.CkptEvery)
		}
		if s.Recovery != "" {
			fmt.Fprintf(&b, "~%s", s.Recovery)
		}
	}
	return b.String()
}

// LaunchStack composes the launch-side core.Stack (testbed-default shape;
// the engine overrides the cluster shape and seed per run).
func (s Spec) LaunchStack() core.Stack {
	stack := core.DefaultStack(s.Impl, s.ABI, s.Ckpt)
	if s.Kernel == KernelModern {
		stack.Kernel = mana.Kernel5_9Plus
	}
	return stack
}

// RestartStack composes the restart-side core.Stack. Only meaningful when
// HasRestart.
func (s Spec) RestartStack() core.Stack {
	stack := core.DefaultStack(s.RestartImpl, s.RestartABI, s.Ckpt)
	if s.Kernel == KernelModern {
		stack.Kernel = mana.Kernel5_9Plus
	}
	return stack
}

// Validate reports why a scenario is not runnable. A restart pairing is
// held to core.RestartCompat, the rule core.Restart applies.
func (s Spec) Validate() error {
	if s.Program == "" {
		return fmt.Errorf("scenario: empty program name")
	}
	if err := s.LaunchStack().Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.ID(), err)
	}
	if s.Kernel != "" && s.Kernel != KernelModern {
		return fmt.Errorf("scenario %s: unknown kernel model %q", s.ID(), s.Kernel)
	}
	switch s.Fault {
	case "":
		if s.FaultStep != 0 || s.CkptEvery != 0 {
			return fmt.Errorf("scenario %s: fault parameters without a fault kind", s.ID())
		}
		if s.Recovery != "" {
			return fmt.Errorf("scenario %s: recovery mode without a fault kind", s.ID())
		}
	case faults.KindRankCrash, faults.KindNodeCrash:
		// The recovery driver's own rule; a restart pairing (when present)
		// is validated by the shared rules below.
		if err := core.RecoveryMode(s.Recovery).Check([]faults.Kind{s.Fault}, s.Ckpt, s.HasRestart(), s.CkptEvery); err != nil {
			return fmt.Errorf("scenario %s: %w", s.ID(), err)
		}
	case faults.KindNICDegrade:
		if s.Recovery != "" {
			return fmt.Errorf("scenario %s: recovery mode applies to crash cells", s.ID())
		}
		// Degradation slows the run but kills nobody; any stack survives
		// — and nothing triggers a restart, so a restart pairing on a
		// degraded cell would be advertised in the ID yet never executed.
		if s.HasRestart() {
			return fmt.Errorf("scenario %s: nic-degrade runs to completion without a restart leg; drop the restart pairing", s.ID())
		}
	default:
		return fmt.Errorf("scenario %s: unknown fault kind %q", s.ID(), s.Fault)
	}
	if !s.HasRestart() {
		if s.RestartABI != "" {
			return fmt.Errorf("scenario %s: restart ABI without a restart implementation", s.ID())
		}
		return nil
	}
	rstack := s.RestartStack()
	if err := rstack.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.ID(), err)
	}
	if err := core.RestartCompat(string(s.Impl), string(s.ABI), string(s.Ckpt), s.ABI != core.ABINative, rstack); err != nil {
		return fmt.Errorf("scenario %s: %w", s.ID(), err)
	}
	return nil
}

// MatrixSpec enumerates a scenario matrix: the cross product of its axes,
// filtered down to valid stacks.
type MatrixSpec struct {
	// Programs are registered program names (apps or benchmarks).
	Programs []string
	// Impls, ABIs and Ckpts are the three legs' axes.
	Impls []core.Impl
	ABIs  []core.ABIMode
	Ckpts []core.CkptMode
	// CrossRestart adds, for every checkpointed cell, one scenario per
	// valid restart implementation (same-implementation restarts and, for
	// standard-ABI MANA stacks, cross-implementation restarts).
	CrossRestart bool
	// Faults is the fault axis. KindRankCrash adds a crash-recovery
	// scenario to every restart pairing AND a ULFM shrink-recovery
	// scenario AND a replication-failover scenario to every
	// checkpointer-free straight cell (the recovery-mode axis: the same
	// class of crash, survived by restart, in place by shrinking, or in
	// place by shadow promotion); KindNodeCrash adds one to every
	// cross-implementation pairing (the paper's headline failure: lose a
	// node under one implementation, finish under the other);
	// KindNICDegrade adds a degraded-completion scenario to every
	// checkpointer-free straight cell.
	Faults []faults.Kind
}

// DefaultMatrix is the paper's full claim surface: both Figure 5
// applications over every implementation — the two historical ABIs plus
// the standard-ABI-native third (internal/stdabi) — every binding mode,
// every checkpointing package, every valid restart pairing (including
// stdabi<->{mpich,openmpi} cross-restarts in both directions), and the
// fault axis — crash recovery over every pairing, ULFM shrink recovery
// and replication failover over every plain cell, node loss over every
// cross-implementation pairing, link degradation over every plain cell.
func DefaultMatrix() MatrixSpec {
	return MatrixSpec{
		Programs:     []string{"app.comd", "app.wave"},
		Impls:        core.Impls(),
		ABIs:         []core.ABIMode{core.ABINative, core.ABIMukautuva, core.ABIWi4MPI},
		Ckpts:        []core.CkptMode{core.CkptNone, core.CkptDMTCP, core.CkptMANA},
		CrossRestart: true,
		Faults:       []faults.Kind{faults.KindRankCrash, faults.KindNodeCrash, faults.KindNICDegrade},
	}
}

// hasFault reports whether the matrix includes the fault kind.
func (m MatrixSpec) hasFault(k faults.Kind) bool {
	for _, f := range m.Faults {
		if f == k {
			return true
		}
	}
	return false
}

// Enumerate expands the matrix into the valid scenarios, in a
// deterministic order (axes iterate in the order given; restart pairings
// follow their base cell).
func (m MatrixSpec) Enumerate() []Spec {
	var out []Spec
	for _, prog := range m.Programs {
		for _, impl := range m.Impls {
			for _, abiMode := range m.ABIs {
				for _, ckpt := range m.Ckpts {
					base := Spec{Program: prog, Impl: impl, ABI: abiMode, Ckpt: ckpt}
					if base.Validate() != nil {
						continue
					}
					out = append(out, base)
					if ckpt == core.CkptNone && m.hasFault(faults.KindNICDegrade) {
						s := base
						s.Fault = faults.KindNICDegrade
						out = append(out, s)
					}
					// The recovery-mode axis: every checkpointer-free
					// straight cell gets a ULFM shrink-recovery sibling —
					// the same seeded rank crash the restart cells
					// recover from, survived in place instead (all three
					// implementations, native and shimmed).
					if ckpt == core.CkptNone && m.hasFault(faults.KindRankCrash) {
						s := base
						s.Fault = faults.KindRankCrash
						s.Recovery = RecoveryShrink
						out = append(out, s)
						// ...and a replication-failover sibling: the same
						// seeded crash, absorbed by a warm shadow instead
						// of a shrink.
						r := base
						r.Fault = faults.KindRankCrash
						r.Recovery = RecoveryReplicate
						out = append(out, r)
					}
					if !m.CrossRestart || ckpt == core.CkptNone {
						continue
					}
					for _, rimpl := range m.Impls {
						s := base
						s.RestartImpl = rimpl
						s.RestartABI = abiMode
						if s.Validate() != nil {
							continue
						}
						out = append(out, s)
						if m.hasFault(faults.KindRankCrash) {
							f := s
							f.Fault = faults.KindRankCrash
							out = append(out, f)
						}
						if m.hasFault(faults.KindNodeCrash) && s.RestartImpl != s.Impl {
							f := s
							f.Fault = faults.KindNodeCrash
							out = append(out, f)
						}
					}
				}
			}
		}
	}
	return out
}

// seedFor derives the deterministic jitter seed for one repetition. It
// depends on the program and repetition but deliberately not on the
// stack: the paper compares stacks under identical cluster noise, so
// every stack running the same program in the same repetition sees the
// same jitter stream (paired comparison), while distinct repetitions and
// programs get distinct streams.
func seedFor(base int64, program string, rep int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", program, base, rep)
	seed := int64(h.Sum64() & 0x7fffffffffffffff)
	if seed == 0 {
		seed = 1
	}
	return seed
}

// idPath renders a scenario ID as a filesystem-safe path component for
// checkpoint image directories: '>' becomes "_to_", '/' and '!' become
// '_', and '+', '@', '#', '%' and '~' become '-'. It allocates only the
// string it returns.
func idPath(id string) string {
	var b strings.Builder
	b.Grow(len(id) + 3*strings.Count(id, ">"))
	for i := 0; i < len(id); i++ {
		switch c := id[i]; c {
		case '>':
			b.WriteString("_to_")
		case '/', '!':
			b.WriteByte('_')
		case '+', '@', '#', '%', '~':
			b.WriteByte('-')
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// TraceFileName is the file a traced cell's Chrome trace lands under
// inside Options.TraceDir: the cell ID sanitized exactly like its
// checkpoint image root (Lineage.Dir), plus ".json".
func TraceFileName(id string) string { return idPath(id) + ".json" }
