// Package faults provides declarative fault injection for the simulated
// cluster: the axis the paper's title promises but its evaluation never
// exercises. A Plan names the failures a run must survive — a rank
// crashing, a whole node going down, a NIC degrading — and an Injector
// arms the plan against one concrete cluster shape, drawing unspecified
// targets and trigger points deterministically from the repetition seed,
// exactly like the simnet jitter stream. Same seed, same fault.
//
// Crash faults fire at program-step boundaries (or at the first safe
// point at/after a virtual-time trigger): internal/core consults the
// injector between steps, which is the in-process analog of a fail-stop
// process death the MPI runtime's fault detector observes (compare
// FTHP-MPI's injected process failures, arXiv:2504.09989). NIC
// degradation is armed directly into the simnet cost model and needs no
// cooperation from the victim.
//
// A fired fault stays fired for the lifetime of the Injector, across
// restart legs: the recovery driver carries one Injector through launch,
// detection and restart, so a crash consumed on the first leg does not
// re-kill the recovered job when it replays the trigger step.
//
// A plan says what fails, not what the failure does to the job: that is
// the recovery mode's call (core.RecoveryMode). Under restart a crash
// aborts the job; under shrink and replicate it kills only its victims.
//
// In the README's layer diagram the fault axis is orthogonal to the
// stack column: plans arm fail-stop kills, failure notices and NIC
// degradation in the fabric+simnet row, and core.RunWithRecovery's three
// modes — restart, shrink, replicate (docs/recovery.md) — consume the
// resulting failures.
package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/simnet"
)

// Kind names a fault class.
type Kind string

// Fault classes.
const (
	// KindRankCrash kills one rank (fail-stop process death).
	KindRankCrash Kind = "rank-crash"
	// KindNodeCrash kills every rank on one node (node power loss).
	KindNodeCrash Kind = "node-crash"
	// KindNICDegrade divides one node's NIC serialization rate by Factor
	// from virtual time At onward (link degradation, not a failure — the
	// job completes, slower).
	KindNICDegrade Kind = "nic-degrade"
)

// Anywhere, as a Spec target, means "drawn deterministically from the
// injector seed".
const Anywhere = -1

// Spec declares one fault. The zero values of Rank/Node target rank 0 /
// node 0; use Anywhere for a seeded draw.
type Spec struct {
	Kind Kind `json:"kind"`
	// Rank targets a rank (KindRankCrash). Anywhere = seeded draw.
	Rank int `json:"rank"`
	// Node targets a node (KindNodeCrash, KindNICDegrade). Anywhere =
	// seeded draw.
	Node int `json:"node"`
	// Step is the program step the fault fires before (crash kinds):
	// the victim dies at the step-Step boundary, never executing it.
	// 0 means a seeded draw from [MinStep, MaxStep].
	Step uint64 `json:"step,omitempty"`
	// MinStep/MaxStep bound the seeded step draw (defaults 2 and 3, so a
	// drawn trigger always fires inside even the shortest smoke-scale
	// runs while leaving at least one safe point ahead of it).
	MinStep, MaxStep uint64 `json:"-"`
	// At is a virtual-time trigger: crash kinds fire at the victim's
	// first step boundary at/after At (used when Step is 0);
	// KindNICDegrade degrades transfers departing at/after At.
	At time.Duration `json:"at,omitempty"`
	// Factor is the NIC slowdown multiplier (KindNICDegrade; default 8).
	Factor float64 `json:"factor,omitempty"`
}

// Plan is the declarative list of faults one run must survive.
type Plan struct {
	Faults []Spec `json:"faults"`
}

// Validate reports why a spec cannot be armed against cfg.
func (s Spec) Validate(cfg simnet.Config) error {
	switch s.Kind {
	case KindRankCrash:
		if s.Rank != Anywhere && (s.Rank < 0 || s.Rank >= cfg.Size()) {
			return fmt.Errorf("faults: rank %d out of range [0,%d)", s.Rank, cfg.Size())
		}
	case KindNodeCrash, KindNICDegrade:
		if s.Node != Anywhere && (s.Node < 0 || s.Node >= cfg.Nodes) {
			return fmt.Errorf("faults: node %d out of range [0,%d)", s.Node, cfg.Nodes)
		}
	default:
		return fmt.Errorf("faults: unknown fault kind %q", s.Kind)
	}
	if s.MinStep > s.MaxStep {
		return fmt.Errorf("faults: MinStep %d > MaxStep %d", s.MinStep, s.MaxStep)
	}
	if s.Factor < 0 || (s.Kind == KindNICDegrade && s.Factor != 0 && s.Factor < 1) {
		return fmt.Errorf("faults: degradation factor %g must be >= 1", s.Factor)
	}
	if s.At < 0 {
		return fmt.Errorf("faults: negative virtual-time trigger %v", s.At)
	}
	return nil
}

// Fault is one armed fault: a Spec with its seeded draws resolved against
// a concrete cluster shape.
type Fault struct {
	Spec
	// Ranks are the ranks the fault kills (crash kinds; nil for
	// nic-degrade). A node crash lists every rank of the node.
	Ranks []int
	// TriggerStep is the concrete step trigger (0 = virtual-time trigger
	// via Spec.At).
	TriggerStep uint64
}

// hits reports whether rank is among the fault's victims.
func (f *Fault) hits(rank int) bool {
	for _, r := range f.Ranks {
		if r == rank {
			return true
		}
	}
	return false
}

// Injector is a plan armed against one cluster shape. One Injector is
// shared by every leg of a recovery cycle (launch, restarts), so fired
// faults never refire; it is safe for concurrent use by all ranks.
type Injector struct {
	cfg simnet.Config

	mu     sync.Mutex
	faults []*Fault
	fired  []int // leg the fault fired in; -1 = still armed
	leg    int
}

// injectorSalt decorrelates the fault draw stream from the simnet jitter
// stream, which is seeded from the same repetition seed.
const injectorSalt = 0x6661756c74 // "fault"

// NewInjector resolves the plan's seeded draws against cfg. The same
// (plan, seed, cfg) always resolves to the same faults.
func NewInjector(plan Plan, seed int64, cfg simnet.Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ injectorSalt))
	in := &Injector{cfg: cfg}
	for i, s := range plan.Faults {
		if err := s.Validate(cfg); err != nil {
			return nil, fmt.Errorf("fault %d: %w", i, err)
		}
		f := &Fault{Spec: s}
		switch s.Kind {
		case KindRankCrash:
			r := s.Rank
			if r == Anywhere {
				r = rng.Intn(cfg.Size())
			}
			f.Ranks = []int{r}
		case KindNodeCrash:
			n := s.Node
			if n == Anywhere {
				n = rng.Intn(cfg.Nodes)
			}
			f.Node = n
			for r := n * cfg.RanksPerNode; r < (n+1)*cfg.RanksPerNode; r++ {
				f.Ranks = append(f.Ranks, r)
			}
		case KindNICDegrade:
			n := s.Node
			if n == Anywhere {
				n = rng.Intn(cfg.Nodes)
			}
			f.Node = n
			if f.Factor == 0 {
				f.Factor = 8
			}
		}
		if s.Kind != KindNICDegrade {
			f.TriggerStep = s.Step
			if f.TriggerStep == 0 && s.At == 0 {
				lo, hi := s.MinStep, s.MaxStep
				if lo == 0 {
					lo = 2
				}
				if hi == 0 {
					hi = 3
				}
				if hi < lo {
					hi = lo
				}
				f.TriggerStep = lo + uint64(rng.Int63n(int64(hi-lo+1)))
			}
		}
		in.faults = append(in.faults, f)
	}
	in.fired = make([]int, len(in.faults))
	for i := range in.fired {
		in.fired[i] = -1
	}
	return in, nil
}

// BeginLeg marks the start of a new job leg (launch or restart).
// Co-victims of a fired fault keep dying within the leg the fault fired
// in — a node crash takes its whole node down, whichever rank's step
// boundary noticed first — but a later leg sees the fault as spent: the
// failed hardware was replaced, and the recovered job replays the
// trigger step unharmed. internal/core calls this on every leg.
func (in *Injector) BeginLeg() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.leg++
}

// Faults returns the resolved faults (stable order: plan order).
func (in *Injector) Faults() []*Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]*Fault(nil), in.faults...)
}

// ArmNetwork installs the plan's NIC degradations into the cost model.
// Called once per leg: degradation is a property of the (simulated)
// hardware and persists across restarts of the job on it.
func (in *Injector) ArmNetwork(n *simnet.Network) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, f := range in.faults {
		if f.Kind == KindNICDegrade {
			n.DegradeNodeAfter(f.Node, f.Factor, simnet.Time(f.At))
		}
	}
}

// CrashAt reports whether rank must die before executing step (the
// rank's virtual clock reads now). The third result is true for exactly
// one call per fault — the rank that trips the trigger — so the caller
// tears the world down once; victims of an already-fired fault die
// silently on their own next check.
func (in *Injector) CrashAt(rank int, step uint64, now simnet.Time) (f *Fault, dead, first bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, f := range in.faults {
		if f.Kind == KindNICDegrade || !f.hits(rank) {
			continue
		}
		if in.fired[i] >= 0 {
			if in.fired[i] == in.leg {
				return f, true, false
			}
			continue // spent on an earlier leg; harmless now
		}
		trip := false
		switch {
		case f.TriggerStep > 0:
			trip = step >= f.TriggerStep
		case f.At > 0:
			trip = now >= simnet.Time(f.At)
		}
		if trip {
			in.fired[i] = in.leg
			return f, true, true
		}
	}
	return nil, false, false
}
