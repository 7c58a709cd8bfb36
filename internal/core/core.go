// Package core composes the paper's three-legged stool: an application
// compiled once against the standard ABI (leg 1), an MPI implementation
// selected at launch (leg 2), and a transparent checkpointing package
// selected independently (leg 3). A Stack names one choice for each leg;
// Launch runs an SPMD Program over it; Restart resumes a checkpoint image
// under a possibly different Stack — different MPI implementation included,
// provided the image was taken through the standard ABI.
//
// In the README's layer diagram core sits above the applications row,
// composing the whole column: it validates the stack legs (Sections
// 4-5), owns Launch/Checkpoint/Restart, and drives all three recovery
// modes — checkpoint/restart, ULFM shrink and warm-shadow failover —
// through one driver, RunWithRecovery; see docs/recovery.md for the
// side-by-side comparison.
package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/abi"
	"repro/internal/canon"
	"repro/internal/dmtcp"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/mana"
	"repro/internal/mpich"
	"repro/internal/mukautuva"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/wi4mpi"
)

// ErrCancelled is the stable error Wait returns for a job torn down by
// Cancel. Cancellation races every rank against the closing fabric, and
// which rank observes the close first is scheduling noise — surfacing
// that rank's error text would make timed-out scenario cells
// nondeterministic, so Wait collapses all of it to this sentinel.
var ErrCancelled = errors.New("core: job cancelled")

// RankFailure is the typed failure Wait returns when an injected fault
// kills ranks: the failure-detection analog of an MPI runtime noticing a
// dead process and aborting the job. It satisfies error with a stable,
// time-free message so reports stay diffable; drivers unpack it with
// errors.As to decide on recovery.
type RankFailure struct {
	// Kind is the fault class that fired.
	Kind faults.Kind
	// Ranks are the dead ranks, ascending.
	Ranks []int
	// Node is the dead node for node-scoped faults, -1 otherwise.
	Node int
	// Step is the program step the victims died before executing.
	Step uint64
	// Detected is the trigger rank's virtual clock at its fatal step
	// boundary — a function of the run alone, so it is as deterministic
	// as every other virtual-time metric (scanning other ranks' live
	// clocks instead would read mid-step values that depend on goroutine
	// interleaving). Per-rank clock skew can put it slightly before a
	// peer's checkpoint clock; consumers clamp windows at zero.
	Detected simnet.Time
}

// Error renders the failure without timestamps, so two runs at the same
// seed produce byte-identical failure text.
func (f *RankFailure) Error() string {
	if f.Node >= 0 {
		return fmt.Sprintf("core: node %d crashed (ranks %v) before step %d", f.Node, f.Ranks, f.Step)
	}
	return fmt.Sprintf("core: rank(s) %v crashed before step %d", f.Ranks, f.Step)
}

// Impl selects the MPI implementation (leg 2).
type Impl string

// Available implementations.
const (
	ImplMPICH   Impl = "mpich"
	ImplOpenMPI Impl = "openmpi"
	// ImplStdABI is the standard-ABI-native implementation: its native
	// handle model, constants and error codes ARE the standard ABI's
	// (internal/stdabi), so even its "native" binding is portable.
	ImplStdABI Impl = "stdabi"
)

// Impls lists the implementations a Stack may select: exactly
// Mukautuva's list of native bindings (every stack is built over one),
// sorted by name.
func Impls() []Impl {
	names := mukautuva.Implementations()
	out := make([]Impl, len(names))
	for i, name := range names {
		out[i] = Impl(name)
	}
	return out
}

// ABIMode selects how the application binds to the implementation.
type ABIMode string

// Binding modes.
const (
	// ABINative binds the application directly to the implementation's own
	// ABI ("compiled with its mpi.h") — fast, but welded to it.
	ABINative ABIMode = "native"
	// ABIMukautuva binds through the standard-ABI shim — portable.
	ABIMukautuva ABIMode = "mukautuva"
	// ABIWi4MPI binds as if compiled against MPICH's mpi.h, with Wi4MPI's
	// preload-mode translator converting calls to the stack's actual
	// implementation on the fly (Section 4.2.2 of the paper).
	ABIWi4MPI ABIMode = "wi4mpi"
)

// CkptMode selects the checkpointing package (leg 3).
type CkptMode string

// Checkpointing packages.
const (
	// CkptNone runs without a checkpointing package; Checkpoint is rejected.
	CkptNone CkptMode = "none"
	// CkptMANA loads the MANA wrapper (MPI-agnostic): images taken through
	// the standard ABI may restart under a different MPI implementation.
	CkptMANA CkptMode = "mana"
	// CkptDMTCP checkpoints with plain DMTCP, no MPI-aware plugin. The
	// image captures the whole process — the MPI library included — so it
	// can only restart under the identical implementation and binding,
	// which is the baseline limitation the paper's Section 3 motivates
	// MANA-over-the-standard-ABI against. Without MANA's drain protocol,
	// messages in flight across a safe point are NOT captured: plain DMTCP
	// is only safe for programs that complete all communication within
	// each step (both Figure 5 applications and the OSU benchmarks do).
	CkptDMTCP CkptMode = "dmtcp"
)

// Stack is one full configuration of the three-legged stool. Every
// layer it selects charges its package's per-call constant
// (mukautuva.PerCall, wi4mpi.PerCall, mana.VidCost), the MANA layer
// plus the FSGSBASE cost of Kernel, so a Stack literal and DefaultStack
// with the same fields build the same stack.
type Stack struct {
	Impl   Impl
	ABI    ABIMode
	Ckpt   CkptMode
	Kernel mana.KernelVersion // FSGSBASE model for the MANA layer
	Net    simnet.Config      // cluster shape and cost model

	// Progress is inert: there is one execution engine (fabric's event
	// scheduler). The field remains for callers that still set it; ""
	// and "event" are accepted and mean the same thing, anything else
	// fails Validate (see fabric.ProgressMode).
	Progress fabric.ProgressMode
}

// Validate reports configuration errors.
func (s Stack) Validate() error {
	if !slices.Contains(mukautuva.Implementations(), string(s.Impl)) {
		return fmt.Errorf("core: unknown implementation %q", s.Impl)
	}
	switch s.ABI {
	case ABINative, ABIMukautuva, ABIWi4MPI:
	default:
		return fmt.Errorf("core: unknown ABI mode %q", s.ABI)
	}
	switch s.Ckpt {
	case CkptNone, CkptMANA, CkptDMTCP:
	default:
		return fmt.Errorf("core: unknown checkpoint mode %q", s.Ckpt)
	}
	if err := s.Progress.Validate(); err != nil {
		return err
	}
	return s.Net.Validate()
}

// Label renders the stack the way the paper's figure legends do.
func (s Stack) Label() string {
	name, ok := map[Impl]string{ImplMPICH: "MPICH", ImplOpenMPI: "Open MPI", ImplStdABI: "StdABI"}[s.Impl]
	if !ok {
		name = string(s.Impl)
	}
	switch s.ABI {
	case ABIMukautuva:
		name += " + Mukautuva"
	case ABIWi4MPI:
		name += " + Wi4MPI"
	}
	switch s.Ckpt {
	case CkptMANA:
		if s.ABI == ABINative {
			return name + " + MANA(vid)"
		}
		return name + " + MANA"
	case CkptDMTCP:
		return name + " + DMTCP"
	}
	return name
}

// DefaultStack is the paper's testbed shape for the given configuration.
func DefaultStack(impl Impl, abiMode ABIMode, ckpt CkptMode) Stack {
	return Stack{
		Impl:   impl,
		ABI:    abiMode,
		Ckpt:   ckpt,
		Kernel: mana.KernelPre5_9,
		Net:    simnet.Discovery10GbE(),
	}
}

// Program is an SPMD application: one instance runs per rank. Programs are
// oblivious to checkpointing — they never call checkpoint APIs — which is
// the "transparent" in transparent checkpointing. The contract:
//
//   - Setup initializes rank-local state on a fresh launch (not on
//     restart);
//   - Step performs one unit of work; the runtime may checkpoint between
//     steps. All ranks execute the same number of steps, and every
//     nonblocking request is completed before Step returns;
//   - the concrete type's exported fields are the rank's "upper-half
//     memory": internal/canon encodes them into checkpoint images and
//     restart decodes them over an instance in its factory state (Go
//     cannot snapshot goroutine stacks; docs/recovery.md, "Checkpoint
//     image format");
//   - a program may also have a Reset() method, which lets a released
//     job's instance serve the next job of the same name (Job.Release).
//     Reset returns the instance to its factory state and keeps only
//     storage its Setup or a restore may reuse: canon decodes a raw slice
//     into the array it finds there. Such storage is the instance's own,
//     shared with nothing else. Reset passes it to Poison first. An
//     instance without Reset is never reused.
type Program interface {
	Setup(env *abi.Env) error
	Step(env *abi.Env) (done bool, err error)
}

// resetter is a Program that can be reused (see Program).
type resetter interface{ Reset() }

// maxFreePrograms bounds each program name's free list: enough for the
// ranks of a few concurrent matrix cells.
const maxFreePrograms = 64

// freePrograms holds reset program instances by program name, filed by
// Job.Release and taken by the next job before it calls the factory, the
// way dmtcp.Mem recycles image buffers. It is process-wide, so concurrent
// jobs share it.
var freePrograms = struct {
	sync.Mutex
	m map[string][]Program
}{m: make(map[string][]Program)}

// takePrograms fills the front of dst with free instances of name, under
// one lock, and reports how many it filled.
func takePrograms(name string, dst []Program) int {
	freePrograms.Lock()
	defer freePrograms.Unlock()
	free := freePrograms.m[name]
	k := min(len(dst), len(free))
	rest := len(free) - k
	copy(dst, free[rest:])
	clear(free[rest:])
	freePrograms.m[name] = free[:rest]
	return k
}

// recyclePrograms resets every instance of progs that has Reset and files
// it under name while the list has room; nil entries are skipped.
func recyclePrograms(name string, progs []Program) {
	for _, p := range progs {
		if r, ok := p.(resetter); ok {
			r.Reset()
		}
	}
	freePrograms.Lock()
	defer freePrograms.Unlock()
	free := freePrograms.m[name]
	for _, p := range progs {
		if _, ok := p.(resetter); ok && len(free) < maxFreePrograms {
			free = append(free, p)
		}
	}
	freePrograms.m[name] = free
}

// Poison overwrites the whole backing array of s with all-ones bytes,
// a NaN in every float64, in race builds, and does nothing otherwise. A
// program's Reset poisons the storage it keeps, so that a reader still
// holding a released job's state gets a wrong answer instead of the next
// job's numbers.
func Poison[E byte | uint64 | float64](s []E) {
	if !poisonOnRelease || cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	b := unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
	for i := range b {
		b[i] = 0xFF
	}
}

// programReg maps program names to factories so images can be decoded.
var programReg = struct {
	sync.RWMutex
	m map[string]func() Program
}{m: make(map[string]func() Program)}

// RegisterProgram installs a program factory under a stable name, which an
// image set's Meta records so restart can build the instance its images
// decode over. Call from package init.
func RegisterProgram(name string, factory func() Program) {
	programReg.Lock()
	defer programReg.Unlock()
	if _, dup := programReg.m[name]; dup {
		panic(fmt.Sprintf("core: duplicate program %q", name))
	}
	programReg.m[name] = factory
}

// Programs lists registered program names.
func Programs() []string {
	programReg.RLock()
	defer programReg.RUnlock()
	out := make([]string, 0, len(programReg.m))
	for name := range programReg.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func programFactory(name string) (func() Program, error) {
	programReg.RLock()
	defer programReg.RUnlock()
	f, ok := programReg.m[name]
	if !ok {
		return nil, fmt.Errorf("core: program %q not registered (have %v)", name, Programs())
	}
	return f, nil
}

// Job is a running (or finished) launch.
type Job struct {
	w     *fabric.World
	coord *dmtcp.Coordinator
	stack Stack
	name  string
	// images holds the job's checkpoints (WithImages); rset names the
	// set a restarted job resumes from.
	images dmtcp.ImageStore
	rset   string

	progs []Program
	inj   *faults.Injector // nil unless launched WithFaults

	// factory and configure rebuild a rank's program instance for ULFM
	// in-place recovery (survivors re-Setup on the shrunken world).
	factory   func() Program
	configure func(rank int, p Program)
	// mode decides what a crash does (see RecoveryMode): abort the job
	// for a restart leg, or kill only its victims while survivors shrink
	// (at most budget times per rank) or shadows are promoted.
	mode   RecoveryMode
	budget int

	wg        sync.WaitGroup
	live      atomic.Int32 // ranks still running; 0 resolves stray checkpoints
	cancelled atomic.Bool
	mu        sync.Mutex
	started   bool
	errs      []error
	// failedBeforeCancel distinguishes a genuine failure Cancel merely
	// followed from the error noise Cancel itself provokes.
	failedBeforeCancel bool
	// events records injected failures at kill time and, under shrink,
	// the recoveries that answered them (see recordFailure).
	events []RecoveryEvent
}

// buildTable assembles one rank's binding stack, returning the table the
// application binds to and the checkpoint plugin (the MANA wrapper, or the
// no-op plugin).
func buildTable(stack Stack, w *fabric.World, rank int) (abi.FuncTable, dmtcp.Plugin, *mana.Wrapper, error) {
	im, err := mukautuva.Native(string(stack.Impl))
	if err != nil {
		return nil, nil, nil, err
	}
	// The implementation's own binding, wrapped by the translator the
	// ABI mode names. below is the dialect table speaks, whose codes
	// classify the in-status errors MANA reads from it: the
	// implementation's own on a native binding, the standard ABI through
	// Mukautuva, MPICH's through Wi4MPI whatever runs underneath.
	lower, clock := im.Init(w, rank), w.Endpoint(rank).Clock()
	var table abi.FuncTable = lower
	below := im.Dialect
	switch stack.ABI {
	case ABIMukautuva:
		table, below = mukautuva.New(lower, below, clock), abi.Std
	case ABIWi4MPI:
		table, below = wi4mpi.New(lower, below, clock), mpich.Dialect
	}
	if stack.Ckpt != CkptMANA {
		return table, dmtcp.NopPlugin{}, nil, nil
	}
	wrapper := mana.NewWrapper(table, below, w, rank, stack.Kernel)
	return wrapper, wrapper, wrapper, nil
}

// LaunchOption tweaks a launch.
type LaunchOption func(*launchOpts)

type launchOpts struct {
	configure func(rank int, p Program)
	hold      bool
	inj       *faults.Injector
	periodic  dmtcp.Periodic
	mode      RecoveryMode
	budget    int
	sink      *trace.Sink
	images    dmtcp.ImageStore
}

// collectOpts applies opts over the defaults: images go to directories.
func collectOpts(opts []LaunchOption) launchOpts {
	lo := launchOpts{images: dmtcp.Dir("")}
	for _, o := range opts {
		o(&lo)
	}
	return lo
}

// WithConfigure runs fn on each rank's fresh program instance before the
// job starts, the launch-parameter analog of command-line flags. Restart
// does not re-run it: parameters live in the serialized state.
func WithConfigure(fn func(rank int, p Program)) LaunchOption {
	return func(o *launchOpts) { o.configure = fn }
}

// WithHold builds the job without starting the rank fibers; the caller
// releases them with Job.Start. Holding a job lets a driver register a
// checkpoint request before any rank has taken a step, pinning the
// checkpoint to the first safe point — the scenario engine uses this to
// make checkpoint/restart runs deterministic instead of racing a wall-clock
// sleep window.
func WithHold() LaunchOption {
	return func(o *launchOpts) { o.hold = true }
}

// WithFaults arms a fault injector on the job: NIC degradations are
// installed into the network cost model at launch, and crash faults are
// consulted at every rank's step boundaries. When a crash fires, the
// victims die, the job tears down, and Wait returns a *RankFailure —
// unless RunWithRecovery runs the leg in an in-place mode. The
// same injector may be passed to Restart legs; fired faults do not
// refire, so a recovered job replays the trigger step unharmed. The
// injector must have been armed against the stack's cluster shape.
func WithFaults(inj *faults.Injector) LaunchOption {
	return func(o *launchOpts) { o.inj = inj }
}

// WithPeriodicCheckpoint checkpoints the job every `every` steps into
// step-numbered image sets under root (dmtcp.PeriodicDir), building the
// image lineage automated recovery restarts from. It requires a
// checkpointing package in the stack and composes with Restart, so
// recovery legs keep extending the lineage.
func WithPeriodicCheckpoint(root string, every uint64) LaunchOption {
	return func(o *launchOpts) { o.periodic = dmtcp.Periodic{Root: root, Every: every} }
}

// WithImages names the store the job's checkpoints land in and a Restart
// leg's image set is read from. Without it image sets are directories
// (dmtcp.Dir): set names are paths. A dmtcp.Mem keeps them in memory, so
// nothing on disk can change what a job restores. Pass the same store to
// every leg of one lineage.
func WithImages(s dmtcp.ImageStore) LaunchOption {
	return func(o *launchOpts) { o.images = s }
}

// WithTrace attaches a virtual-time trace sink to the launch: the leg
// gets one per-rank track set in the sink and the whole stack's
// instrumentation lights up (see internal/trace). A nil sink is the
// disabled state and costs a pointer compare per emission site. Pass
// the same sink to Restart legs so one recovery cycle exports as one
// multi-process trace.
func WithTrace(sink *trace.Sink) LaunchOption {
	return func(o *launchOpts) { o.sink = sink }
}

// Launch starts progName (a registered Program) on a fresh world under the
// given stack. It returns immediately; use Wait, or Checkpoint while
// running.
func Launch(stack Stack, progName string, opts ...LaunchOption) (*Job, error) {
	lo := collectOpts(opts)
	if err := stack.Validate(); err != nil {
		return nil, err
	}
	factory, err := programFactory(progName)
	if err != nil {
		return nil, err
	}
	var w *fabric.World
	if lo.mode == RecoveryReplicate {
		// stack.Net names the LOGICAL cluster; the replicated world adds
		// a disjoint set of nodes carrying one shadow per logical rank.
		w, err = fabric.NewReplicatedWorld(stack.Net)
	} else {
		w, err = fabric.NewWorld(stack.Net)
	}
	if err != nil {
		return nil, err
	}
	job, err := newJob(w, stack, progName, "launch", "", factory, lo.configure, lo)
	if err != nil {
		return nil, err
	}
	if lo.hold {
		return job, nil
	}
	job.Start()
	return job, nil
}

// newJob builds a leg's job over a fresh world: one program instance per
// rank, from the free list or else from factory, each passed through
// configure when it is set, and the options launch and restart legs share
// (fault injection, periodic checkpointing, recovery mode). leg names the job in the trace; set is
// the image set a restart leg resumes from.
func newJob(w *fabric.World, stack Stack, progName, leg, set string, factory func() Program,
	configure func(rank int, p Program), lo launchOpts) (*Job, error) {
	n := w.Size()
	job := &Job{
		w:      w,
		stack:  stack,
		name:   progName,
		images: lo.images,
		rset:   set,
		progs:  make([]Program, n),
		coord: dmtcp.NewCoordinator(w, dmtcp.Meta{
			Impl:        string(stack.Impl),
			ABI:         string(stack.ABI),
			Ckpt:        string(stack.Ckpt),
			StandardABI: stack.ABI != ABINative,
			Program:     progName,
			NetSeed:     stack.Net.Seed,
		}, lo.images),
		factory:   factory,
		configure: configure,
	}
	// The leg must exist before Start spawns the rank fibers:
	// SetTrace writes the per-endpoint track pointers unsynchronized.
	w.SetTrace(lo.sink.NewLeg(leg+" "+progName, n))
	for r := takePrograms(progName, job.progs); r < n; r++ {
		job.progs[r] = factory()
	}
	for r, p := range job.progs {
		if configure != nil {
			// On a replicated world both replicas of a logical rank get
			// the identical configuration — the replicas must execute the
			// same deterministic program (r%LogicalSize == r otherwise).
			configure(r%w.LogicalSize(), p)
		}
	}
	if lo.periodic.Every > 0 {
		if stack.Ckpt == CkptNone {
			return nil, fmt.Errorf("core: periodic checkpointing requires a checkpointing package in the stack")
		}
		job.coord.SetPeriodic(lo.periodic)
	}
	job.mode, job.budget = lo.mode, lo.budget
	if lo.inj != nil {
		job.inj = lo.inj
		lo.inj.BeginLeg()
		lo.inj.ArmNetwork(w.Network())
	}
	return job, nil
}

// Start releases a job built with WithHold. It is a no-op on jobs that are
// already running.
func (j *Job) Start() {
	j.mu.Lock()
	if j.started {
		j.mu.Unlock()
		return
	}
	j.started = true
	j.mu.Unlock()
	j.live.Store(int32(len(j.progs)))
	j.wg.Add(len(j.progs))
	// SpawnAll, not `go`: the ranks must run as scheduler fibers so the
	// fabric's blocking primitives can park them
	// — and all of them must be queued before rank 0 first runs, or the
	// run order (and with it every virtual time) would depend on how fast
	// this goroutine spawns against how fast rank 0 binds its stack.
	j.w.SpawnAll(func(r int) { j.runRank(r, j.rset != "") })
}

// runRank executes one rank's lifecycle: bind, setup (or resume), step
// loop with safe points.
func (j *Job) runRank(rank int, resumed bool) {
	defer j.wg.Done()
	// When the last rank exits, fail any still-pending checkpoint request:
	// a caller blocked in Checkpoint must not hang on a job that finished
	// before the request reached a safe point (and no new safe points are
	// coming). The abort also closes the coordinator, so requests arriving
	// after this point are rejected immediately.
	defer func() {
		if j.live.Add(-1) == 0 {
			j.coord.AbortPending(fmt.Errorf("core: job finished before the checkpoint request reached a safe point"))
		}
	}()
	fail := func(err error) {
		// A dead rank's errors are noise, not signal: an in-place crash
		// closes the victim's mailbox, so a co-victim blocked mid-step
		// trips over it and "fails" — but it is a corpse, and fail-stop
		// semantics say corpses don't get to fail the job.
		if !j.w.Alive(rank) && !j.cancelled.Load() {
			return
		}
		j.mu.Lock()
		j.errs = append(j.errs, fmt.Errorf("rank %d: %w", rank, err))
		j.mu.Unlock()
		j.w.Endpoint(rank).CloseWorld() // release peers blocked in the fabric
	}
	// A panicking program (or binding layer) fails its own job, not the
	// process: the scenario engine runs many stacks concurrently and one
	// broken stack must not sink its siblings.
	defer func() {
		if r := recover(); r != nil {
			fail(fmt.Errorf("panic: %v", r))
		}
	}()
	table, plugin, wrapper, err := buildTable(j.stack, j.w, rank)
	if err != nil {
		fail(err)
		return
	}
	agent := j.coord.NewAgent(rank)
	prog := j.progs[rank]
	if resumed {
		img, err := dmtcp.ReadRank(j.images, j.rset, rank)
		if err != nil {
			fail(err)
			return
		}
		// Restart's RestartCompat check refuses a stack with no
		// checkpointer. Plain DMTCP restores the whole process image
		// wholesale: in the reproduction that is the program-state decode
		// below, with no MPI-aware plugin state to rebuild.
		if wrapper != nil {
			if err := wrapper.Restore(img.PluginBlob); err != nil {
				fail(err)
				return
			}
		}
		if err := canon.Decode(img.ProgState, prog); err != nil {
			fail(fmt.Errorf("core: decoding program state: %w", err))
			return
		}
		j.w.Endpoint(rank).Clock().Set(simnet.Time(img.Clock))
		agent.SetStep(img.Step)
		if tr := j.w.Endpoint(rank).Trace(); tr != nil {
			tr.Instant(trace.CatCkpt, "restore", simnet.Time(img.Clock),
				trace.Arg{Key: "step", Val: trace.Itoa(int(img.Step))})
		}
	}
	env, err := abi.NewEnv(table, j.w.Endpoint(rank).Clock())
	if err != nil {
		fail(err)
		return
	}
	if !resumed {
		var t0 simnet.Time
		tr := j.w.Endpoint(rank).Trace()
		if tr != nil {
			t0 = j.w.Endpoint(rank).Clock().Now()
		}
		if err := prog.Setup(env); err != nil {
			fail(fmt.Errorf("setup: %w", err))
			return
		}
		if tr != nil {
			tr.Span(trace.CatCkpt, "setup", t0, j.w.Endpoint(rank).Clock().Now())
		}
	}
	shrinks := 0
	// Captures prog by reference: shrink recovery rebinds it.
	serialize := func(w io.Writer) error { return canon.Encode(w, prog) }
	for {
		if j.inj != nil {
			// The rank is about to execute step agent.Step()+1; a crash
			// fault triggered here models fail-stop death between safe
			// points. The trigger rank records the failure, which under
			// restart mode tears the world down and under the in-place
			// modes kills only the victims and broadcasts the failure
			// notice. Co-victims of an already-fired fault just die.
			// On a replicated job the injector was armed against the
			// LOGICAL cluster shape, so resolved victims are always
			// primaries — a shadow's physical rank is past the logical
			// range and never matches.
			if f, dead, first := j.inj.CrashAt(rank, agent.Step()+1, j.w.Endpoint(rank).Clock().Now()); dead {
				if first {
					j.recordFailure(rank, f, agent.Step()+1, j.w.Endpoint(rank).Clock().Now())
				}
				return
			}
		}
		done, err := prog.Step(env)
		if err != nil {
			// ULFM in-place recovery: a survivor whose step tripped over
			// the failure (proc-failed) or its aftermath (revoked) does
			// not fail the job — it revokes, shrinks, and continues on
			// the survivors-only communicator.
			if j.mode == RecoveryShrink && j.w.Alive(rank) && ulfmRecoverable(err) {
				if shrinks >= j.budget {
					fail(fmt.Errorf("shrink budget exhausted after %d recoveries: %w", shrinks, err))
					return
				}
				prog, err = j.shrinkRecover(rank, env)
				if err != nil {
					fail(err)
					return
				}
				shrinks++
				continue
			}
			fail(fmt.Errorf("step %d: %w", agent.Step(), err))
			return
		}
		if j.mode != RecoveryRestart {
			// In-place-recovery jobs are checkpoint-free by construction,
			// and the safe-point vote is a barrier over ALL ranks — the
			// dead included, who will never vote again. Keep the step
			// count (the injector's trigger clock) without the barrier.
			agent.SetStep(agent.Step() + 1)
			if done {
				return
			}
			continue
		}
		decision, err := agent.SafePoint(serialize, plugin)
		if err != nil {
			fail(fmt.Errorf("safe point: %w", err))
			return
		}
		if decision != dmtcp.DecisionContinue {
			if tr := j.w.Endpoint(rank).Trace(); tr != nil {
				tr.Instant(trace.CatCkpt, "checkpoint", j.w.Endpoint(rank).Clock().Now(),
					trace.Arg{Key: "step", Val: trace.Itoa(int(agent.Step()))})
			}
		}
		if decision == dmtcp.DecisionExit || done {
			return
		}
	}
}

// newRankFailure renders an armed fault into the typed failure record —
// the one place every recovery mode's failures are made, so the modes can
// never disagree on what a failure is or when it was detected.
func newRankFailure(f *faults.Fault, step uint64, now simnet.Time) *RankFailure {
	node := -1
	if f.Kind == faults.KindNodeCrash {
		node = f.Node
	}
	ranks := append([]int(nil), f.Ranks...)
	sort.Ints(ranks)
	return &RankFailure{Kind: f.Kind, Ranks: ranks, Node: node, Step: step, Detected: now}
}

// Checkpoint requests a coordinated checkpoint into the image set named
// set (a directory unless the job was launched WithImages) at the job's
// next safe point and blocks until it completes. With exit=true the job
// stops after the images are written. A held job has no safe points yet, so
// blocking on it would deadlock; use CheckpointAsync before Start instead.
func (j *Job) Checkpoint(set string, exit bool) error {
	if !j.isStarted() {
		return fmt.Errorf("core: job is held; register with CheckpointAsync before Start")
	}
	return <-j.CheckpointAsync(set, exit)
}

func (j *Job) isStarted() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started
}

// CheckpointAsync registers the checkpoint request and returns a channel
// that yields one error (nil on success) when it completes. Combined with
// WithHold it pins the checkpoint to the job's first safe point.
func (j *Job) CheckpointAsync(set string, exit bool) <-chan error {
	if j.stack.Ckpt == CkptNone {
		errs := make(chan error, 1)
		errs <- fmt.Errorf("core: stack %s has no checkpointing package", j.stack.Label())
		return errs
	}
	return j.coord.RequestCheckpoint(set, exit)
}

// Cancel aborts a running job: the fabric closes, every rank unblocks and
// fails, and Wait returns ErrCancelled. It is safe to call concurrently
// with Wait and is idempotent; the scenario engine uses it to enforce
// per-scenario timeouts without leaking rank fibers.
func (j *Job) Cancel() {
	j.mu.Lock()
	if len(j.errs) > 0 && !j.cancelled.Load() {
		j.failedBeforeCancel = true
	}
	j.mu.Unlock()
	j.cancelled.Store(true)
	j.w.Close()
}

// Wait joins all ranks and returns the job's outcome: nil on success, a
// *RankFailure when an injected fault killed ranks, ErrCancelled after
// Cancel, otherwise the first rank error. Failure detection outranks the
// rank errors because every error a closing world provokes is downstream
// noise of the one event that closed it; which rank tripped over the
// closed fabric first is scheduling order, not signal. Waiting on a held
// job that was never started is an error, not a silent success.
func (j *Job) Wait() error {
	if !j.isStarted() {
		return fmt.Errorf("core: held job was never started")
	}
	j.wg.Wait()
	// The last exiting rank has already aborted any pending checkpoint
	// request and closed the coordinator (see runRank); only the fabric
	// teardown is left.
	j.w.Close()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.mode == RecoveryRestart && len(j.events) > 0 {
		return j.events[0].Failure // fatal: the one crash that closed the world
	}
	if j.failedBeforeCancel {
		return j.errs[0] // the genuine failure Cancel merely followed
	}
	// Cancellation only counts if it actually interrupted a rank: a job
	// whose ranks all returned cleanly (no errors) completed right at
	// the bound, and a finished run is not a timeout.
	if j.cancelled.Load() && len(j.errs) > 0 {
		return ErrCancelled
	}
	if len(j.errs) > 0 {
		return j.errs[0]
	}
	return nil
}

// Program returns rank r's program instance (stable after Wait; nil after
// Release).
func (j *Job) Program(r int) Program { return j.progs[r] }

// Release hands the job's program instances to later jobs of the same
// program (see Program's Reset); Program and LogicalProgram return nil
// from then on. Call it after Wait, once nothing reads the job's programs
// or anything taken from them. Releasing twice is harmless.
func (j *Job) Release() {
	recyclePrograms(j.name, j.progs)
	clear(j.progs)
}

// Clock returns rank r's virtual clock reading.
func (j *Job) Clock(r int) simnet.Time { return j.w.Endpoint(r).Clock().Now() }

// TraceLeg returns the job's trace leg (nil when launched without
// WithTrace); recovery drivers use its driver track for out-of-rank
// events.
func (j *Job) TraceLeg() *trace.Leg { return j.w.TraceLeg() }

// traceFailure records an injected failure on the leg's driver track —
// shared by all three recovery modes so a traced cell always shows the
// kill as an instant at the detection clock.
func (j *Job) traceFailure(name string, f *RankFailure) {
	j.w.TraceLeg().Driver(trace.CatCkpt, name, f.Detected,
		trace.Arg{Key: "ranks", Val: fmt.Sprint(f.Ranks)},
		trace.Arg{Key: "step", Val: trace.Itoa(int(f.Step))})
}

// RestartCompat is the one restart rule: it reports why an image with the
// given lineage — the MPI implementation, binding mode and checkpointer it
// was taken under, and whether that binding went through the standard
// ABI — cannot be resumed under stack. Restart reads the lineage from the
// image meta; the recovery driver and scenario.Spec.Validate know it up
// front from the launch stack, so an invalid pairing is refused before
// any fault fires, and enumeration excludes exactly the stacks Restart
// would reject.
func RestartCompat(imgImpl, imgABI, imgCkpt string, standardABI bool, stack Stack) error {
	if stack.Ckpt == CkptNone {
		return fmt.Errorf("core: restart requires a checkpointing package in the stack")
	}
	if string(stack.Ckpt) != imgCkpt {
		return fmt.Errorf("core: image was written by %s; the restart stack loads %s",
			imgCkpt, stack.Ckpt)
	}
	if stack.Ckpt == CkptDMTCP {
		// A plain DMTCP image embeds the MPI library it ran over; only the
		// identical stack can resume it (Section 3's baseline limitation).
		if string(stack.Impl) != imgImpl || (imgABI != "" && string(stack.ABI) != imgABI) {
			return fmt.Errorf(
				"core: plain DMTCP image taken under %s/%s restores the whole process, "+
					"MPI library included; it cannot restart under %s/%s — "+
					"use the MANA stack over the standard ABI for cross-implementation restart",
				imgImpl, imgABI, stack.Impl, stack.ABI)
		}
		return nil
	}
	if !standardABI {
		if stack.ABI != ABINative || string(stack.Impl) != imgImpl {
			return fmt.Errorf(
				"core: image was taken under %s with a native (non-standard) ABI; "+
					"it can only restart under the same implementation "+
					"(requested %s/%s) — use the Mukautuva stack for cross-implementation restart",
				imgImpl, stack.Impl, stack.ABI)
		}
		return nil
	}
	if stack.ABI == ABINative {
		return fmt.Errorf("core: standard-ABI image requires a translation stack (Mukautuva or Wi4MPI) to restart")
	}
	return nil
}

// Restart resumes the checkpoint image set named set — a directory, or a
// set in the store given WithImages — under a new stack. The stack may
// name a different MPI implementation than the one the image was taken
// under only when the image was taken by MANA through the standard ABI
// (ABIMukautuva or ABIWi4MPI) — restarting a native-ABI or plain-DMTCP
// image under another implementation is exactly the incompatibility the
// paper's three-legged stool removes, and is rejected here.
//
// A zero stack.Net.Seed resumes the image's recorded jitter stream
// (meta.NetSeed), so an unset seed reproduces the checkpointed
// environment instead of silently running a different one; the new
// job's meta records the seed actually used. Options apply as on Launch,
// except WithConfigure and WithHold: launch parameters live in the
// serialized program state, and restart jobs start immediately.
func Restart(set string, stack Stack, opts ...LaunchOption) (*Job, error) {
	lo := collectOpts(opts)
	if err := stack.Validate(); err != nil {
		return nil, err
	}
	meta, err := lo.images.Meta(set)
	if err != nil {
		return nil, err
	}
	if err := RestartCompat(meta.Impl, meta.ABI, meta.Ckpt, meta.StandardABI, stack); err != nil {
		return nil, err
	}
	if stack.Net.Size() != meta.NumRanks {
		return nil, fmt.Errorf("core: stack has %d ranks, image has %d", stack.Net.Size(), meta.NumRanks)
	}
	if stack.Net.Seed == 0 {
		stack.Net.Seed = meta.NetSeed
	}
	factory, err := programFactory(meta.Program)
	if err != nil {
		return nil, err
	}
	w, err := fabric.NewWorld(stack.Net)
	if err != nil {
		return nil, err
	}
	job, err := newJob(w, stack, meta.Program, "restart", set, factory, nil, lo)
	if err != nil {
		return nil, err
	}
	job.Start()
	return job, nil
}
