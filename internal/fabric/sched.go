//go:build go1.23

package fabric

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sync"
)

// ProgressMode is a vestige: there is one execution engine, the event
// scheduler below, and nothing selects another. The type, ProgressEvent
// and NewWorldMode remain only because callers outside this module's
// control still spell them; "" and "event" both mean the one engine.
type ProgressMode string

// ProgressEvent names the one engine (as does the empty string).
const ProgressEvent ProgressMode = "event"

// Validate accepts "" and "event". "goroutine" named the
// goroutine-per-rank engine, which no longer exists; asking for it is an
// error rather than a silent substitution.
func (m ProgressMode) Validate() error {
	switch m {
	case "", ProgressEvent:
		return nil
	case "goroutine":
		return fmt.Errorf("fabric: progress mode %q was removed: every world runs on the event scheduler (leave the mode empty)", m)
	}
	return fmt.Errorf("fabric: unknown progress mode %q", m)
}

// fiberState is one rank fiber's scheduling state.
type fiberState uint8

const (
	fiberIdle     fiberState = iota // not spawned yet
	fiberRunnable                   // queued for the token
	fiberRunning                    // holds the token
	fiberBlocked                    // parked, waiting for a wake
	fiberDone                       // exited
)

// sched is the rank scheduler, the execution engine of every world: a
// single execution token multiplexed over rank fibers. A fiber is a
// coroutine (iter.Pull over the rank's body, with park as its yield), and
// one carrier goroutine per world runs them: it pops the oldest runnable
// rank, resumes it, and gets control back when the rank parks or returns.
// Blocking on the fabric (an empty mailbox, an incomplete OOB exchange)
// parks the rank's fiber — a direct switch back to the carrier — and
// message delivery marks the destination runnable instead of waking an OS
// thread. A handoff is therefore two direct coroutine switches on one
// thread — no channel send, no Go scheduler wakeup — mailbox locks are
// never contended, and the cost of a handoff does not grow with the rank
// count or with the number of idle Ps; one world uses one core, and
// parallelism comes from worlds running side by side.
//
// Rank execution is serialized and deterministic: the runnable queue is
// FIFO, and every state transition is driven by an explicit event (a
// mailbox push, an exchange completion, a close). A run is bit-for-bit
// reproducible, virtual times included, when its ranks are started with
// SpawnAll: SpawnAll queues every fiber (rank order) before the first
// runs, and from then on only the token holder enqueues — so the whole run
// order is a function of the program, not of host timing. (Fibers started
// one by one with Spawn race the caller's spawn loop against the first
// rank's execution, and wakes from goroutines that are not fibers land
// wherever host timing puts them.)
//
// The carrier is the one place that decides who runs next (popLocked), and
// it lives only while there is something to run. When the run queue drains
// it returns, and the next spawn or wake that queues a fiber starts a
// fresh one — from the token holder that never happens (its carrier is
// alive by construction), so only a wake from a goroutine that is not a
// fiber (world Close, Kill/NotifyFailure, a coordinator) pays for a
// goroutine start.
//
// Lock ordering: data-structure locks (mailbox.mu, OOB.mu) may be held
// while calling wake/wakeAll — sched.mu is a leaf lock. park must be
// called WITHOUT any data lock held (the parked fiber would otherwise
// deadlock the successor the carrier resumes); blocking sites
// therefore re-check their condition in a loop around park, and the
// pending bit makes the unlock→park window race-free: a wake that
// arrives while its target still runs is remembered and consumed by the
// next park, which returns immediately instead of yielding.
type sched struct {
	mu       sync.Mutex
	state    []fiberState
	pending  []bool                    // wake arrived while fiber was running
	resume   []func() (struct{}, bool) // per-fiber coroutine entry, called by the carrier only
	yield    []func(struct{}) bool     // per-fiber switch back to the carrier, set on first resume
	running  int                       // fiber holding the token, or -1
	carrying bool                      // a carrier goroutine is alive

	// runq is the FIFO of runnable fibers: a ring of n slots, which never
	// overflows because a fiber is queued at most once (only the
	// idle→runnable and blocked→runnable transitions enqueue).
	runq  []int
	head  int // index of the oldest queued fiber
	count int // queued fibers

	// pick, when set, perturbs the run order for tests (see
	// World.SetPickForTest); production worlds leave it nil.
	pick func(queued int) int
}

func newSched(n int) *sched {
	return &sched{
		state:   make([]fiberState, n),
		pending: make([]bool, n),
		resume:  make([]func() (struct{}, bool), n),
		yield:   make([]func(struct{}) bool, n),
		runq:    make([]int, n),
		running: -1,
	}
}

// spawn registers rank's fiber. fn does not run until the carrier
// resumes it, and the token is released when fn returns — or panics: the
// deferred exit keeps one crashing fiber from wedging the whole world.
func (s *sched) spawn(rank int, fn func()) {
	s.mu.Lock()
	s.enqueueIdleLocked(rank, fn)
	s.carryLocked()
	s.mu.Unlock()
}

// spawnAll registers every rank's fiber, queued in rank order, before the
// first one runs: the initial run-queue order cannot depend on how fast
// the caller spawns against how fast rank 0 runs.
func (s *sched) spawnAll(fn func(rank int)) {
	s.mu.Lock()
	for rank := range s.state {
		rank := rank
		s.enqueueIdleLocked(rank, func() { fn(rank) })
	}
	s.carryLocked()
	s.mu.Unlock()
}

// enqueueIdleLocked turns a not-yet-spawned rank into a coroutine on the
// run queue. Called with s.mu held (released only to panic on a double
// spawn).
func (s *sched) enqueueIdleLocked(rank int, fn func()) {
	if s.state[rank] != fiberIdle {
		s.mu.Unlock()
		panic(fmt.Sprintf("fabric: rank %d spawned twice", rank))
	}
	s.resume[rank], _ = iter.Pull(func(yield func(struct{}) bool) {
		s.yield[rank] = yield
		defer s.exit(rank)
		fn()
	})
	s.state[rank] = fiberRunnable
	s.pushLocked(rank)
}

// exit releases the token when a fiber returns. iter.Pull re-raises a
// fiber's panic on the carrier, where the fiber's own stack is gone, so
// the value re-raised names the rank and carries that stack.
func (s *sched) exit(rank int) {
	s.mu.Lock()
	s.state[rank] = fiberDone
	s.pending[rank] = false
	if s.running == rank {
		s.running = -1
	}
	s.mu.Unlock()
	if p := recover(); p != nil {
		panic(fmt.Sprintf("fabric: rank %d's fiber panicked: %v\n\n%s", rank, p, debug.Stack()))
	}
}

// carryLocked makes sure queued fibers have a carrier. Called with s.mu
// held by everything that queues a fiber.
func (s *sched) carryLocked() {
	if !s.carrying && s.count > 0 {
		s.carrying = true
		go s.carry()
	}
}

// carry is the carrier: it resumes the fiber popLocked picks until there
// is none left to run.
func (s *sched) carry() {
	// The carrier leaves when the run queue drains — or when a fiber calls
	// runtime.Goexit (t.Fatal does), which iter.Pull propagates to whoever
	// resumed the coroutine. Either way the fiber's own exit has already
	// released the token; whatever is queued by then gets a fresh carrier.
	defer func() {
		s.mu.Lock()
		s.carrying = false
		s.carryLocked()
		s.mu.Unlock()
	}()
	for {
		s.mu.Lock()
		r := s.popLocked()
		if r < 0 {
			s.mu.Unlock()
			return
		}
		s.state[r] = fiberRunning
		s.running = r
		s.mu.Unlock()
		s.resume[r]()
	}
}

// park releases the token and yields to the carrier until the fiber is
// woken AND resumed again. A wake that arrived while the fiber was still
// running (the pending bit) makes park return immediately: the caller's
// condition may already hold, and the loop around park re-checks it.
// Only the fiber currently holding the token may park.
func (s *sched) park(rank int) {
	s.mu.Lock()
	if s.state[rank] != fiberRunning {
		s.mu.Unlock()
		panic(fmt.Sprintf("fabric: park by rank %d which does not hold the token (state %d); "+
			"ranks must be started with World.Spawn or SpawnAll", rank, s.state[rank]))
	}
	if s.pending[rank] {
		s.pending[rank] = false
		s.mu.Unlock()
		return
	}
	s.state[rank] = fiberBlocked
	s.running = -1
	s.mu.Unlock()
	s.yield[rank](struct{}{})
}

// wake marks rank runnable after an event (mailbox push, exchange
// completion, close). Safe to call from fibers and external goroutines
// alike, with data locks held. Waking a running fiber sets its pending
// bit; waking a runnable, done or unspawned fiber is a no-op (an
// unspawned fiber finds the event's effect before its first park).
func (s *sched) wake(rank int) {
	s.mu.Lock()
	switch s.state[rank] {
	case fiberBlocked:
		s.state[rank] = fiberRunnable
		s.pushLocked(rank)
		s.carryLocked()
	case fiberRunning:
		s.pending[rank] = true
	}
	s.mu.Unlock()
}

// wakeAll wakes every blocked fiber — the broadcast analog, used by
// barrier-style completions (OOB exchange) and world teardown.
func (s *sched) wakeAll() {
	s.mu.Lock()
	for r, st := range s.state {
		switch st {
		case fiberBlocked:
			s.state[r] = fiberRunnable
			s.pushLocked(r)
		case fiberRunning:
			s.pending[r] = true
		}
	}
	s.carryLocked()
	s.mu.Unlock()
}

// pushLocked appends rank to the run queue. Called with s.mu held.
func (s *sched) pushLocked(rank int) {
	s.runq[(s.head+s.count)%len(s.runq)] = rank
	s.count++
}

// popLocked takes the next fiber to run off the run queue, or returns -1
// if none is runnable. Called with s.mu held, by the carrier only: this
// function is the scheduling policy, whole — the oldest runnable fiber.
func (s *sched) popLocked() int {
	if s.count == 0 {
		return -1
	}
	if s.pick != nil {
		// Test-only: move the picked fiber to the head of the queue; the
		// ones it overtakes keep their order.
		n := len(s.runq)
		k := s.pick(s.count)
		picked := s.runq[(s.head+k)%n]
		for ; k > 0; k-- {
			s.runq[(s.head+k)%n] = s.runq[(s.head+k-1)%n]
		}
		s.runq[s.head] = picked
	}
	r := s.runq[s.head]
	s.head = (s.head + 1) % len(s.runq)
	s.count--
	return r
}

// SetPickForTest replaces "oldest runnable fiber" with "the pick(queued)-th
// oldest of the queued runnable fibers" (pick must return a value in
// [0, queued)), so a test can run a workload under many legal schedules and
// hold its results to the FIFO run's. It must be called before any rank is
// spawned. Only _test.go files call it: no Stack field, flag or environment
// variable reaches it, and the production policy stays the FIFO above.
func (w *World) SetPickForTest(pick func(queued int) int) {
	w.sched.mu.Lock()
	w.sched.pick = pick
	w.sched.mu.Unlock()
}

// Spawn starts fn as rank r's execution context, a scheduler fiber. Every
// goroutine that drives a rank's endpoint MUST be started through Spawn or
// SpawnAll — the blocking fabric primitives park the calling fiber, and an
// unregistered goroutine cannot park.
func (w *World) Spawn(r int, fn func()) { w.sched.spawn(r, fn) }

// SpawnAll starts fn(r) as the execution context of every rank r of the
// world — Spawn for all ranks at once. Every fiber is queued, in rank
// order, before the first is dispatched, which is what makes a launch's
// run order independent of host timing (see sched); launchers use it in
// place of a Spawn loop.
func (w *World) SpawnAll(fn func(r int)) { w.sched.spawnAll(fn) }
