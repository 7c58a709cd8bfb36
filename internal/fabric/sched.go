package fabric

import (
	"fmt"
	"sync"
)

// ProgressMode selects how a world executes its ranks.
//
// The default, ProgressGoroutine, is one OS-scheduled goroutine per rank
// with blocking mailbox hops: faithful, fully parallel, and fine up to a
// few hundred ranks — but at thousands of ranks the per-message
// condition-variable wakeups, mutex contention and scheduler thrash make
// collective benches allocation- and wakeup-bound.
//
// ProgressEvent multiplexes every rank over a single execution token: an
// event-driven cooperative scheduler. Exactly one rank runs at a time;
// blocking on the fabric (an empty mailbox, an incomplete OOB exchange)
// parks the rank's fiber and hands the token to the next runnable one,
// and message delivery marks the destination runnable instead of waking
// an OS thread. Mailbox locks are never contended and wakeups are queue
// appends. An event-mode run is bit-for-bit reproducible, virtual times
// included, when its ranks are started with SpawnAll: the run queue is a
// FIFO, SpawnAll queues every fiber (rank order) before the first
// dispatch, and from then on only the token holder enqueues — so the
// whole run order is a function of the program, not of host timing.
// (Fibers started one by one with Spawn race the caller's spawn loop
// against the first rank's execution, and wakes from goroutines that are
// not fibers land wherever host timing puts them.)
// This is what makes a 4096-rank allreduce feasible on a laptop.
//
// The two modes execute identical runtime semantics over identical wire
// protocols; the differential suite in internal/mpicore holds them to
// bit-identical results.
type ProgressMode string

// Progress modes.
const (
	// ProgressGoroutine is goroutine-per-rank (the default; "" means this).
	ProgressGoroutine ProgressMode = "goroutine"
	// ProgressEvent is the single-token event-driven scheduler.
	ProgressEvent ProgressMode = "event"
)

// Validate reports whether the mode is known. The empty string is the
// default (goroutine) and valid.
func (m ProgressMode) Validate() error {
	switch m {
	case "", ProgressGoroutine, ProgressEvent:
		return nil
	}
	return fmt.Errorf("fabric: unknown progress mode %q", m)
}

// event reports whether the mode selects the event scheduler.
func (m ProgressMode) event() bool { return m == ProgressEvent }

// fiberState is one rank fiber's scheduling state.
type fiberState uint8

const (
	fiberIdle     fiberState = iota // not spawned yet
	fiberRunnable                   // queued for the token
	fiberRunning                    // holds the token
	fiberBlocked                    // parked, waiting for a wake
	fiberDone                       // exited
)

// sched is the event-driven rank scheduler: a single execution token
// multiplexed over rank fibers. Fibers are real goroutines (Go stacks
// cannot be swapped by hand) but at most one is unparked at a time, so
// rank execution is serialized and deterministic: the runnable queue is
// FIFO, and every state transition is driven by an explicit event (a
// mailbox push, an exchange completion, a close).
//
// Lock ordering: data-structure locks (mailbox.mu, OOB.mu) may be held
// while calling wake/wakeAll — sched.mu is a leaf lock. park must be
// called WITHOUT any data lock held (the parked fiber would otherwise
// deadlock the successor it hands the token to); blocking sites
// therefore re-check their condition in a loop around park, and the
// pending bit makes the unlock→park window race-free: a wake that
// arrives while its target still runs is remembered and consumed by the
// next park, which returns immediately instead of sleeping.
type sched struct {
	mu      sync.Mutex
	state   []fiberState
	pending []bool          // wake arrived while fiber was running
	gates   []chan struct{} // per-fiber dispatch signal, cap 1
	running int             // fiber holding the token, or -1

	// runq is the FIFO of runnable fibers: a ring of n slots, which never
	// overflows because a fiber is queued at most once (only the
	// idle→runnable and blocked→runnable transitions enqueue).
	runq  []int
	head  int // index of the oldest queued fiber
	count int // queued fibers
}

func newSched(n int) *sched {
	s := &sched{
		state:   make([]fiberState, n),
		pending: make([]bool, n),
		gates:   make([]chan struct{}, n),
		runq:    make([]int, n),
		running: -1,
	}
	for i := range s.gates {
		s.gates[i] = make(chan struct{}, 1)
	}
	return s
}

// spawn registers rank's fiber and starts its goroutine. The goroutine
// does not run fn until the scheduler dispatches it, and the token is
// released when fn returns — or panics: the deferred exit keeps one
// crashing fiber from wedging the whole world.
func (s *sched) spawn(rank int, fn func()) {
	s.mu.Lock()
	s.enqueueIdleLocked(rank)
	s.dispatchLocked()
	s.mu.Unlock()
	s.start(rank, fn)
}

// spawnAll registers every rank's fiber, queued in rank order, before the
// first one is dispatched: the initial run-queue order cannot depend on
// how fast the caller spawns against how fast rank 0 runs.
func (s *sched) spawnAll(fn func(rank int)) {
	s.mu.Lock()
	for rank := range s.state {
		s.enqueueIdleLocked(rank)
	}
	s.dispatchLocked()
	s.mu.Unlock()
	for rank := range s.state {
		rank := rank
		s.start(rank, func() { fn(rank) })
	}
}

// enqueueIdleLocked moves a not-yet-spawned fiber onto the run queue.
// Called with s.mu held (released only to panic on a double spawn).
func (s *sched) enqueueIdleLocked(rank int) {
	if s.state[rank] != fiberIdle {
		s.mu.Unlock()
		panic(fmt.Sprintf("fabric: rank %d spawned twice on an event-mode world", rank))
	}
	s.state[rank] = fiberRunnable
	s.pushLocked(rank)
}

// start launches a registered fiber's goroutine, which waits for its
// first dispatch.
func (s *sched) start(rank int, fn func()) {
	go func() {
		<-s.gates[rank]
		defer s.exit(rank)
		fn()
	}()
}

// exit releases the token when a fiber returns.
func (s *sched) exit(rank int) {
	s.mu.Lock()
	s.state[rank] = fiberDone
	s.pending[rank] = false
	if s.running == rank {
		s.running = -1
	}
	s.dispatchLocked()
	s.mu.Unlock()
}

// park releases the token and blocks until the fiber is woken AND
// re-dispatched. A wake that arrived while the fiber was still running
// (the pending bit) makes park return immediately: the caller's
// condition may already hold, and the loop around park re-checks it.
// Only the fiber currently holding the token may park.
func (s *sched) park(rank int) {
	s.mu.Lock()
	if s.state[rank] != fiberRunning {
		s.mu.Unlock()
		panic(fmt.Sprintf("fabric: park by rank %d which does not hold the token (state %d); "+
			"event-mode ranks must be started with World.Spawn", rank, s.state[rank]))
	}
	if s.pending[rank] {
		s.pending[rank] = false
		s.mu.Unlock()
		return
	}
	s.state[rank] = fiberBlocked
	s.running = -1
	s.dispatchLocked()
	s.mu.Unlock()
	<-s.gates[rank]
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
		s.dispatchLocked()
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
	s.dispatchLocked()
	s.mu.Unlock()
}

// dispatchLocked hands the token to the next runnable fiber if it is
// free. Called with s.mu held; the gate send cannot block (cap 1, and
// the state machine dispatches a fiber at most once per park).
func (s *sched) dispatchLocked() {
	if s.running != -1 || s.count == 0 {
		return
	}
	r := s.runq[s.head]
	s.head = (s.head + 1) % len(s.runq)
	s.count--
	s.state[r] = fiberRunning
	s.running = r
	s.gates[r] <- struct{}{} //mpivet:allow parksafe -- cap-1 gate owned by the token state machine: a fiber is dispatched at most once per park, so the send never blocks
}

// pushLocked appends rank to the run queue. Called with s.mu held.
func (s *sched) pushLocked(rank int) {
	s.runq[(s.head+s.count)%len(s.runq)] = rank
	s.count++
}

// Spawn starts fn as rank r's execution context: `go fn()` on a
// goroutine-mode world, a scheduler fiber on an event-mode world. Every
// goroutine that drives a rank's endpoint on an event-mode world MUST be
// started through Spawn — the blocking fabric primitives park the
// calling fiber, and an unregistered goroutine cannot park.
func (w *World) Spawn(r int, fn func()) {
	if w.sched == nil {
		go fn()
		return
	}
	w.sched.spawn(r, fn)
}

// SpawnAll starts fn(r) as the execution context of every rank r of the
// world — Spawn for all ranks at once. On an event-mode world every fiber
// is queued, in rank order, before the first is dispatched, which is what
// makes a launch's run order independent of host timing (see
// ProgressMode); launchers use it in place of a Spawn loop.
func (w *World) SpawnAll(fn func(r int)) {
	if w.sched == nil {
		for r := range w.eps {
			go fn(r)
		}
		return
	}
	w.sched.spawnAll(fn)
}

// Mode returns the world's progress mode.
func (w *World) Mode() ProgressMode {
	if w.sched != nil {
		return ProgressEvent
	}
	return ProgressGoroutine
}
