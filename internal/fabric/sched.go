//go:build go1.23

package fabric

import (
	"fmt"
	"iter"
	"runtime/debug"
	"slices"
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
// thread — no channel send, no Go scheduler wakeup, no lock — and its cost
// does not grow with the rank count or with the number of idle Ps; one
// world uses one core, and parallelism comes from worlds running side by
// side.
//
// The token is also the only guard of the world's state. Mailboxes, the
// OOB plane, the network's link clocks, the payload freelist and this
// struct's fields after the first four belong to whichever goroutine
// holds it: the carrier and the fiber it resumed, or a goroutine applying
// an event to a world with no carrier (post). A fiber acts on the world in
// place. Every park site tests its condition immediately before it parks,
// and nothing else runs between the test and the park, so a wake needs no
// memory: it either finds the fiber parked or finds nothing to do.
//
// Goroutines that are not fibers (a launcher spawning ranks, a job's
// Cancel or Wait, a test driver) post their events instead. If no
// goroutine holds the token the poster takes it and applies the event at
// once; otherwise the event waits in the inbox, which the carrier drains
// between two resumes — every inboxPoll resumes and whenever its run
// queue empties.
//
// Rank execution is serialized and deterministic: the runnable queue is
// FIFO, and every state transition is driven by an explicit event (a
// mailbox push, an exchange completion, a close). A run is bit-for-bit
// reproducible, virtual times included, when its ranks are started with
// SpawnAll: SpawnAll queues every fiber (rank order) before the first
// runs, and from then on only the token holder enqueues — so the whole run
// order is a function of the program, not of host timing. (Fibers started
// one by one with Spawn race the caller's spawn loop against the first
// rank's execution, and posted events land wherever host timing puts
// them.)
//
// The carrier lives only while there is something to run. When its run
// queue and the inbox are both empty it returns, and the next post
// starts a fresh one.
type sched struct {
	// mu, the world's one lock, guards the next three fields and nothing
	// else.
	mu       sync.Mutex
	inbox    []func() // events posted from outside, applied by the token holder
	carrying bool     // a goroutine holds the token
	spawned  []bool   // ranks handed to Spawn or SpawnAll

	state   []fiberState
	resume  []func() (struct{}, bool) // per-fiber coroutine entry, called by the carrier only
	yield   []func(struct{}) bool     // per-fiber switch back to the carrier, set on first resume
	running int                       // fiber holding the token, or -1
	polled  int                       // resumes since the carrier last drained the inbox

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

// inboxPoll bounds how many fibers the carrier resumes between two looks
// at the inbox, so a posted event lands even in a world that never goes
// idle (ranks that ping-pong until closed). Each look takes mu once.
const inboxPoll = 64

func newSched(n int) *sched {
	return &sched{
		spawned: make([]bool, n),
		state:   make([]fiberState, n),
		resume:  make([]func() (struct{}, bool), n),
		yield:   make([]func(struct{}) bool, n),
		runq:    make([]int, n),
		running: -1,
	}
}

// post applies ev, an event from a goroutine that is not one of the
// world's fibers. With no token holder the caller takes the token and
// applies ev at once; otherwise ev waits in the inbox for the carrier.
func (s *sched) post(ev func()) {
	s.mu.Lock()
	if s.carrying {
		s.inbox = append(s.inbox, ev)
		s.mu.Unlock()
		return
	}
	s.carrying = true
	s.mu.Unlock()
	defer s.release()
	ev()
}

// release gives the token up: to a fresh carrier if a fiber is queued or
// an event waits in the inbox, otherwise to nobody.
func (s *sched) release() {
	s.mu.Lock()
	if s.count > 0 || len(s.inbox) > 0 {
		go s.carry()
	} else {
		s.carrying = false
	}
	s.mu.Unlock()
}

// drain applies the inbox's events in the order they were posted.
func (s *sched) drain() {
	s.mu.Lock()
	evs := s.inbox
	s.inbox = nil
	s.mu.Unlock()
	s.polled = 0
	for _, ev := range evs {
		ev()
	}
}

// claim marks ranks as spawned, panicking in the caller if one already
// is: a double spawn is a harness bug, refused before it can reach the
// inbox.
func (s *sched) claim(ranks ...int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range ranks {
		if s.spawned[r] {
			panic(fmt.Sprintf("fabric: rank %d spawned twice", r))
		}
		s.spawned[r] = true
	}
}

// enqueue turns a not-yet-spawned rank into a coroutine on the run queue.
// fn does not run until the carrier resumes it, and the token is released
// when fn returns — or panics: the deferred exit keeps one crashing fiber
// from wedging the whole world.
func (s *sched) enqueue(rank int, fn func()) {
	s.resume[rank], _ = iter.Pull(func(yield func(struct{}) bool) {
		s.yield[rank] = yield
		defer s.exit(rank)
		fn()
	})
	s.state[rank] = fiberRunnable
	s.push(rank)
}

// exit releases the token when a fiber returns. iter.Pull re-raises a
// fiber's panic on the carrier, where the fiber's own stack is gone, so
// the value re-raised names the rank and carries that stack.
func (s *sched) exit(rank int) {
	s.state[rank] = fiberDone
	s.running = -1
	if p := recover(); p != nil {
		panic(fmt.Sprintf("fabric: rank %d's fiber panicked: %v\n\n%s", rank, p, debug.Stack()))
	}
}

// carry is the carrier: it resumes the fiber pop picks, draining the
// inbox between resumes, until there is nothing left to run.
func (s *sched) carry() {
	// The carrier also leaves when a fiber calls runtime.Goexit (t.Fatal
	// does), which iter.Pull propagates to whoever resumed the coroutine.
	// Either way the fiber's own exit has already released the token, and
	// release hands whatever is queued to a fresh carrier.
	defer s.release()
	for {
		if s.count == 0 || s.polled == inboxPoll {
			s.drain()
			if s.count == 0 {
				return
			}
		}
		r := s.pop()
		s.polled++
		s.state[r] = fiberRunning
		s.running = r
		s.resume[r]()
	}
}

// park releases the token and yields to the carrier until the fiber is
// woken AND resumed again. Every caller tests its condition right before
// parking and again after park returns. Only the fiber currently holding
// the token may park.
func (s *sched) park(rank int) {
	if s.state[rank] != fiberRunning {
		panic(fmt.Sprintf("fabric: park by rank %d which does not hold the token (state %d); "+
			"ranks must be started with World.Spawn or SpawnAll", rank, s.state[rank]))
	}
	s.state[rank] = fiberBlocked
	s.running = -1
	s.yield[rank](struct{}{})
}

// wake marks a parked fiber runnable after an event (mailbox push,
// exchange completion, close). Waking a fiber that is not parked is a
// no-op: a running fiber tests its condition before it parks, and an
// unspawned one finds the event's effect before its first park. Only the
// token holder wakes. With no fiber running the caller is the carrier
// draining the inbox, a poster applying an event (both hand the token on
// themselves), or a goroutine waking a world that has no carrier, which
// starts one.
func (s *sched) wake(rank int) {
	if s.state[rank] != fiberBlocked {
		return
	}
	s.state[rank] = fiberRunnable
	s.push(rank)
	if s.running < 0 {
		s.mu.Lock()
		if !s.carrying {
			s.carrying = true
			go s.carry()
		}
		s.mu.Unlock()
	}
}

// wakeAll wakes every parked fiber, in rank order — the broadcast analog,
// used by barrier-style completions (OOB exchange) and world teardown.
func (s *sched) wakeAll() {
	for r := range s.state {
		s.wake(r)
	}
}

// push appends rank to the run queue.
func (s *sched) push(rank int) {
	s.runq[(s.head+s.count)%len(s.runq)] = rank
	s.count++
}

// pop takes the next fiber to run off the run queue, which must not be
// empty. Called by the carrier only: this function is the scheduling
// policy, whole — the oldest runnable fiber.
func (s *sched) pop() int {
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
// spawned, and panics otherwise. Only _test.go files call it: no Stack
// field, flag or environment variable reaches it, and the production
// policy stays the FIFO above.
//
//mpivet:allow deadexport -- test-facing: the seeded run-queue orders of mpicore's differential suite and the fabric scheduler tests
func (w *World) SetPickForTest(pick func(queued int) int) {
	s := w.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	if slices.Contains(s.spawned, true) {
		panic("fabric: SetPickForTest after a rank was spawned")
	}
	s.pick = pick
}

// Spawn starts fn as rank r's execution context, a scheduler fiber. Every
// goroutine that drives a rank's endpoint MUST be started through Spawn or
// SpawnAll — the blocking fabric primitives park the calling fiber, and an
// unregistered goroutine cannot park.
//
//mpivet:allow deadexport -- bench/probes.go starts its fabric ping-pong ranks one at a time
func (w *World) Spawn(r int, fn func()) {
	w.sched.claim(r)
	w.sched.post(func() { w.sched.enqueue(r, fn) })
}

// SpawnAll starts fn(r) as the execution context of every rank r of the
// world — Spawn for all ranks at once. Every fiber is queued, in rank
// order, before the first is dispatched, which is what makes a launch's
// run order independent of host timing (see sched); launchers use it in
// place of a Spawn loop.
func (w *World) SpawnAll(fn func(r int)) {
	w.sched.claim(w.ranks...)
	w.sched.post(func() {
		for r := range w.ranks {
			r := r
			w.sched.enqueue(r, func() { fn(r) })
		}
	})
}
