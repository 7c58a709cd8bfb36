package fabric

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
)

// TestProgressModeValidate: the mode names that remain are inert — "" and
// "event" build the same world — and the removed engine's name is refused
// with an error that says so, by Validate and by NewWorldMode alike.
func TestProgressModeValidate(t *testing.T) {
	for _, m := range []ProgressMode{"", ProgressEvent} {
		if err := m.Validate(); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", m, err)
		}
		w, err := NewWorldMode(simnet.SingleNode(2), m)
		if err != nil {
			t.Fatalf("NewWorldMode(%q): %v", m, err)
		}
		w.Close()
	}
	if err := ProgressMode("threads").Validate(); err == nil {
		t.Error("Validate(\"threads\") = nil, want error")
	}
	err := ProgressMode("goroutine").Validate()
	if err == nil || !strings.Contains(err.Error(), "removed") {
		t.Errorf("Validate(\"goroutine\") = %v, want an error naming the removal", err)
	}
	if _, err := NewWorldMode(simnet.SingleNode(2), "goroutine"); err == nil {
		t.Error("NewWorldMode(\"goroutine\") built a world")
	}
}

// join waits for wg with a timeout so scheduler deadlocks fail fast.
func join(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("test timed out (scheduler deadlock)")
	}
}

// runAll runs fn as every rank's fiber and joins them.
func runAll(t *testing.T, w *World, fn func(r int)) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(w.Size())
	w.SpawnAll(func(r int) {
		defer wg.Done()
		fn(r)
	})
	join(t, &wg)
}

// TestEventModePingPong bounces a payload between two fibers many times:
// every hop is a park on an empty mailbox plus a wake from a push, so
// this exercises the token handoff, the pending bit (pushes that land
// while the receiver still runs) and FIFO dispatch under churn.
func TestEventModePingPong(t *testing.T) {
	w := newTestWorld(t, 2)
	const hops = 200
	var wg sync.WaitGroup
	var last []byte
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		w.Spawn(r, func() {
			defer wg.Done()
			ep := w.Endpoint(r)
			if r == 0 {
				e := GetEnvelope()
				e.Dst, e.Tag, e.Payload = 1, 0, []byte{0}
				ep.Send(e)
			}
			for {
				e := ep.Recv()
				if e == nil {
					return
				}
				hop := e.Tag + 1
				if hop >= hops {
					last = append([]byte(nil), e.Payload...)
					w.Close() // unblocks the peer's Recv
					return
				}
				out := GetEnvelope()
				out.Dst = 1 - r
				out.Tag = hop
				out.Payload = append([]byte(nil), e.Payload...)
				out.Payload[0]++
				ep.Send(out)
			}
		})
	}
	join(t, &wg)
	if len(last) != 1 || last[0] != hops-1 {
		t.Fatalf("payload after %d hops = %v, want [%d]", hops, last, hops-1)
	}
}

// TestEventModeDeterministicDelivery runs the same many-to-one pattern
// twice and demands identical arrival order AND identical virtual
// timestamps: the event scheduler's FIFO run order makes whole runs
// bit-for-bit reproducible.
func TestEventModeDeterministicDelivery(t *testing.T) {
	run := func() string {
		w, err := NewWorld(simnet.SingleNode(8))
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		var wg sync.WaitGroup
		var trace string
		for r := 0; r < 8; r++ {
			r := r
			wg.Add(1)
			w.Spawn(r, func() {
				defer wg.Done()
				ep := w.Endpoint(r)
				if r != 0 {
					for i := 0; i < 3; i++ {
						e := GetEnvelope()
						e.Dst = 0
						e.Tag = int32(i)
						e.Payload = []byte{byte(r)}
						ep.Send(e)
					}
					return
				}
				for i := 0; i < 21; i++ {
					e := ep.Recv()
					ep.AccountRecv(e)
					trace += fmt.Sprintf("%d/%d@%d ", e.Src, e.Tag, e.Arrive)
					PutEnvelope(e)
				}
			})
		}
		join(t, &wg)
		return trace
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged:\n  %s\nvs\n  %s", i+2, got, first)
		}
	}
}

// TestRunQueueFIFOAcrossWrap drives the run queue's ring directly: the
// last-spawned fiber wakes the parked others in a different order every
// round and checks they ran in exactly that order. The ring has one slot
// per fiber and every round queues all of them, so head wraps on every
// round; odd rounds wake one fiber and wakeAll the rest, which must queue
// behind it (in rank order) without queueing it twice.
func TestRunQueueFIFOAcrossWrap(t *testing.T) {
	const workers, rounds = 4, 50
	w := newTestWorld(t, workers+1)
	s := w.sched
	var (
		ran  []int // workers in the order they ran this round
		last int   // the worker that hands the token back to the driver
		stop bool
		wg   sync.WaitGroup
	)
	wg.Add(workers + 1)
	// SpawnAll queues ranks in order, so every worker has parked by the
	// time the driver (the highest rank) first runs.
	w.SpawnAll(func(r int) {
		defer wg.Done()
		if r < workers {
			for {
				s.park(r)
				if stop {
					return
				}
				ran = append(ran, r)
				if r == last {
					s.wake(workers)
				}
			}
		}
		for k := 0; k < rounds; k++ {
			order := make([]int, workers)
			for i := range order {
				order[i] = (i + k) % workers
			}
			if k%3 == 0 {
				order[0], order[workers-1] = order[workers-1], order[0]
			}
			want := order
			if k%2 == 1 {
				// wake(order[0]) then wakeAll: the rest follow in rank order.
				want = []int{order[0]}
				for x := 0; x < workers; x++ {
					if x != order[0] {
						want = append(want, x)
					}
				}
			}
			ran, last = ran[:0], want[workers-1]
			if k%2 == 1 {
				s.wake(order[0])
				s.wakeAll()
			} else {
				for _, x := range order {
					s.wake(x)
				}
			}
			for len(ran) < workers {
				s.park(workers)
			}
			if fmt.Sprint(ran) != fmt.Sprint(want) {
				t.Errorf("round %d: ran %v, want %v", k, ran, want)
			}
		}
		stop = true
		s.wakeAll()
	})
	join(t, &wg)
}

// TestEventModeBlockingOutsideSpawnPanics: a goroutine not started via
// Spawn cannot hold the token, so a blocking Recv from it must panic with
// a pointer at Spawn instead of corrupting the scheduler.
func TestEventModeBlockingOutsideSpawnPanics(t *testing.T) {
	w := newTestWorld(t, 2)
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("Recv outside Spawn did not panic")
		}
		if !strings.Contains(fmt.Sprint(p), "World.Spawn") {
			t.Fatalf("panic does not point at Spawn: %v", p)
		}
	}()
	w.Endpoint(0).Recv()
}

// TestEventModeCloseWakesParked: fibers parked on empty mailboxes must
// all observe Close and exit — teardown uses wakeAll, not per-rank
// bookkeeping.
func TestEventModeCloseWakesParked(t *testing.T) {
	w := newTestWorld(t, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		w.Spawn(r, func() {
			defer wg.Done()
			if e := w.Endpoint(r).Recv(); e != nil {
				t.Errorf("rank %d: Recv on closed world returned %+v", r, e)
			}
		})
	}
	time.Sleep(10 * time.Millisecond) // let fibers reach their park
	w.Close()
	join(t, &wg)
}

// TestEventModeGoexitReleasesToken: a fiber that exits abnormally
// (runtime.Goexit — which is what t.Fatal does) still runs the deferred
// scheduler exit, so the token moves on and the rest of the world keeps
// working instead of wedging.
func TestEventModeGoexitReleasesToken(t *testing.T) {
	w := newTestWorld(t, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	w.Spawn(0, func() {
		defer wg.Done()
		runtime.Goexit()
	})
	got := make(chan byte, 1)
	for r := 1; r < 3; r++ {
		r := r
		wg.Add(1)
		w.Spawn(r, func() {
			defer wg.Done()
			ep := w.Endpoint(r)
			if r == 1 {
				e := GetEnvelope()
				e.Dst, e.Payload = 2, []byte{42}
				ep.Send(e)
				return
			}
			e := ep.Recv()
			got <- e.Payload[0] //mpivet:allow parksafe -- capacity-1 channel with a single sender; the send never blocks
			PutEnvelope(e)
		})
	}
	join(t, &wg)
	if v := <-got; v != 42 {
		t.Fatalf("payload = %d, want 42", v)
	}
}

// carrierIdle waits until every fiber of the world is parked or done and
// the carrier has gone away — the state an external wake must restart
// the world from.
func carrierIdle(t *testing.T, s *sched) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; {
		s.mu.Lock()
		idle := !s.carrying && s.count == 0 && s.running == -1
		s.mu.Unlock()
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("carrier never went idle")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestEventModeGoexitWhileOthersParked: the Goexit of the last runnable
// fiber unwinds the carrier with the run queue empty and two fibers
// parked. They are then woken from the test goroutine, which is not a
// fiber, and must run to completion on a fresh carrier.
func TestEventModeGoexitWhileOthersParked(t *testing.T) {
	w := newTestWorld(t, 3)
	s := w.sched
	var released atomic.Bool
	var exited, wg sync.WaitGroup
	exited.Add(1)
	wg.Add(2)
	// Rank order: 0 and 1 park before 2 runs.
	w.SpawnAll(func(r int) {
		if r == 2 {
			defer exited.Done()
			runtime.Goexit()
		}
		defer wg.Done()
		for !released.Load() {
			s.park(r)
		}
	})
	join(t, &exited)
	carrierIdle(t, s)
	released.Store(true)
	s.wake(1)
	s.wake(0)
	join(t, &wg)
}

// TestEventModeSpawnAfterAllFinished: a world whose earlier fibers have
// all returned has no carrier left; a later Spawn must start one.
func TestEventModeSpawnAfterAllFinished(t *testing.T) {
	w := newTestWorld(t, 3)
	for r := 0; r < 3; r++ {
		var wg sync.WaitGroup
		wg.Add(1)
		w.Spawn(r, wg.Done)
		join(t, &wg)
		carrierIdle(t, w.sched)
	}
}

// TestEventModeExternalWakeFindsCarrierIdle: with its only fiber parked
// the world has nothing to run and no carrier; a wake from outside (what
// Close, Kill and a checkpoint coordinator do) restarts it, every time.
func TestEventModeExternalWakeFindsCarrierIdle(t *testing.T) {
	w := newTestWorld(t, 1)
	s := w.sched
	const rounds = 20
	var seen atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	w.Spawn(0, func() {
		defer wg.Done()
		for seen.Load() < rounds {
			s.park(0)
			seen.Add(1)
		}
	})
	for k := int32(0); k < rounds; k++ {
		carrierIdle(t, s)
		if got := seen.Load(); got != k {
			t.Fatalf("before wake %d the fiber had run %d times", k, got)
		}
		s.wake(0)
	}
	join(t, &wg)
}

// pingPong runs two fibers that hand the token back and forth: fiber 0
// calls body, in which every wake(1)+park(0) pair is two handoffs (0→1 and
// 1→0); fiber 1 echoes until fiber 0 is done.
func pingPong(tb testing.TB, body func(bounce func())) {
	tb.Helper()
	w := newTestWorld(tb, 2)
	s := w.sched
	stop := false
	var wg sync.WaitGroup
	wg.Add(2)
	w.SpawnAll(func(r int) {
		defer wg.Done()
		if r == 1 {
			for !stop {
				s.wake(0)
				s.park(1)
			}
			return
		}
		body(func() {
			s.wake(1)
			s.park(0)
		})
		stop = true
		s.wake(1)
	})
	wg.Wait()
}

// TestEventHandoffAllocatesNothing: a park/wake round trip between two
// fibers is two coroutine switches and four queue operations, none of
// which may allocate — TestWarmCollectivesAllocateNothing in
// internal/mpicore holds only while this does.
func TestEventHandoffAllocatesNothing(t *testing.T) {
	if poisonOnRelease {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var allocs float64
	pingPong(t, func(bounce func()) {
		allocs = testing.AllocsPerRun(1000, bounce)
	})
	if allocs != 0 {
		t.Fatalf("a park/wake round trip allocates %v times, want 0", allocs)
	}
}

// TestFiberPanicNamesRank: iter.Pull re-raises a fiber's panic on the
// carrier, whose stack says nothing about the fiber; the re-raised value
// must name the rank and carry the fiber's own stack. The carrier loop is
// run on the test goroutine so that the panic can be caught.
func TestFiberPanicNamesRank(t *testing.T) {
	w := newTestWorld(t, 2)
	s := w.sched
	s.carrying = true // keep spawn from starting a carrier goroutine
	w.Spawn(1, func() { panicInFiber() })
	var got any
	func() {
		defer func() { got = recover() }()
		s.carry()
	}()
	msg, _ := got.(string)
	for _, want := range []string{"rank 1", "boom", "panicInFiber"} {
		if !strings.Contains(msg, want) {
			t.Errorf("re-raised panic does not mention %q:\n%v", want, got)
		}
	}
	carrierIdle(t, s)
}

//go:noinline
func panicInFiber() { panic("boom") }

// BenchmarkEventHandoff times one token handoff (park on one fiber to
// running on the next). Run it with -cpu 1,2,4: the number must not
// depend on how many Ps sit idle beside the carrier.
func BenchmarkEventHandoff(b *testing.B) {
	pingPong(b, func(bounce func()) {
		b.ResetTimer()
		for i := 0; i < b.N; i += 2 {
			bounce()
		}
		b.StopTimer()
	})
}

// TestEventModeSpawnTwicePanics: double-registering a rank is a harness
// bug; the scheduler refuses loudly.
func TestEventModeSpawnTwicePanics(t *testing.T) {
	w := newTestWorld(t, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	w.Spawn(0, func() { wg.Done() })
	join(t, &wg)
	defer func() {
		if recover() == nil {
			t.Fatal("second Spawn of rank 0 did not panic")
		}
	}()
	w.Spawn(0, func() {})
}

// TestSpawnedRanksExchange: two ranks that each send first and receive
// second complete — a Send never blocks, so neither needs the token while
// the other holds it.
func TestSpawnedRanksExchange(t *testing.T) {
	w := newTestWorld(t, 2)
	runAll(t, w, func(r int) {
		ep := w.Endpoint(r)
		e := GetEnvelope()
		e.Dst = 1 - r
		e.Payload = []byte{byte(r)}
		ep.Send(e)
		in := ep.Recv()
		if in == nil || in.Payload[0] != byte(1-r) {
			t.Errorf("rank %d: bad echo %+v", r, in)
		}
		if in != nil {
			PutEnvelope(in)
		}
	})
}

// TestPickHookReordersRunnableFibers: the test-only pick hook replaces
// "oldest runnable" with the hook's choice among the queued fibers, and
// nothing else — every fiber still runs exactly once per wake.
func TestPickHookReordersRunnableFibers(t *testing.T) {
	const n = 5
	w := newTestWorld(t, n)
	w.SetPickForTest(func(queued int) int { return queued - 1 }) // newest first
	var ran []int
	runAll(t, w, func(r int) { ran = append(ran, r) })
	if got, want := fmt.Sprint(ran), "[4 3 2 1 0]"; got != want {
		t.Fatalf("run order %s, want %s", got, want)
	}
}
