package fabric

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
)

func TestProgressModeValidate(t *testing.T) {
	for _, m := range []ProgressMode{"", ProgressGoroutine, ProgressEvent} {
		if err := m.Validate(); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", m, err)
		}
	}
	if err := ProgressMode("threads").Validate(); err == nil {
		t.Error("Validate(\"threads\") = nil, want error")
	}
}

// eventWorld builds an event-mode single-node world (a scheduler bug in
// event mode shows up as a silent hang, never a crash — pair with join).
func eventWorld(t *testing.T, n int) *World {
	t.Helper()
	w, err := NewWorldMode(simnet.SingleNode(n), ProgressEvent)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// join waits for wg with a timeout so scheduler deadlocks fail fast.
func join(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("event-mode test timed out (scheduler deadlock)")
	}
}

// TestEventModePingPong bounces a payload between two fibers many times:
// every hop is a park on an empty mailbox plus a wake from a push, so
// this exercises the token handoff, the pending bit (pushes that land
// while the receiver still runs) and FIFO dispatch under churn.
func TestEventModePingPong(t *testing.T) {
	w := eventWorld(t, 2)
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
		w, err := NewWorldMode(simnet.SingleNode(8), ProgressEvent)
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
	w := eventWorld(t, workers+1)
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

// TestEventModeBlockingOutsideSpawnPanics: on an event-mode world a
// goroutine not started via Spawn cannot hold the token, so a blocking
// Recv from it must panic with a pointer at Spawn instead of corrupting
// the scheduler.
func TestEventModeBlockingOutsideSpawnPanics(t *testing.T) {
	w := eventWorld(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Recv outside Spawn did not panic on an event-mode world")
		}
	}()
	w.Endpoint(0).Recv()
}

// TestEventModeCloseWakesParked: fibers parked on empty mailboxes must
// all observe Close and exit — teardown uses wakeAll, not per-rank
// bookkeeping.
func TestEventModeCloseWakesParked(t *testing.T) {
	w := eventWorld(t, 4)
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
	w := eventWorld(t, 3)
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

// TestEventModeSpawnTwicePanics: double-registering a rank is a harness
// bug; the scheduler refuses loudly.
func TestEventModeSpawnTwicePanics(t *testing.T) {
	w := eventWorld(t, 2)
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

// TestGoroutineModeSpawnIsPlainGo: Spawn on a default-mode world must
// not serialize anything — both ranks run concurrently and can block on
// each other without a token.
func TestGoroutineModeSpawnIsPlainGo(t *testing.T) {
	w, err := NewWorld(simnet.SingleNode(2))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Mode() != ProgressGoroutine {
		t.Fatalf("Mode() = %q, want %q", w.Mode(), ProgressGoroutine)
	}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		w.Spawn(r, func() {
			defer wg.Done()
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
	join(t, &wg)
}
