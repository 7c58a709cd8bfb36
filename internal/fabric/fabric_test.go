package fabric

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
)

func newTestWorld(t testing.TB, n int) *World {
	t.Helper()
	w, err := NewWorld(simnet.SingleNode(n))
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestWorldShape(t *testing.T) {
	w := newTestWorld(t, 4)
	if w.Size() != 4 {
		t.Fatalf("Size = %d, want 4", w.Size())
	}
	for r := 0; r < 4; r++ {
		if got := w.Endpoint(r).rank; got != r {
			t.Fatalf("Endpoint(%d).rank = %d", r, got)
		}
	}
}

func TestEndpointOutOfRangePanics(t *testing.T) {
	w := newTestWorld(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Endpoint(5) did not panic")
		}
	}()
	w.Endpoint(5)
}

func TestSendRecvPayloadCopied(t *testing.T) {
	w := newTestWorld(t, 2)
	buf := []byte{1, 2, 3}
	var e *Envelope
	runAll(t, w, func(r int) {
		if r == 1 {
			e = w.Endpoint(1).Recv()
			return
		}
		w.Endpoint(0).Send(&Envelope{Dst: 1, Tag: 9, Payload: buf})
		buf[0] = 99 // sender mutates its buffer after send
	})
	if e.Src != 0 || e.Tag != 9 {
		t.Fatalf("envelope src/tag = %d/%d, want 0/9", e.Src, e.Tag)
	}
	if !bytes.Equal(e.Payload, []byte{1, 2, 3}) {
		t.Fatalf("payload not copied at send: %v", e.Payload)
	}
}

func TestRecvAdvancesClock(t *testing.T) {
	w := newTestWorld(t, 2)
	w.Endpoint(0).Send(&Envelope{Dst: 1, Payload: make([]byte, 4096)})
	e := w.Endpoint(1).Recv() // already queued: Recv does not park
	if e == nil {
		t.Fatal("Recv returned nil")
	}
	now := w.Endpoint(1).Clock().Now()
	if now < e.Arrive {
		t.Fatalf("receiver clock %v earlier than arrival %v", now, e.Arrive)
	}
	if e.Arrive <= e.Sent {
		t.Fatalf("arrival %v not after send %v", e.Arrive, e.Sent)
	}
}

func TestTryRecv(t *testing.T) {
	w := newTestWorld(t, 2)
	if _, ok := w.Endpoint(1).in.tryPop(); ok {
		t.Fatal("tryPop on empty mailbox returned ok")
	}
	w.Endpoint(0).Send(&Envelope{Dst: 1})
	// Delivery is synchronous (push happens inside Send), so it is queued.
	if _, ok := w.Endpoint(1).in.tryPop(); !ok {
		t.Fatal("tryPop after Send returned !ok")
	}
}

func TestRecvAfterCloseReturnsNil(t *testing.T) {
	w := newTestWorld(t, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	w.Spawn(0, func() {
		defer wg.Done()
		if e := w.Endpoint(0).Recv(); e != nil {
			t.Errorf("Recv after close = %+v, want nil", e)
		}
	})
	w.Close()
	join(t, &wg)
}

func TestMailboxFIFO(t *testing.T) {
	w := newTestWorld(t, 2)
	for i := 0; i < 10; i++ {
		w.Endpoint(0).Send(&Envelope{Dst: 1, Tag: int32(i)})
	}
	for i := 0; i < 10; i++ {
		e := w.Endpoint(1).Recv()
		if e.Tag != int32(i) {
			t.Fatalf("message %d has tag %d; mailbox not FIFO", i, e.Tag)
		}
	}
}

func TestPending(t *testing.T) {
	w := newTestWorld(t, 2)
	if got := len(w.Endpoint(1).in.queue); got != 0 {
		t.Fatalf("queued = %d, want 0", got)
	}
	w.Endpoint(0).Send(&Envelope{Dst: 1})
	w.Endpoint(0).Send(&Envelope{Dst: 1})
	if got := len(w.Endpoint(1).in.queue); got != 2 {
		t.Fatalf("queued = %d, want 2", got)
	}
}

// Exchange hands every rank of a generation the same deposits, the
// completing rank included, copied once: a depositor that overwrites its
// buffer after Exchange returns changes nothing its peers read.
func TestOOBExchange(t *testing.T) {
	const n = 8
	w := newTestWorld(t, n)
	results := make([][][]byte, n)
	runAll(t, w, func(r int) {
		buf := []byte(fmt.Sprintf("rank%d", r))
		results[r] = w.OOB().Exchange(r, buf)
		copy(buf, "XXXXX")
	})
	for r := 0; r < n; r++ {
		if len(results[r]) != n {
			t.Fatalf("rank %d got %d slots", r, len(results[r]))
		}
		for s := 0; s < n; s++ {
			want := fmt.Sprintf("rank%d", s)
			if string(results[r][s]) != want {
				t.Fatalf("rank %d slot %d = %q, want %q", r, s, results[r][s], want)
			}
		}
	}
}

// Exchange must be reusable across generations without cross-talk, even when
// some ranks race ahead into the next generation, and each generation keeps
// its own snapshot: every rank still reads generation g's deposits after
// the later generations have overwritten the buffers they came from.
func TestOOBExchangeGenerations(t *testing.T) {
	const n, rounds = 6, 25
	w := newTestWorld(t, n)
	seen := make([][][][]byte, n) // rank -> generation -> slots
	runAll(t, w, func(r int) {
		buf := make([]byte, 2)
		for g := 0; g < rounds; g++ {
			buf[0], buf[1] = byte(g), byte(r) // the same buffer every generation
			out := w.OOB().Exchange(r, buf)
			for s, v := range out {
				if v[0] != byte(g) || v[1] != byte(s) {
					t.Errorf("rank %d gen %d slot %d: got %v", r, g, s, v)
					break // keep depositing, so the other ranks finish
				}
			}
			seen[r] = append(seen[r], out)
		}
	})
	for r := range seen {
		for g, out := range seen[r] {
			for s, v := range out {
				if v[0] != byte(g) || v[1] != byte(s) {
					t.Fatalf("rank %d gen %d slot %d reads %v after the run", r, g, s, v)
				}
			}
		}
	}
}

func TestOOBExchangeClosedWorld(t *testing.T) {
	w := newTestWorld(t, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	w.Spawn(0, func() {
		defer wg.Done()
		if out := w.OOB().Exchange(0, []byte("x")); out != nil {
			t.Errorf("Exchange on closed world = %v, want nil", out)
		}
	})
	time.Sleep(10 * time.Millisecond)
	w.Close()
	join(t, &wg)
}

// onEventWorld runs fn in a subtest named for the engine, on a fresh n-rank
// world.
func onEventWorld(t *testing.T, n int, fn func(t *testing.T, w *World)) {
	t.Run(string(ProgressEvent), func(t *testing.T) {
		fn(t, newTestWorld(t, n))
	})
}

// flagDeposits waits until every fiber of w has parked or returned and
// the carrier has gone, then reads how many ranks wait in the current
// AnyFlag generation.
func flagDeposits(t *testing.T, w *World) int {
	carrierIdle(t, w.sched)
	return w.OOB().flagSeen
}

// AnyFlag is a barrier plus an OR: every rank sees true when exactly one
// rank sets the bit, whichever rank that is, and false when none does.
func TestOOBAnyFlag(t *testing.T) {
	const n = 8
	// setter[g] is the one rank that sets the bit in generation g, or -1.
	setter := []int{5, -1, 0, n - 1, -1, -1, 3}
	onEventWorld(t, n, func(t *testing.T, w *World) {
		var wg sync.WaitGroup
		wg.Add(n)
		w.SpawnAll(func(r int) {
			defer wg.Done()
			for g, s := range setter {
				set, ok := w.OOB().AnyFlag(r, r == s)
				if !ok || set != (s >= 0) {
					t.Errorf("rank %d gen %d (setter %d): AnyFlag = %v, %v", r, g, s, set, ok)
				}
			}
		})
		join(t, &wg)
	})
}

// AnyFlag is reusable back to back: over 1000 generations whose expected
// bit keeps changing, a late waker never reads the deposits or the result
// of the generation the ranks racing ahead of it have already entered.
func TestOOBAnyFlagGenerations(t *testing.T) {
	const n, rounds = 6, 1000
	want := func(g int) bool { return g%3 == 0 || g%7 == 0 }
	onEventWorld(t, n, func(t *testing.T, w *World) {
		var wg sync.WaitGroup
		wg.Add(n)
		w.SpawnAll(func(r int) {
			defer wg.Done()
			for g := 0; g < rounds; g++ {
				set, ok := w.OOB().AnyFlag(r, want(g) && g%n == r)
				if !ok || set != want(g) {
					t.Errorf("rank %d gen %d: AnyFlag = %v, %v, want %v, true", r, g, set, ok, want(g))
					return
				}
			}
		})
		join(t, &wg)
	})
}

func TestOOBAnyFlagClosedWorld(t *testing.T) {
	onEventWorld(t, 2, func(t *testing.T, w *World) {
		var wg sync.WaitGroup
		wg.Add(1)
		w.Spawn(0, func() {
			defer wg.Done()
			if set, ok := w.OOB().AnyFlag(0, true); set || ok {
				t.Errorf("AnyFlag on closed world = %v, %v, want false, false", set, ok)
			}
		})
		if n := flagDeposits(t, w); n != 1 {
			t.Fatalf("%d AnyFlag deposits before Close, want 1", n)
		}
		w.Close()
		join(t, &wg)
	})
}

// A generation that completed outranks a closure that followed it: the last
// depositor completes the barrier and closes the world before the waiter
// has run again, and the waiter must still get the generation's result.
func TestOOBAnyFlagCompletedBeforeClose(t *testing.T) {
	onEventWorld(t, 2, func(t *testing.T, w *World) {
		var wg sync.WaitGroup
		wg.Add(2)
		w.Spawn(0, func() {
			defer wg.Done()
			if set, ok := w.OOB().AnyFlag(0, true); !set || !ok {
				t.Errorf("waiter: AnyFlag = %v, %v, want true, true", set, ok)
			}
		})
		if n := flagDeposits(t, w); n != 1 {
			t.Fatalf("%d AnyFlag deposits before the completer, want 1", n)
		}
		w.Spawn(1, func() {
			defer wg.Done()
			if set, ok := w.OOB().AnyFlag(1, false); !set || !ok {
				t.Errorf("completer: AnyFlag = %v, %v, want true, true", set, ok)
			}
			w.Endpoint(1).CloseWorld()
		})
		join(t, &wg)
	})
}

func TestInterNodeArrivalLaterThanIntra(t *testing.T) {
	cfg := simnet.Discovery10GbE()
	cfg.JitterFrac = 0
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Endpoint(0).Send(&Envelope{Dst: 1, Payload: make([]byte, 64)})  // same node
	w.Endpoint(0).Send(&Envelope{Dst: 12, Payload: make([]byte, 64)}) // other node
	intra := w.Endpoint(1).Recv()
	inter := w.Endpoint(12).Recv()
	if inter.Arrive.Sub(inter.Sent) <= intra.Arrive.Sub(intra.Sent) {
		t.Fatalf("inter-node flight %v not slower than intra-node %v",
			inter.Arrive.Sub(inter.Sent), intra.Arrive.Sub(intra.Sent))
	}
}

// Kill models fail-stop endpoint death: the victim's queued mail drops,
// later sends to it vanish on the wire (the sender still pays its
// overhead), Alive flips, and the rest of the world keeps working.
func TestKillIsFailStop(t *testing.T) {
	w, err := NewWorld(simnet.SingleNode(3))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Endpoint(0).Send(&Envelope{Dst: 1, Payload: []byte("x")})
	w.Kill(1)
	if w.Alive(1) || !w.Alive(0) || !w.Alive(2) {
		t.Fatalf("liveness after Kill(1): %v %v %v", w.Alive(0), w.Alive(1), w.Alive(2))
	}
	if w.Alive(-1) || w.Alive(99) {
		t.Fatal("out-of-range ranks reported alive")
	}
	// The dead endpoint's mailbox is closed and drained.
	if e := w.Endpoint(1).Recv(); e != nil {
		t.Fatalf("dead endpoint received %+v", e)
	}
	// A send to the dead rank is dropped, but the sender's clock still
	// advances by the send overhead.
	before := w.Endpoint(0).Clock().Now()
	w.Endpoint(0).Send(&Envelope{Dst: 1, Payload: []byte("y")})
	if w.Endpoint(0).Clock().Now() <= before {
		t.Fatal("sender paid no overhead for a send to a dead rank")
	}
	if len(w.Endpoint(1).in.queue) != 0 {
		t.Fatal("send to a dead rank was queued")
	}
	// Survivors still communicate.
	w.Endpoint(0).Send(&Envelope{Dst: 2, Payload: []byte("z")})
	if e := w.Endpoint(2).Recv(); e == nil || string(e.Payload) != "z" {
		t.Fatalf("survivor traffic broken: %+v", e)
	}
	// Kill is idempotent.
	w.Kill(1, 1)
}

func BenchmarkSendRecv(b *testing.B) {
	w, err := NewWorld(simnet.SingleNode(2))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Endpoint(0).Send(&Envelope{Dst: 1, Payload: payload})
		w.Endpoint(1).Recv()
	}
}
