// Package fabrictest is the SPMD test harness shared by the packages built
// on fabric: it starts one body per rank the only way a rank may be started
// — as a scheduler fiber, through World.SpawnAll — and turns a rank's error,
// or a world that stops making progress, into a test failure.
package fabrictest

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/simnet"
)

// timeout bounds one Run: a deadlocked world fails its test instead of
// hanging the package.
const timeout = 60 * time.Second

// World builds an n-rank single-node world that closes with the test.
func World(t testing.TB, n int) *fabric.World {
	t.Helper()
	w, err := fabric.NewWorld(simnet.SingleNode(n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// Run runs body(rank) on every rank of w and waits for all of them. A rank
// that returns an error closes the world — releasing the peers blocked on
// it — and fails the test; so does a world still running after a minute.
func Run(t testing.TB, w *fabric.World, body func(rank int) error) {
	t.Helper()
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	wg.Add(w.Size())
	w.SpawnAll(func(r int) {
		defer wg.Done()
		if err := body(r); err != nil {
			mu.Lock()
			errs = append(errs, fmt.Errorf("rank %d: %w", r, err))
			mu.Unlock()
			w.Endpoint(r).CloseWorld()
		}
	})
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatalf("%d-rank world still running after %v (likely deadlock)", w.Size(), timeout)
	}
	for _, err := range errs {
		t.Error(err)
	}
}
