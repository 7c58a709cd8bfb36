// The fiber primitive itself: a coroutine pulled with iter.Pull parks by
// calling its yield, and whoever calls next is its carrier.
package parksafe

import (
	"iter"
	"sync"
)

// yieldWhileLocked: the coroutine switches away holding mu, and the next
// coroutine the carrier resumes deadlocks on it.
func yieldWhileLocked() {
	var mu sync.Mutex
	next, _ := iter.Pull(func(yield func(struct{}) bool) {
		mu.Lock()
		yield(struct{}{}) // want `coroutine yield while mu is held`
		mu.Unlock()
	})
	next()
}

// fibers mirrors the scheduler: the yield is stored on first resume and
// called from a park method, not from the coroutine body's own text.
type fibers struct {
	mu    sync.Mutex
	yield []func(struct{}) bool
}

func (f *fibers) add(i int, body func()) func() (struct{}, bool) {
	next, _ := iter.Pull(func(yield func(struct{}) bool) {
		f.yield[i] = yield
		body()
		f.parkLocked(i)
		f.park(i)
	})
	return next
}

func (f *fibers) parkLocked(i int) {
	f.mu.Lock()
	f.yield[i](struct{}{}) // want `coroutine yield while f\.mu is held`
	f.mu.Unlock()
}

// park is the scheduler's own sequence: bookkeeping under the lock,
// unlock, then yield.
func (f *fibers) park(i int) {
	f.mu.Lock()
	f.mu.Unlock()
	f.yield[i](struct{}{})
}

// coroutineBlocks: a pulled body is fiber code whoever pulls it.
func coroutineBlocks(ch chan int) {
	next, _ := iter.Pull(func(yield func(int) bool) {
		yield(<-ch) // want `channel receive blocks a fiber`
	})
	next()
}

// carrierLoop: the goroutine that resumes coroutines is not a fiber. It
// may sleep on a channel while nothing is runnable and hold its own lock
// around the queue; only the resume itself happens unlocked.
func carrierLoop(kick chan struct{}, runq []func() (struct{}, bool)) {
	var mu sync.Mutex
	for {
		mu.Lock()
		if len(runq) == 0 {
			mu.Unlock()
			<-kick
			continue
		}
		next := runq[0]
		runq = runq[1:]
		mu.Unlock()
		next()
	}
}
