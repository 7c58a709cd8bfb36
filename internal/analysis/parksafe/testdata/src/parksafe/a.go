// Seeded violations of the fiber park discipline.
package parksafe

import (
	"sync"
	"time"

	"repro/internal/fabric"
)

func directBlocks(w *fabric.World, ch chan int, wg *sync.WaitGroup) {
	w.Spawn(0, func() {
		ch <- 1 // want `channel send blocks a fiber`
	})
	w.Spawn(1, func() {
		time.Sleep(time.Millisecond) // want `time\.Sleep blocks a fiber`
	})
	w.Spawn(2, func() {
		wg.Wait() // want `sync\.WaitGroup\.Wait blocks a fiber`
	})
	w.Spawn(3, func() {
		for range ch { // want `range over a channel blocks a fiber`
		}
	})
}

func spawnAllBlocks(w *fabric.World, ch chan int) {
	w.SpawnAll(func(r int) {
		ch <- r // want `channel send blocks a fiber`
	})
}

func selectNoDefault(w *fabric.World, a, b chan int) {
	w.Spawn(0, func() {
		select { // want `select without a default case blocks a fiber`
		case <-a:
		case <-b:
		}
	})
}

func condWait(w *fabric.World, c *sync.Cond) {
	w.Spawn(0, func() {
		c.L.Lock()
		c.Wait() // want `sync\.Cond\.Wait blocks a fiber`
		c.L.Unlock()
	})
}

// blockHelper is reachable from a fiber only through the call graph.
func blockHelper(ch chan int) int {
	return <-ch // want `channel receive blocks a fiber`
}

func transitive(w *fabric.World, ch chan int) {
	w.Spawn(0, func() {
		blockHelper(ch)
	})
}

func lockedAcrossBlock(w *fabric.World, ch chan int) {
	var mu sync.Mutex
	w.Spawn(0, func() {
		mu.Lock()
		<-ch // want `channel receive blocks a fiber` `channel receive while mu is held`
		mu.Unlock()
	})
}

func lockedAcrossCall(w *fabric.World, ch chan int) {
	var mu sync.Mutex
	w.Spawn(0, func() {
		mu.Lock()
		blockHelper(ch) // want `parksafe\.blockHelper \(which may park\) while mu is held`
		mu.Unlock()
	})
}
