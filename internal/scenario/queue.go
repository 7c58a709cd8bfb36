package scenario

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// Queue is the one scheduler of a matrix run: Run drains it from
// in-process workers and matrixd serves it to a fleet over HTTP. It hands
// the deduplicated cells out longest-expected-first under leases and
// keeps every result handed back, from which it assembles the report.
type Queue struct {
	opts Options
	ttl  time.Duration
	now  func() time.Time

	// cells (longest-expected-first) and byHash never change shape after
	// Warm, so a lookup needs no lock; the cells' fields after expect are
	// under mu.
	cells  []*queued
	byHash map[string]*queued

	mu       sync.Mutex
	done     int
	requeued int
	doneCh   chan struct{}
}

// queued is the queue's view of one cell and, once done, its result.
type queued struct {
	spec   Spec
	id     string
	hash   string
	index  int   // enumeration position: the tiebreak of equal expectations
	expect int64 // expected wall ms, for longest-expected-first ordering

	done   bool
	result Result // set with done and immutable from then on
	entry  []byte // the stored bytes of result, if it was stored
	worker string // who completed the cell ("" is credited to no one)

	leased     bool
	leaseUntil time.Time
}

// Lease is one granted cell: its ID, Spec and content address, the lease
// duration (0: it never expires) and the count of cells not yet complete,
// this one included. A result handed back after the lease lapsed is still
// welcome, but the cell may have been leased, and credited, again.
type Lease struct {
	ID        string `json:"id"`
	Spec      Spec   `json:"spec"`
	Hash      string `json:"hash"`
	TTLMS     int64  `json:"ttl_ms"`
	Remaining int    `json:"remaining"`
}

// Progress is a run's completion state. Requeued counts leases that
// expired and were granted again.
type Progress struct {
	Total    int `json:"total"`
	Done     int `json:"done"`
	Cached   int `json:"cached"`
	Failed   int `json:"failed"`
	Leased   int `json:"leased"`
	Requeued int `json:"requeued"`
}

// BusyError is a Source's "nothing grantable yet": every remaining cell
// is held by a live lease. Retry says when the earliest lease can expire.
type BusyError struct{ Retry time.Duration }

func (e *BusyError) Error() string {
	return fmt.Sprintf("scenario: all remaining cells are leased; retry in %v", e.Retry)
}

// NewQueue enumerates a run: it deduplicates specs (first occurrence
// wins), hashes every cell under o and orders the cells
// longest-expected-first by shape. A lease lasts ttl; a zero ttl makes
// leases that never expire, for workers that cannot die without the run.
// now is the clock leases are timed by (nil means time.Now).
func NewQueue(specs []Spec, o Options, ttl time.Duration, now func() time.Time) *Queue {
	if now == nil {
		now = time.Now
	}
	q := &Queue{opts: o, ttl: ttl, now: now, byHash: make(map[string]*queued, len(specs)), doneCh: make(chan struct{})}
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if id := s.ID(); !seen[id] {
			seen[id] = true
			c := &queued{spec: s, id: id, hash: CellHash(s, o), index: len(q.cells)}
			q.cells = append(q.cells, c)
			q.byHash[c.hash] = c
		}
	}
	q.order(nil)
	if len(q.cells) == 0 {
		close(q.doneCh)
	}
	return q
}

// Warm seeds the queue from a store before the first lease. scan (the
// shape of Cache.Scan) visits every stored entry: the run's cells among
// them complete as cached, carrying the stored bytes, and entries outside
// the run are dropped as they pass. The recorded wall times scan returns
// then reorder the queue.
func (q *Queue) Warm(scan func(visit func(hash string, res Result, entry []byte)) map[string]int64) {
	hints := scan(func(hash string, res Result, entry []byte) {
		if c := q.byHash[hash]; c != nil && res.ID == c.id {
			res.Cached = true
			q.Complete(hash, "", res, entry)
		}
	})
	q.mu.Lock()
	q.order(hints)
	q.mu.Unlock()
}

// order sorts the cells longest-expected-first, so no worker discovers a
// fault straggler with the rest of the fleet already idle. Equal
// expectations keep enumeration order: the schedule is deterministic.
func (q *Queue) order(hints map[string]int64) {
	for _, c := range q.cells {
		c.expect = expectedWall(c, q.opts.Reps, hints)
	}
	sort.Slice(q.cells, func(i, j int) bool {
		a, b := q.cells[i], q.cells[j]
		return a.expect > b.expect || a.expect == b.expect && a.index < b.index
	})
}

// expectedWall predicts one cell's wall cost. A recorded wall time of the
// same cell ID, from any engine generation, wins outright; a cell that
// has never run gets a shape heuristic ranking the straggler classes,
// scaled by the repetition count. A wrong guess costs schedule quality,
// never correctness.
func expectedWall(c *queued, reps int, hints map[string]int64) int64 {
	if h := hints[c.id]; h > 0 {
		return h
	}
	s := c.spec
	w := int64(1)
	switch {
	case s.Fault == faults.KindRankCrash && s.Recovery == "",
		s.Fault == faults.KindNodeCrash:
		w = 40 // periodic checkpoints + detect + restart legs
	case s.Recovery != "":
		w = 15 // in-place shrink/replicate recovery
	case s.Fault == faults.KindNICDegrade:
		w = 10 // completes under a degraded fabric
	case s.HasRestart():
		w = 5 // checkpoint, finish, restart, finish again
	case s.Ckpt != core.CkptNone:
		w = 2
	}
	return w * int64(max(reps, 1))
}

// Lease grants the first cell, longest-expected-first, that is neither
// done nor under a live lease. When every remaining cell is held, Lease
// parks once: until the run completes, hold fires or stop closes (a nil
// channel never does), and looks again unless stop closed. It returns the
// lease; nil and a zero retry once the run is complete; or nil and the
// wait until the earliest lease can expire, clamped to [50ms, 1s].
func (q *Queue) Lease(hold <-chan time.Time, stop <-chan struct{}) (*Lease, time.Duration) {
	for parked := false; ; parked = true {
		q.mu.Lock()
		now := q.now()
		remaining := len(q.cells) - q.done
		if remaining == 0 {
			q.mu.Unlock()
			return nil, 0
		}
		var next time.Time
		for _, c := range q.cells {
			if c.done {
				continue
			}
			if c.leased && (q.ttl == 0 || now.Before(c.leaseUntil)) {
				if next.IsZero() || c.leaseUntil.Before(next) {
					next = c.leaseUntil
				}
				continue
			}
			// Grantable: never leased, or the lease expired — the requeue
			// that bounds a dead worker's cost to one TTL.
			if c.leased {
				q.requeued++
			}
			c.leased, c.leaseUntil = true, now.Add(q.ttl)
			q.mu.Unlock()
			return &Lease{ID: c.id, Spec: c.spec, Hash: c.hash, TTLMS: q.ttl.Milliseconds(), Remaining: remaining}, 0
		}
		q.mu.Unlock()
		retry := min(max(next.Sub(now), 50*time.Millisecond), time.Second)
		if parked {
			return nil, retry
		}
		select {
		case <-q.doneCh:
		case <-hold:
		case <-stop:
			return nil, retry
		}
	}
}

// Complete records a cell's result, credited to worker and with its
// stored entry, and reports whether it completed the cell: false for a
// cell already done and for a hash outside the run.
func (q *Queue) Complete(hash, worker string, res Result, entry []byte) bool {
	c := q.byHash[hash]
	if c == nil {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if c.done {
		return false
	}
	c.done, c.result, c.entry, c.worker = true, res, entry, worker
	q.done++
	if q.done == len(q.cells) {
		close(q.doneCh)
	}
	return true
}

// Cell looks up the run's cell at hash: its ID ("" when hash is not a
// cell of this run), whether it is done, and the entry it completed with.
func (q *Queue) Cell(hash string) (id string, done bool, entry []byte) {
	c := q.byHash[hash]
	if c == nil {
		return "", false, nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return c.id, c.done, c.entry
}

// Done returns a channel closed when every cell is complete.
func (q *Queue) Done() <-chan struct{} { return q.doneCh }

// Progress snapshots the run's completion state.
func (q *Queue) Progress() Progress {
	q.mu.Lock()
	defer q.mu.Unlock()
	p := Progress{Total: len(q.cells), Done: q.done, Requeued: q.requeued}
	now := q.now()
	for _, c := range q.cells {
		switch {
		case c.done && c.result.Cached:
			p.Cached++
		case c.done && c.result.Status != StatusPass:
			p.Failed++
		case !c.done && c.leased && (q.ttl == 0 || now.Before(c.leaseUntil)):
			p.Leased++
		}
	}
	return p
}

// Report assembles the run's report through AssembleReport, failures
// included. WallMS is the compute spent, the summed wall time of the
// cells that ran live, and Provenance carries one entry per named worker
// in name order. Returns nil until the run is complete.
func (q *Queue) Report() *Report {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.done != len(q.cells) {
		return nil
	}
	results := make([]Result, 0, len(q.cells))
	var wall int64
	for _, c := range q.cells {
		results = append(results, c.result)
		if !c.result.Cached {
			wall += c.result.WallMS
		}
	}
	rep := AssembleReport(q.opts, results, time.Duration(wall)*time.Millisecond)
	for name, w := range q.creditsLocked() {
		rep.Provenance.Shards = append(rep.Provenance.Shards,
			ShardInfo{Label: name, Scenarios: w.Executed, Live: w.Executed, WallMS: w.WallMS})
	}
	sort.Slice(rep.Provenance.Shards, func(i, j int) bool {
		return rep.Provenance.Shards[i].Label < rep.Provenance.Shards[j].Label
	})
	for i := range rep.Provenance.Shards {
		rep.Provenance.Shards[i].Index = i
	}
	return rep
}

// Credits returns, per named worker, the cells it completed: Executed of
// them, Failed failing, WallMS their summed wall time.
func (q *Queue) Credits() map[string]WorkerStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.creditsLocked()
}

func (q *Queue) creditsLocked() map[string]WorkerStats {
	credits := make(map[string]WorkerStats)
	for _, c := range q.cells {
		if c.done && c.worker != "" {
			w := credits[c.worker]
			w.Executed++
			w.WallMS += c.result.WallMS
			if c.result.Status != StatusPass {
				w.Failed++
			}
			credits[c.worker] = w
		}
	}
	return credits
}

// A Source hands out a run's cells and takes their results back: a Queue
// in process, a matrixd server over HTTP.
type Source interface {
	// Lease returns the next cell to run, nil once the run is complete,
	// or a *BusyError when every remaining cell is held elsewhere.
	Lease() (*Lease, error)
	// Complete hands a leased cell's result back.
	Complete(l *Lease, res Result) error
}

// WorkerStats summarizes one Drain call: cells executed (Failed of them
// failing, WallMS their summed wall cost) and cells served from the
// local tier.
type WorkerStats struct {
	Executed, LocalHits, Failed int
	WallMS                      int64
}

// Drain is the one worker loop, for Run's in-process workers and a
// matrixd fleet alike: lease a cell, serve it from the local store tier
// or execute it (storing a passing live result back into the tier), hand
// the result back, repeat until src reports the run complete. o.Parallel
// goroutines drain concurrently (at least one), each cell runs under o,
// and o.OnCell hears of every cell handed back. A busy answer comes only
// after the source has held the request, so Drain asks again at once
// rather than sleeping. The aggregate stats and the first error are
// returned; an error stops every goroutine at its next lease.
func Drain(src Source, o Options, local Store, execute func(Spec, Options) Result) (WorkerStats, error) {
	if execute == nil {
		execute = RunCell
	}
	var (
		mu    sync.Mutex
		stats WorkerStats
		first error
		stop  atomic.Bool
		wg    sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	for p := 0; p < max(o.Parallel, 1); p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				l, err := src.Lease()
				switch {
				case errors.As(err, new(*BusyError)):
					continue
				case err != nil:
					fail(err)
					return
				case l == nil:
					return // run complete
				}
				res, hit := Result{}, false
				if local != nil {
					if cached, ok := local.Get(l.Hash); ok && cached.ID == l.ID {
						res, hit = cached, true
						res.Cached = true
					}
				}
				if !hit {
					res = execute(l.Spec, o)
					if local != nil && res.Status == StatusPass {
						// Best-effort: a failed Put only means this cell
						// runs live again next time.
						_ = local.Put(l.Hash, res)
					}
				}
				if err := src.Complete(l, res); err != nil {
					fail(err)
					return
				}
				if o.OnCell != nil {
					o.OnCell(CellEvent{ID: res.ID, Cached: hit, WallMS: res.WallMS})
				}
				mu.Lock()
				if hit {
					stats.LocalHits++
				} else {
					stats.Executed++
					stats.WallMS += res.WallMS
					if res.Status != StatusPass {
						stats.Failed++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return stats, first
}
