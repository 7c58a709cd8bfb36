package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/scenario"
)

// DefaultLeaseTTL bounds how long a worker may sit on a cell before the
// scheduler hands it to someone else. It is sized for the full-scale
// fault cells (minutes of checkpoint/restart legs), because the cost of
// a too-short TTL — two workers racing the same straggler — is paid on
// exactly the most expensive cells.
const DefaultLeaseTTL = 10 * time.Minute

// ServerConfig describes one matrix run to serve.
type ServerConfig struct {
	// Specs is the cell set, deduplicated by the constructor exactly as
	// scenario.Run deduplicates (first occurrence wins).
	Specs []scenario.Spec
	// Options are the run-wide execution options; only the serialized
	// (result-determining) fields travel to workers.
	Options scenario.Options
	// Store is the persistent content-addressed backing store. It is read
	// once, by NewServer: cells it already holds are complete before the
	// first lease — the warm-start path — and its recorded wall times
	// drive lease ordering. After that the server only writes to it.
	Store *scenario.Cache
	// LeaseTTL overrides DefaultLeaseTTL when positive.
	LeaseTTL time.Duration
	// Now overrides the wall clock; tests inject a fake clock to expire
	// leases without sleeping. Nil means time.Now.
	Now func() time.Time
}

// cell is the scheduler's view of one matrix cell, and — once done — the
// server's only copy of its result: the run's cell table is what GET,
// HEAD and the report are answered from, never the store directory.
type cell struct {
	spec   scenario.Spec
	id     string
	hash   string
	expect int64 // expected wall ms, for longest-expected-first ordering

	done   bool
	cached bool            // satisfied by the store before any lease
	result scenario.Result // set with done and immutable from then on
	// entry is the store file's bytes, served verbatim on GET. Nil until
	// done, and for a failing result, which is never persisted or served.
	entry []byte

	leaseUntil time.Time
	worker     string // provenance: the worker whose upload completed it
	live       bool   // completed by an upload rather than the warm store
}

// Server is the matrixd core: an http.Handler serving the store and
// scheduler protocol for one enumerated matrix run.
type Server struct {
	opts  scenario.Options
	store *scenario.Cache
	ttl   time.Duration
	now   func() time.Time

	// cells (longest-expected-first) and byHash are built by NewServer and
	// never change shape afterwards, so looking a cell up needs no lock;
	// the cells' mutable fields are under mu.
	cells  []*cell
	byHash map[string]*cell
	// maxEntry bounds an uploaded body; tests shrink it.
	maxEntry int64

	mu     sync.Mutex
	done   int
	doneCh chan struct{}

	// Operational counters for /metrics and /status (all under mu).
	started       time.Time
	leaseGrants   int64
	leaseExpiries int64
	storeHits     int64
	storeMisses   int64
	bytesServed   int64
	bytesReceived int64
	storeWrites   int64
	storeWriteDur time.Duration
	workers       map[string]*workerStatus
}

// workerStatus is the server's liveness/throughput view of one worker,
// keyed by its X-Matrix-Worker name. Protected by Server.mu.
type workerStatus struct {
	leases    int64
	cells     int64
	failed    int64
	wallMS    int64
	firstSeen time.Time
	lastSeen  time.Time
}

// NewServer enumerates the run (hashes every cell, scans the store once
// for wall hints and already-complete results, orders the live queue
// longest-expected-first) and returns the ready-to-serve scheduler. The
// scan is the last time the server reads the store.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("remote: server requires a backing store")
	}
	s := &Server{
		opts:     cfg.Options,
		store:    cfg.Store,
		ttl:      cfg.LeaseTTL,
		now:      cfg.Now,
		byHash:   make(map[string]*cell, len(cfg.Specs)),
		maxEntry: 64 << 20,
		doneCh:   make(chan struct{}),
		workers:  make(map[string]*workerStatus),
	}
	if s.ttl <= 0 {
		s.ttl = DefaultLeaseTTL
	}
	if s.now == nil {
		s.now = time.Now
	}
	s.started = s.now()
	seen := make(map[string]bool, len(cfg.Specs))
	for _, spec := range cfg.Specs {
		id := spec.ID()
		if seen[id] {
			continue
		}
		seen[id] = true
		c := &cell{spec: spec, id: id, hash: scenario.CellHash(spec, cfg.Options)}
		s.cells = append(s.cells, c)
		s.byHash[c.hash] = c
	}
	if len(s.cells) == 0 {
		return nil, fmt.Errorf("remote: empty cell set")
	}
	// Entries outside this run are dropped as the scan passes them, so
	// what stays in memory is bounded by the run's own cell set.
	hints := cfg.Store.Scan(func(hash string, res scenario.Result, raw []byte) {
		if c := s.byHash[hash]; c != nil && res.ID == c.id {
			c.done, c.cached = true, true
			c.result, c.entry = res, raw
			s.done++
		}
	})
	for _, c := range s.cells {
		c.expect = expectedWall(c, cfg.Options, hints)
	}
	// Longest-expected-first: the 10-rep fault stragglers go to the
	// front of the queue so no worker discovers one with the rest of
	// the fleet already idle. The sort is stable, so equal expectations
	// keep enumeration order and the schedule is deterministic.
	sort.SliceStable(s.cells, func(i, j int) bool { return s.cells[i].expect > s.cells[j].expect })
	if s.done == len(s.cells) {
		close(s.doneCh)
	}
	return s, nil
}

// expectedWall predicts one cell's wall cost for queue ordering. A
// recorded wall time from a previous run of the same cell ID — any
// engine generation; a stale result is still a current cost estimate —
// wins outright; cells that have never run backfill from a shape
// heuristic ranking the known straggler classes: crash cells that pay
// checkpoint/restart legs dominate, in-place recoveries and degraded
// completions follow, then restart pairings, then checkpointed
// straight runs, then plain cells. Everything scales with the
// repetition count, which is exactly what makes 10-rep fault cells the
// stragglers the ISSUE names. Expected cost orders the queue and
// nothing else — a wrong guess costs schedule quality, never
// correctness.
func expectedWall(c *cell, o scenario.Options, hints map[string]int64) int64 {
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
	reps := o.Reps
	if reps <= 0 {
		reps = 1
	}
	return w * int64(reps)
}

// Done returns a channel closed when every cell is complete.
func (s *Server) Done() <-chan struct{} { return s.doneCh }

// Progress snapshots the run's completion state.
func (s *Server) Progress() Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.progressLocked()
}

func (s *Server) progressLocked() Progress {
	p := Progress{Total: len(s.cells), Done: s.done}
	now := s.now()
	for _, c := range s.cells {
		switch {
		case c.done && c.cached:
			p.Cached++
		case c.done && c.result.Status != scenario.StatusPass:
			p.Failed++
		case !c.done && now.Before(c.leaseUntil):
			p.Leased++
		}
	}
	return p
}

// Report assembles the run's matrix report from the cell table — the
// results the server validated at upload or found in its start-up scan,
// failures included — exactly as an unsharded scenario.Run would have
// written it (IDs, seeds, hashes, measurements — wall times and
// provenance are the run's own). The store is not read. Provenance
// carries one entry per worker, labeled with the worker's name.
// Returns nil until the run is complete.
func (s *Server) Report() *scenario.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done != len(s.cells) {
		return nil
	}
	results := make([]scenario.Result, 0, len(s.cells))
	workers := make(map[string]*scenario.ShardInfo)
	var order []string
	var wall int64
	for _, c := range s.cells {
		res := c.result
		res.Cached = c.cached
		results = append(results, res)
		if c.live {
			wall += res.WallMS
			w := workers[c.worker]
			if w == nil {
				w = &scenario.ShardInfo{Label: c.worker}
				workers[c.worker] = w
				order = append(order, c.worker)
			}
			w.Scenarios++
			w.Live++
			w.WallMS += res.WallMS
		}
	}
	rep := scenario.AssembleReport(s.opts, results, time.Duration(wall)*time.Millisecond)
	sort.Strings(order)
	infos := make([]scenario.ShardInfo, 0, len(order))
	for i, name := range order {
		w := workers[name]
		w.Index = i
		infos = append(infos, *w)
	}
	rep.Provenance.Shards = infos
	return rep
}

// ServeHTTP routes the protocol. Routing is by hand (method + prefix)
// so the server behaves identically across Go versions' ServeMux
// semantics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/config" && r.Method == http.MethodGet:
		s.handleConfig(w)
	case r.URL.Path == "/lease" && r.Method == http.MethodPost:
		s.handleLease(w, r)
	case r.URL.Path == "/report" && r.Method == http.MethodGet:
		s.handleReport(w)
	case r.URL.Path == "/metrics" && r.Method == http.MethodGet:
		s.handleMetrics(w)
	case r.URL.Path == "/status" && r.Method == http.MethodGet:
		s.handleStatus(w)
	case strings.HasPrefix(r.URL.Path, "/cells/"):
		s.handleCell(w, r, strings.TrimPrefix(r.URL.Path, "/cells/"))
	default:
		http.NotFound(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleConfig(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, Manifest{
		SchemaVersion: scenario.SchemaVersion,
		EngineVersion: scenario.EngineVersion,
		Cells:         len(s.cells),
		Options:       s.opts,
	})
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	worker := workerName(r)
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		now := s.now()
		s.touchWorkerLocked(worker, now)
		remaining := len(s.cells) - s.done
		if remaining == 0 {
			s.mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
			return
		}
		var nextExpiry time.Time
		for _, c := range s.cells {
			if c.done {
				continue
			}
			if now.Before(c.leaseUntil) {
				// Held by a live lease; remember the earliest release in
				// case nothing is grantable.
				if nextExpiry.IsZero() || c.leaseUntil.Before(nextExpiry) {
					nextExpiry = c.leaseUntil
				}
				continue
			}
			// Grantable: never leased, or the previous lease expired — the
			// requeue that bounds a dead worker's cost to one TTL.
			if !c.leaseUntil.IsZero() {
				s.leaseExpiries++
			}
			s.leaseGrants++
			s.workers[worker].leases++
			c.leaseUntil = now.Add(s.ttl)
			lease := Lease{
				ID: c.id, Spec: c.spec, Hash: c.hash,
				TTLMS: s.ttl.Milliseconds(), Remaining: remaining,
			}
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, lease)
			return
		}
		// Every remaining cell is leased out: the fleet has more hands
		// than work. The common way this resolves is a live worker
		// finishing its straggler — not a lease expiring — so bouncing
		// the caller into a blind sleep would stretch the run's tail by
		// the whole sleep. Instead, hold the request once (bounded by the
		// earliest lease release, clamped to a second) and answer 204 the
		// moment the run completes; only if the hold elapses without
		// completion does the caller get a 503 with the retry hint.
		retry := nextExpiry.Sub(now)
		if retry < 50*time.Millisecond {
			retry = 50 * time.Millisecond
		}
		if retry > time.Second {
			retry = time.Second
		}
		s.mu.Unlock()
		if attempt == 0 {
			t := time.NewTimer(retry)
			select {
			case <-s.doneCh:
				t.Stop()
				w.WriteHeader(http.StatusNoContent)
				return
			case <-r.Context().Done():
				t.Stop()
				return
			case <-t.C:
				continue // a lease may have expired meanwhile; look again
			}
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]int64{"retry_ms": retry.Milliseconds()})
		return
	}
}

func (s *Server) handleReport(w http.ResponseWriter) {
	if rep := s.Report(); rep != nil {
		writeJSON(w, http.StatusOK, rep)
		return
	}
	s.mu.Lock()
	p := s.progressLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, p)
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request, hash string) {
	c := s.byHash[hash]
	if c == nil {
		// Content addresses outside this run are unknown by
		// construction: the server only answers for its own cells.
		http.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		s.serveCell(w, r, c)
	case http.MethodPut:
		s.acceptCell(w, r, c)
	default:
		w.Header().Set("Allow", "GET, HEAD, PUT")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// serveCell answers GET/HEAD from the cell table: a cell this run has
// completed with a passing result is a hit, served as the very bytes the
// store holds; anything else is a 404, whatever the store directory may
// contain. Entries are immutable — the address covers everything that
// determines the bytes — so the hash doubles as a strong ETag, and HEAD
// and a 304 revalidation touch neither the disk nor an encoder.
func (s *Server) serveCell(w http.ResponseWriter, r *http.Request, c *cell) {
	etag := `"` + c.hash + `"`
	revalidated := strings.Contains(r.Header.Get("If-None-Match"), etag)
	body := r.Method == http.MethodGet && !revalidated

	s.mu.Lock()
	entry := c.entry
	if entry == nil {
		s.storeMisses++
	} else {
		s.storeHits++
		if body {
			s.bytesServed += int64(len(entry))
		}
	}
	s.mu.Unlock()

	if entry == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	switch {
	case revalidated:
		w.WriteHeader(http.StatusNotModified)
	case !body:
		w.WriteHeader(http.StatusOK)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(entry)
	}
}

// acceptCell validates and stores an uploaded result, policing the
// wire the way Cache.Prune polices the local directory: undecodable
// entries and hash mismatches are 400s, an oversized body is a 413, a
// foreign EngineVersion is a 409, and none of them touch the store or
// the cell. Passing results persist; failing results stay in memory so
// they are re-attempted on the next server run, exactly like the local
// cache's failures-never-pinned rule. Duplicate uploads are idempotent.
//
// The store write happens outside s.mu, so a lease never queues behind
// a file system call. That lets two uploads of one cell race to the
// disk, which is harmless: entries are immutable and rename-published,
// both write equal bytes and either rename winning is correct. Only the
// first to come back under the lock completes the cell (201, after its
// rename succeeded); the other is the idempotent duplicate (200).
func (s *Server) acceptCell(w http.ResponseWriter, r *http.Request, c *cell) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxEntry))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "reading entry: "+err.Error(), status)
		return
	}
	var e wireEntry
	if err := json.Unmarshal(raw, &e); err != nil {
		http.Error(w, "undecodable entry: "+err.Error(), http.StatusBadRequest)
		return
	}
	switch {
	case e.Engine != scenario.EngineVersion:
		http.Error(w, fmt.Sprintf("entry engine version %d, server serves %d", e.Engine, scenario.EngineVersion),
			http.StatusConflict)
		return
	case e.Hash != c.hash:
		http.Error(w, "entry hash does not match its address", http.StatusBadRequest)
		return
	case e.Result.ID != c.id:
		http.Error(w, fmt.Sprintf("entry holds result for %q, address names %q", e.Result.ID, c.id),
			http.StatusBadRequest)
		return
	case e.Result.CellHash != "" && e.Result.CellHash != c.hash:
		http.Error(w, "result's stamped cell hash disagrees with its address (engine drift?)",
			http.StatusBadRequest)
		return
	}
	worker := workerName(r)
	res := e.Result
	res.Cached = false

	s.mu.Lock()
	s.bytesReceived += int64(len(raw))
	s.touchWorkerLocked(worker, s.now())
	done := c.done
	s.mu.Unlock()
	if done {
		// A re-upload of a completed cell: a worker that outlived its
		// lease, or a retry. The bytes are equal by determinism; accept
		// and change nothing.
		w.WriteHeader(http.StatusOK)
		return
	}

	var entry []byte
	var wrote time.Duration
	if res.Status == scenario.StatusPass {
		start := s.now()
		entry, err = s.store.PutEntry(c.hash, res)
		wrote = s.now().Sub(start)
		if err != nil {
			http.Error(w, "storing entry: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}

	if s.completeCell(c, worker, res, entry, wrote) {
		w.WriteHeader(http.StatusCreated)
	} else {
		// Lost the race to a concurrent upload of the same cell.
		w.WriteHeader(http.StatusOK)
	}
}

// completeCell records an upload whose store write (if it needed one)
// has succeeded, and reports whether it is the one that completed the
// cell rather than a duplicate that arrived while it was writing.
func (s *Server) completeCell(c *cell, worker string, res scenario.Result, entry []byte, wrote time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if entry != nil {
		s.storeWrites++
		s.storeWriteDur += wrote
	}
	if c.done {
		return false
	}
	c.done, c.live = true, true
	c.result, c.entry = res, entry
	c.worker = worker
	ws := s.workers[worker]
	ws.cells++
	ws.wallMS += res.WallMS
	if res.Status != scenario.StatusPass {
		ws.failed++
	}
	s.done++
	if s.done == len(s.cells) {
		close(s.doneCh)
	}
	return true
}
