package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

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
	// Store is the persistent content-addressed backing store, read once
	// by NewServer and only written to after that.
	Store *scenario.Cache
	// LeaseTTL overrides DefaultLeaseTTL when positive.
	LeaseTTL time.Duration
	// Now overrides the wall clock; tests inject a fake clock to expire
	// leases without sleeping. Nil means time.Now.
	Now func() time.Time
}

// Server is the matrixd core: the HTTP transport over one matrix run's
// scenario.Queue, serving the store and scheduler protocol.
type Server struct {
	q     *scenario.Queue
	opts  scenario.Options
	store *scenario.Cache
	now   func() time.Time
	// maxEntry bounds an uploaded body; tests shrink it.
	maxEntry int64

	// Operational counters for /metrics and /status (all under mu).
	mu            sync.Mutex
	started       time.Time
	leaseGrants   int64
	storeHits     int64
	storeMisses   int64
	bytesServed   int64
	bytesReceived int64
	storeWrites   int64
	storeWriteDur time.Duration
	workers       map[string]*workerStatus
}

// workerStatus is the server's liveness view of one worker, keyed by its
// X-Matrix-Worker name (the cells it completed are the queue's Credits).
// Protected by Server.mu.
type workerStatus struct {
	leases   int64
	lastSeen time.Time
}

// NewServer enumerates the run into a scenario.Queue and seeds it with a
// scan of the store: cells the store already holds are complete before
// the first lease, and its recorded wall times order the live queue
// longest-expected-first. The scan is the last time the server reads
// the store.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("remote: server requires a backing store")
	}
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	s := &Server{
		q:        scenario.NewQueue(cfg.Specs, cfg.Options, ttl, now),
		opts:     cfg.Options,
		store:    cfg.Store,
		now:      now,
		maxEntry: 64 << 20,
		started:  now(),
		workers:  make(map[string]*workerStatus),
	}
	if s.q.Progress().Total == 0 {
		return nil, fmt.Errorf("remote: empty cell set")
	}
	s.q.Warm(cfg.Store.Scan)
	return s, nil
}

// Done returns a channel closed when every cell is complete.
func (s *Server) Done() <-chan struct{} { return s.q.Done() }

// Progress snapshots the run's completion state.
func (s *Server) Progress() scenario.Progress { return s.q.Progress() }

// Report assembles the run's matrix report from the results the server
// validated at upload or found in its start-up scan, failures included,
// exactly as an in-process scenario.Run would have written it (IDs,
// seeds, hashes, measurements; wall times and provenance are the run's
// own). The store is not read. Provenance carries one entry per worker,
// labeled with the worker's name. Returns nil until the run is complete.
func (s *Server) Report() *scenario.Report { return s.q.Report() }

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
		Cells:         s.q.Progress().Total,
		Options:       s.opts,
	})
}

// handleLease grants the next cell. When every remaining cell is leased
// out, the fleet has more hands than work, and the common way that
// resolves is a live worker finishing its straggler, not a lease
// expiring; bouncing the caller into a blind sleep would stretch the
// run's tail by the whole sleep. So the queue holds the request for up
// to a second and the answer is a 204 the moment the run completes; only
// if the hold elapses first does the caller get a 503 with the retry
// hint.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	hold := time.NewTimer(time.Second)
	l, retry := s.q.Lease(hold.C, r.Context().Done())
	hold.Stop()
	worker := workerName(r)
	s.mu.Lock()
	s.touchWorkerLocked(worker, s.now())
	if l != nil {
		s.leaseGrants++
		s.workers[worker].leases++
	}
	s.mu.Unlock()
	switch {
	case l != nil:
		writeJSON(w, http.StatusOK, l)
	case retry == 0:
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, http.StatusServiceUnavailable, map[string]int64{"retry_ms": retry.Milliseconds()})
	}
}

func (s *Server) handleReport(w http.ResponseWriter) {
	if rep := s.Report(); rep != nil {
		writeJSON(w, http.StatusOK, rep)
		return
	}
	writeJSON(w, http.StatusAccepted, s.Progress())
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request, hash string) {
	id, _, _ := s.q.Cell(hash)
	if id == "" {
		// Content addresses outside this run are unknown by
		// construction: the server only answers for its own cells.
		http.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		s.serveCell(w, r, hash)
	case http.MethodPut:
		s.acceptCell(w, r, hash, id)
	default:
		w.Header().Set("Allow", "GET, HEAD, PUT")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// serveCell answers GET/HEAD from the queue: a cell this run has
// completed with a passing result is a hit, served as the very bytes the
// store holds; anything else is a 404, whatever the store directory may
// contain. Entries are immutable — the address covers everything that
// determines the bytes — so the hash doubles as a strong ETag, and HEAD
// and a 304 revalidation touch neither the disk nor an encoder.
func (s *Server) serveCell(w http.ResponseWriter, r *http.Request, hash string) {
	etag := `"` + hash + `"`
	revalidated := strings.Contains(r.Header.Get("If-None-Match"), etag)
	body := r.Method == http.MethodGet && !revalidated

	_, _, entry := s.q.Cell(hash)
	s.mu.Lock()
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

// acceptCell validates and stores an uploaded result, policing the wire
// the way Cache.Prune polices the local directory (see the package doc
// for the status codes); a rejected upload touches neither the store nor
// the cell. Passing results persist; failing results complete the cell in
// memory only, exactly like the local cache's failures-never-pinned rule.
//
// The store write happens outside every lock, so a lease never queues
// behind a file system call. Two uploads of one cell may race to the
// disk, which is harmless: entries are immutable and rename-published.
// The first to complete the queue's cell gets the 201; the other is the
// idempotent duplicate (200).
func (s *Server) acceptCell(w http.ResponseWriter, r *http.Request, hash, id string) {
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
	case e.Hash != hash:
		http.Error(w, "entry hash does not match its address", http.StatusBadRequest)
		return
	case e.Result.ID != id:
		http.Error(w, fmt.Sprintf("entry holds result for %q, address names %q", e.Result.ID, id),
			http.StatusBadRequest)
		return
	case e.Result.CellHash != "" && e.Result.CellHash != hash:
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
	s.mu.Unlock()
	if _, done, _ := s.q.Cell(hash); done {
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
		entry, err = s.store.PutEntry(hash, res)
		wrote = s.now().Sub(start)
		if err != nil {
			http.Error(w, "storing entry: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}

	if entry != nil {
		s.mu.Lock()
		s.storeWrites++
		s.storeWriteDur += wrote
		s.mu.Unlock()
	}
	if s.q.Complete(hash, worker, res, entry) {
		w.WriteHeader(http.StatusCreated)
	} else {
		// Lost the race to a concurrent upload of the same cell.
		w.WriteHeader(http.StatusOK)
	}
}
