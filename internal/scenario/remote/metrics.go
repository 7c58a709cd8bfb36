package remote

// The matrixd operational plane: GET /metrics exposes the scheduler's
// counters in Prometheus text exposition format, GET /status renders
// the same state as a one-screen human summary. Both are snapshots
// under the scheduler mutex — cheap enough to scrape every few seconds
// against a server whose hot path is leases, not metrics.
//
// The counters are deliberately reconcilable with the assembled
// report's provenance: matrixd_worker_cells_total summed over workers
// equals the report's live count, matrixd_cells_cached equals its
// cached count, and matrixd_cells_done equals its cell total — so CI
// can cross-check the scraped plane against results.json.
//
// The store counters describe the two directions separately. Reads are
// answered from the run's cell table: matrixd_store_hits_total counts
// GET/HEAD requests for a cell this run holds a passing result for,
// matrixd_store_misses_total the rest; neither involves the disk. Writes
// do: matrixd_store_writes_total counts entries published to the store
// directory and matrixd_store_write_seconds_total the time spent doing
// it, measured around the write itself, which runs outside the scheduler
// mutex. Writes equal the passing share of matrixd_worker_cells_total
// unless two workers raced one cell, when both wrote (equal bytes) and
// one was credited; seconds/writes is the mean durable-write cost that
// bounds a PUT from below.

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// touchWorkerLocked records that a named worker was heard from at now.
// Callers hold s.mu.
func (s *Server) touchWorkerLocked(name string, now time.Time) {
	ws := s.workers[name]
	if ws == nil {
		ws = &workerStatus{firstSeen: now}
		s.workers[name] = ws
	}
	ws.lastSeen = now
}

// workerName extracts the request's worker label, matching acceptCell's
// historical provenance default for unlabeled workers.
func workerName(r *http.Request) string {
	if w := r.Header.Get(workerHeader); w != "" {
		return w
	}
	return "anonymous"
}

// sortedWorkersLocked returns the worker names in lexical order, so
// /metrics and /status render deterministically. Callers hold s.mu.
func (s *Server) sortedWorkersLocked() []string {
	names := make([]string, 0, len(s.workers))
	for name := range s.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Metrics renders the operational counters in Prometheus text
// exposition format (version 0.0.4): gauges for queue state, counters
// for everything cumulative, one labeled series per worker.
func (s *Server) Metrics() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.progressLocked()
	now := s.now()

	var b strings.Builder
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("matrixd_cells_total", "Cells in this matrix run.", int64(p.Total))
	gauge("matrixd_cells_done", "Cells complete (cached, live, or failed).", int64(p.Done))
	gauge("matrixd_cells_cached", "Cells satisfied by the warm store before any lease.", int64(p.Cached))
	gauge("matrixd_cells_failed", "Cells whose uploaded result was a failure.", int64(p.Failed))
	gauge("matrixd_cells_leased", "Cells currently out on a live lease.", int64(p.Leased))
	gauge("matrixd_cells_queued", "Cells neither done nor leased.", int64(p.Total-p.Done-p.Leased))
	counter("matrixd_lease_grants_total", "Leases granted, including regrants of expired leases.", s.leaseGrants)
	counter("matrixd_lease_expiries_total", "Leases that expired and were regranted to another worker.", s.leaseExpiries)
	counter("matrixd_store_hits_total", "GET and HEAD /cells requests answered from the run's cell table.", s.storeHits)
	counter("matrixd_store_misses_total", "GET and HEAD /cells requests for a cell this run has not completed.", s.storeMisses)
	counter("matrixd_store_served_bytes_total", "Result bytes served to workers.", s.bytesServed)
	counter("matrixd_store_received_bytes_total", "Result bytes uploaded by workers.", s.bytesReceived)
	counter("matrixd_store_writes_total", "Entries published to the store directory.", s.storeWrites)
	fmt.Fprintf(&b, "# HELP %[1]s %[2]s\n# TYPE %[1]s counter\n%[1]s %.6[3]f\n", "matrixd_store_write_seconds_total",
		"Seconds spent publishing entries to the store directory, outside the scheduler lock.", s.storeWriteDur.Seconds())
	gauge("matrixd_uptime_seconds", "Seconds since the scheduler was constructed.", int64(now.Sub(s.started).Seconds()))

	names := s.sortedWorkersLocked()
	series := func(name, help, typ string, val func(*workerStatus) int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, n := range names {
			fmt.Fprintf(&b, "%s{worker=%q} %d\n", name, n, val(s.workers[n]))
		}
	}
	if len(names) > 0 {
		series("matrixd_worker_cells_total", "Cells completed live by this worker.", "counter",
			func(w *workerStatus) int64 { return w.cells })
		series("matrixd_worker_failed_total", "Failing results uploaded by this worker.", "counter",
			func(w *workerStatus) int64 { return w.failed })
		series("matrixd_worker_leases_total", "Leases granted to this worker.", "counter",
			func(w *workerStatus) int64 { return w.leases })
		series("matrixd_worker_wall_ms_total", "Wall milliseconds of live cell execution by this worker.", "counter",
			func(w *workerStatus) int64 { return w.wallMS })
		series("matrixd_worker_last_seen_seconds", "Seconds since this worker was last heard from.", "gauge",
			func(w *workerStatus) int64 { return int64(now.Sub(w.lastSeen).Seconds()) })
	}
	return b.String()
}

// Status renders a one-screen human summary of the same state.
func (s *Server) Status() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.progressLocked()
	now := s.now()

	var b strings.Builder
	fmt.Fprintf(&b, "matrixd up %v\n", now.Sub(s.started).Round(time.Second))
	fmt.Fprintf(&b, "cells: %d/%d done (%d cached, %d failed), %d leased, %d queued\n",
		p.Done, p.Total, p.Cached, p.Failed, p.Leased, p.Total-p.Done-p.Leased)
	fmt.Fprintf(&b, "leases: %d granted, %d expired+requeued\n", s.leaseGrants, s.leaseExpiries)
	fmt.Fprintf(&b, "store: %d hits, %d misses, %d B served, %d B received, %d writes in %v\n",
		s.storeHits, s.storeMisses, s.bytesServed, s.bytesReceived, s.storeWrites, s.storeWriteDur.Round(time.Millisecond))
	names := s.sortedWorkersLocked()
	if len(names) == 0 {
		fmt.Fprintf(&b, "workers: none seen yet\n")
		return b.String()
	}
	fmt.Fprintf(&b, "workers (%d):\n", len(names))
	for _, n := range names {
		w := s.workers[n]
		tput := "-"
		if w.cells > 0 && w.wallMS > 0 {
			tput = fmt.Sprintf("%.2f cells/s", float64(w.cells)/(float64(w.wallMS)/1000))
		}
		fmt.Fprintf(&b, "  %-20s %3d cells (%d failed), %6.1fs wall, %s, last seen %v ago\n",
			n, w.cells, w.failed, float64(w.wallMS)/1000, tput, now.Sub(w.lastSeen).Round(time.Second))
	}
	return b.String()
}

func (s *Server) handleMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, s.Metrics())
}

func (s *Server) handleStatus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, s.Status())
}
