// Package remote promotes the scenario result cache from a filesystem
// directory to a network protocol: matrix-as-a-service. It is the
// paper's "re-validate the world on every commit" made cheap — one
// content-addressed store server (cmd/matrixd) serves completed cell
// results to any number of coordination-free worker processes, and a
// lease-based work-stealing scheduler replaces static -shard i/n
// partitioning, whose wall time was gated by whichever shard drew the
// fault-recovery stragglers.
//
// The protocol has two halves, both deliberately narrow:
//
// The store half is the Store interface over HTTP, one route per verb.
// The server reads its store directory exactly once, when it starts
// (NewServer's scan); from then on the run's in-memory cell table is
// the only read path, and the directory is only written to:
//
//	GET  /cells/<hash>   the entry of a cell this run has completed —
//	                     found in the start-up scan or uploaded since —
//	                     as the very bytes the store directory holds,
//	                     kept in memory; 404 for every other address,
//	                     including a cell of this run that is not yet
//	                     complete, without a disk probe (an entry that
//	                     another process drops into the directory
//	                     mid-run is seen by the next server, not this
//	                     one). Entries are immutable — equal addresses
//	                     hold equal results by construction — so
//	                     responses carry the hash as a strong ETag plus
//	                     an immutable Cache-Control, and If-None-Match
//	                     revalidates for free. 304 on match.
//	HEAD /cells/<hash>   existence probe, same headers, no body. HEAD
//	                     and 304 touch neither the disk nor an encoder.
//	PUT  /cells/<hash>   store a completed entry. Validated the way
//	                     Cache.Prune polices the local directory:
//	                     undecodable bodies, hash mismatches and
//	                     results stamped with a foreign EngineVersion
//	                     are rejected (400/409), an oversized body is
//	                     a 413, and none is stored. Passing results
//	                     persist via the same atomic temp+rename
//	                     discipline as the local cache, written outside
//	                     the scheduler's lock, and the 201 is sent only
//	                     once the rename has succeeded; the validated
//	                     result and the published bytes stay on the
//	                     cell. Failing results are held in memory only,
//	                     so a failure is never pinned across server
//	                     runs. Duplicate PUTs of the same hash are
//	                     idempotent (the bytes are equal by
//	                     determinism): of two racing uploads the first
//	                     to finish completes the cell (201) and the
//	                     other is a 200 that changes nothing.
//
// What the server retains is bounded by the run's own cell set: one
// decoded Result and one encoded entry per completed cell, 1-2 KB each
// (the 252-cell matrix's entries total 330 KB on disk, so under 1 MB
// held). Store entries outside the run are dropped as the start-up scan
// passes them.
//
// The scheduler half hands out the live work:
//
//	GET  /config         the run manifest: schema/engine versions, the
//	                     serialized Options (everything that determines
//	                     cell results), and the cell count. Clients
//	                     refuse a manifest from a different engine.
//	POST /lease          the next uncached cell, longest-expected-first
//	                     (recorded wall times from the store's start-up
//	                     scan, shape heuristics when a cell has never
//	                     run), with a deadline. 200 with the
//	                     lease, 204 when every cell is complete. When
//	                     all remaining cells are leased out the server
//	                     holds the request briefly (long-poll, bounded
//	                     by the earliest lease release and one second)
//	                     so completion turns into an immediate 204
//	                     rather than a sleep-length tail; if the hold
//	                     elapses first, 503 with a retry hint. An
//	                     expired lease requeues the cell, so a dead
//	                     worker costs one lease TTL, not a shard.
//	GET  /report         the assembled matrix report (200) once every
//	                     cell is complete; 202 with progress counts
//	                     while the fleet is still draining. The server
//	                     assembles the report from the results it kept
//	                     as they streamed in — there is no separate
//	                     merge step and no store read — and its
//	                     provenance records each worker's cell count
//	                     and wall time the way shard provenance did.
//
// Workers need no configuration beyond the server URL: Dial fetches the
// manifest, Drain leases cells, executes them with scenario.RunCell,
// and uploads the results, optionally composing a local directory cache
// under the remote store (scenario.Tiered) so warm local results are
// published instead of re-executed. Determinism does the rest: any
// interleaving of any number of workers produces the same report an
// unsharded single-process run would have, cell for cell.
package remote

import (
	"repro/internal/scenario"
)

// Manifest is the run description served at /config: the two version
// stamps a client must agree on, the serialized Options (exactly the
// result-determining fields — run-local knobs are excluded from
// Options' JSON), and the cell count.
type Manifest struct {
	SchemaVersion int              `json:"schema_version"`
	EngineVersion int              `json:"engine_version"`
	Cells         int              `json:"cells"`
	Options       scenario.Options `json:"options"`
}

// Lease is one granted unit of work: the cell to execute and the
// deadline discipline. A worker that cannot upload the result before
// TTL elapses should assume the cell has been re-leased; its own
// upload remains welcome (idempotent) but may be credited to another
// worker.
type Lease struct {
	// ID and Spec name the cell; Hash is its content address, which the
	// worker must independently reproduce (CellHash over Spec and the
	// manifest Options) — a mismatch means the two sides' engines have
	// drifted and the result would be unusable.
	ID   string        `json:"id"`
	Spec scenario.Spec `json:"spec"`
	Hash string        `json:"hash"`
	// TTLMS is the lease duration in milliseconds.
	TTLMS int64 `json:"ttl_ms"`
	// Remaining counts cells not yet complete, this one included —
	// worker-side progress display.
	Remaining int `json:"remaining"`
}

// Progress is the run's completion state, served with a 202 at /report
// while incomplete.
type Progress struct {
	Total  int `json:"total"`
	Done   int `json:"done"`
	Cached int `json:"cached"`
	Failed int `json:"failed"`
	Leased int `json:"leased"`
}

// wireEntry is the on-wire shape of one stored cell: the same triple
// the local cache persists (engine stamp, address, result) plus the
// top-level wall_ms scheduling hint, so a remote store directory and a
// local one hold interchangeable bytes.
type wireEntry struct {
	Engine int             `json:"engine_version"`
	Hash   string          `json:"hash"`
	WallMS int64           `json:"wall_ms,omitempty"`
	Result scenario.Result `json:"result"`
}

// workerHeader carries the worker's self-chosen name on lease and
// upload requests; the server uses it only for provenance labels.
const workerHeader = "X-Matrix-Worker"
