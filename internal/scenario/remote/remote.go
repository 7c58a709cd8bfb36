// Package remote serves a matrix run over HTTP: matrix-as-a-service.
// One content-addressed store server (cmd/matrixd) hands the run's cells
// to any number of coordination-free worker processes and keeps the
// results they upload. The scheduler is scenario.Queue, the one Run
// drains in process; the Server is its HTTP transport, and a worker's
// Client.Drain is scenario.Drain over HTTP.
//
// The store half is the scenario.Store interface over HTTP. The server
// reads its store directory once, when it starts (NewServer's scan seeds
// the queue); from then on the queue is the only read path, and the
// directory is only written to:
//
//	GET  /cells/<hash>   the entry of a cell this run has completed, as
//	                     the very bytes the store directory holds; 404
//	                     for every other address, including a cell of
//	                     this run not yet complete (an entry another
//	                     process drops into the directory is seen by the
//	                     next server). Entries are immutable, so the hash
//	                     is a strong ETag with an immutable Cache-Control;
//	                     If-None-Match revalidates to a 304.
//	HEAD /cells/<hash>   existence probe, same headers, no body.
//	PUT  /cells/<hash>   store a completed entry. Undecodable bodies and
//	                     address mismatches are 400s, a foreign
//	                     EngineVersion is a 409, an oversized body a 413,
//	                     and none is stored. Passing results persist by
//	                     the local cache's atomic temp+rename, written
//	                     outside every lock, and the 201 is sent once the
//	                     rename succeeded; a failed write is a 500 that
//	                     leaves the cell live. Failing results complete
//	                     the cell in memory only, so a failure is never
//	                     pinned across server runs. Of two racing uploads
//	                     of one cell the first to finish completes it
//	                     (201); the other is a 200 that changes nothing.
//
// The scheduler half:
//
//	GET  /config         the run manifest: schema/engine versions, the
//	                     serialized Options and the cell count. Clients
//	                     refuse a manifest from a different engine.
//	POST /lease          the next cell of the queue, longest-expected-first
//	                     (recorded wall times from the start-up scan,
//	                     shape heuristics for cells that never ran), 200
//	                     with a TTL; 204 once every cell is complete. When
//	                     every remaining cell is leased out the queue
//	                     holds the request (at most a second) so that
//	                     completion is an immediate 204; if the hold
//	                     elapses first, 503 with a retry hint. An expired
//	                     lease requeues its cell, so a dead worker costs
//	                     one TTL.
//	GET  /report         the report the queue assembles (200) once every
//	                     cell is complete, with each worker's cell count
//	                     and wall time in its provenance; 202 with
//	                     progress counts while the fleet is draining.
//
// What the server retains is one Result and one entry per completed cell
// of its run. Determinism does the rest: any interleaving of any number of
// workers produces the report an in-process Run would have, cell for cell.
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

// wireEntry is the on-wire shape of one stored cell: the local cache's,
// so a remote store directory and a local one hold interchangeable bytes.
type wireEntry = scenario.Entry

// workerHeader carries the worker's self-chosen name on lease and
// upload requests; the server uses it only for provenance labels.
const workerHeader = "X-Matrix-Worker"
