package scenario

// Store is the narrow interface between the matrix engine and any
// content-addressed result store. The contract is exactly the directory
// cache's (Cache is the original implementation):
//
//   - Get(hash) returns the completed passing Result stored under the
//     cell address, or ok=false on ANY miss — absent, unreadable,
//     corrupt, stale-engine and mismatched entries are all
//     indistinguishable from "not cached", so a broken store degrades
//     to live execution, never to a wrong result.
//   - Put(hash, res) stores a Result under its address. Entries are
//     immutable once written: equal addresses hold equal results by
//     construction (the address covers everything that determines the
//     result, see CellHash), so overwriting and duplicate writes are
//     idempotent. Only passing Results may be stored; failures re-run.
//
// Implementations: *Cache (the local filesystem directory) and
// remote.Client (the matrixd HTTP store). Drain's local tier composes
// either under a run as read-through/write-back.
type Store interface {
	Get(hash string) (Result, bool)
	Put(hash string, res Result) error
}
