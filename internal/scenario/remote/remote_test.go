package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
)

// fakeClock drives lease expiry without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testSpecs picks a small, shape-diverse slice of the real matrix:
// plain cells, a checkpointed cell, a restart pairing and a fault cell,
// so lease ordering and the live equivalence test cover the straggler
// classes. Enumerate only yields valid cells, so every pick is runnable.
func testSpecs(t *testing.T, n int) []scenario.Spec {
	t.Helper()
	all := scenario.DefaultMatrix().Enumerate()
	var plain, ckpt, restart, fault []scenario.Spec
	for _, s := range all {
		switch {
		case s.Fault != "":
			fault = append(fault, s)
		case s.HasRestart():
			restart = append(restart, s)
		case s.Ckpt != "none":
			ckpt = append(ckpt, s)
		default:
			plain = append(plain, s)
		}
	}
	picks := []scenario.Spec{plain[0], plain[1], ckpt[0], restart[0], fault[0], fault[len(fault)-1]}
	if n < len(picks) {
		picks = picks[:n]
	}
	for len(picks) < n {
		picks = append(picks, plain[len(picks)])
	}
	return picks
}

// tinyOptions is the smallest runnable scale (mirrors the scenario
// package's fault-capable test options: 2x2 ranks so node-crash cells
// have a surviving node).
func tinyOptions() scenario.Options {
	return scenario.Options{
		Nodes: 2, RanksPerNode: 2, Reps: 1,
		MaxSize: 64, Iters: 2, Warmup: 1,
		AppScale: 0.01, Timeout: time.Minute,
	}
}

func newTestServer(t *testing.T, specs []scenario.Spec, o scenario.Options, dir string, clk *fakeClock, ttl time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	store, err := scenario.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{Specs: specs, Options: o, Store: store, LeaseTTL: ttl}
	if clk != nil {
		cfg.Now = clk.now
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
}

// stubResult is the deterministic fake execution used by protocol
// tests: same bytes for the same cell no matter which worker runs it.
func stubResult(s scenario.Spec, o scenario.Options) scenario.Result {
	return scenario.Result{
		ID: s.ID(), Spec: s, Status: scenario.StatusPass,
		Reps: o.Reps, WallMS: int64(len(s.ID())),
	}
}

func putEntry(t *testing.T, base, hash, worker string, e wireEntry) int {
	t.Helper()
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return putRaw(t, base, hash, worker, raw)
}

func putRaw(t *testing.T, base, hash, worker string, body []byte) int {
	t.Helper()
	code, err := tryPut(base, hash, worker, body)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// tryPut is putRaw for goroutines other than the test's own, which may
// not call t.Fatal.
func tryPut(base, hash, worker string, body []byte) (int, error) {
	req, err := http.NewRequest(http.MethodPut, base+"/cells/"+hash, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if worker != "" {
		req.Header.Set(workerHeader, worker)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// Lease order is longest-expected-first: with no recorded history the
// shape heuristic front-loads fault cells; a recorded wall time for a
// cell — even under a stale address from a previous engine or seed —
// overrides the heuristic, which is the warm-start satellite.
func TestLeaseOrderingLongestExpectedFirst(t *testing.T) {
	specs := testSpecs(t, 6)
	o := tinyOptions()
	dir := t.TempDir()

	_, hs := newTestServer(t, specs, o, dir, nil, 0)
	client, err := Dial(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for {
		l, err := client.Lease()
		if err != nil {
			var busy *BusyError
			if errors.As(err, &busy) {
				break // all leased, none uploaded: queue exhausted
			}
			t.Fatal(err)
		}
		if l == nil {
			break
		}
		order = append(order, l.ID)
	}
	if len(order) != len(specs) {
		t.Fatalf("leased %d cells, want %d", len(order), len(specs))
	}
	// Fault cells (heaviest shapes) must all be granted before any plain
	// cell (lightest shape).
	lastFault, firstPlain := -1, len(order)
	for i, id := range order {
		spec := specByID(t, specs, id)
		switch {
		case spec.Fault != "":
			lastFault = i
		case spec.Ckpt == "none" && !spec.HasRestart():
			if i < firstPlain {
				firstPlain = i
			}
		}
	}
	if lastFault > firstPlain {
		t.Fatalf("plain cell leased before a fault straggler: %v", order)
	}

	// Warm-start: record an enormous wall time for one plain cell under a
	// DIFFERENT base seed (different address, same ID — the address is
	// about to miss, the cost is still the best predictor). A fresh
	// server must lease that cell first.
	plain := specs[0]
	oldOpts := o
	oldOpts.BaseSeed = 999
	store, err := scenario.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := stubResult(plain, oldOpts)
	res.WallMS = 1 << 30
	if err := store.Put(scenario.CellHash(plain, oldOpts), res); err != nil {
		t.Fatal(err)
	}
	_, hs2 := newTestServer(t, specs, o, dir, nil, 0)
	client2, err := Dial(hs2.URL)
	if err != nil {
		t.Fatal(err)
	}
	first, err := client2.Lease()
	if err != nil || first == nil {
		t.Fatalf("lease = %v, %v", first, err)
	}
	if first.ID != plain.ID() {
		t.Fatalf("recorded wall hint ignored: first lease is %s, want %s", first.ID, plain.ID())
	}
}

func specByID(t *testing.T, specs []scenario.Spec, id string) scenario.Spec {
	t.Helper()
	for _, s := range specs {
		if s.ID() == id {
			return s
		}
	}
	t.Fatalf("unknown cell %s", id)
	return scenario.Spec{}
}

// An expired lease requeues its cell: a dead worker costs one TTL, not
// a shard. The re-upload from the late first worker is idempotent.
func TestLeaseExpiryRequeuesCell(t *testing.T) {
	specs := testSpecs(t, 1)
	o := tinyOptions()
	clk := newFakeClock()
	srv, hs := newTestServer(t, specs, o, t.TempDir(), clk, time.Minute)
	client, err := Dial(hs.URL)
	if err != nil {
		t.Fatal(err)
	}

	l1, err := client.Lease()
	if err != nil || l1 == nil {
		t.Fatalf("lease = %v, %v", l1, err)
	}
	if l1.TTLMS != time.Minute.Milliseconds() {
		t.Fatalf("lease TTL %dms, want 60000", l1.TTLMS)
	}

	// Held: the only cell is leased, so the next ask is a busy signal
	// carrying a retry hint bounded by the fake clock's distance to
	// expiry (clamped to 1s).
	if _, err := client.Lease(); err == nil {
		t.Fatal("second lease granted while the first is live")
	} else {
		var busy *BusyError
		if !errors.As(err, &busy) {
			t.Fatalf("err = %v, want *BusyError", err)
		}
		if busy.Retry < 50*time.Millisecond || busy.Retry > time.Second {
			t.Fatalf("retry hint %v outside [50ms, 1s]", busy.Retry)
		}
	}

	// Worker 1 dies mid-cell (simply never uploads). One TTL later the
	// cell is grantable again.
	clk.advance(time.Minute + time.Second)
	l2, err := client.Lease()
	if err != nil || l2 == nil {
		t.Fatalf("post-expiry lease = %v, %v", l2, err)
	}
	if l2.ID != l1.ID || l2.Hash != l1.Hash {
		t.Fatalf("requeue granted a different cell: %+v vs %+v", l2, l1)
	}

	// Worker 2 completes it.
	res := stubResult(specs[0], o)
	if code := putEntry(t, hs.URL, l2.Hash, "w2",
		wireEntry{Engine: scenario.EngineVersion, Hash: l2.Hash, WallMS: res.WallMS, Result: res}); code != http.StatusCreated {
		t.Fatalf("upload = %d, want 201", code)
	}
	// Worker 1 rises from the dead and re-uploads: idempotent 200, and
	// the completion is still credited to w2.
	if code := putEntry(t, hs.URL, l2.Hash, "w1",
		wireEntry{Engine: scenario.EngineVersion, Hash: l2.Hash, WallMS: res.WallMS, Result: res}); code != http.StatusOK {
		t.Fatalf("duplicate upload = %d, want 200", code)
	}
	rep := srv.Report()
	if rep == nil || rep.Scenarios != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Provenance.Shards) != 1 || rep.Provenance.Shards[0].Label != "w2" {
		t.Fatalf("completion credited to %+v, want w2", rep.Provenance.Shards)
	}
	// Run complete: further leases are a clean 204.
	if l, err := client.Lease(); err != nil || l != nil {
		t.Fatalf("post-completion lease = %v, %v, want nil, nil", l, err)
	}
}

// The server polices PUTs the way Cache.Prune polices the local
// directory: corrupt bodies, mismatched addresses and foreign engine
// versions are rejected and never stored.
func TestPutValidationMirrorsPrune(t *testing.T) {
	specs := testSpecs(t, 1)
	o := tinyOptions()
	dir := t.TempDir()
	srv, hs := newTestServer(t, specs, o, dir, nil, 0)
	hash := scenario.CellHash(specs[0], o)
	good := stubResult(specs[0], o)

	if code := putRaw(t, hs.URL, hash, "w", []byte("{torn write")); code != http.StatusBadRequest {
		t.Fatalf("corrupt body = %d, want 400", code)
	}
	if code := putEntry(t, hs.URL, hash, "w",
		wireEntry{Engine: scenario.EngineVersion + 1, Hash: hash, Result: good}); code != http.StatusConflict {
		t.Fatalf("foreign engine = %d, want 409", code)
	}
	if code := putEntry(t, hs.URL, hash, "w",
		wireEntry{Engine: scenario.EngineVersion, Hash: strings.Repeat("ab", 32), Result: good}); code != http.StatusBadRequest {
		t.Fatalf("hash/address mismatch = %d, want 400", code)
	}
	alien := good
	alien.ID = "someone/else"
	if code := putEntry(t, hs.URL, hash, "w",
		wireEntry{Engine: scenario.EngineVersion, Hash: hash, Result: alien}); code != http.StatusBadRequest {
		t.Fatalf("foreign result ID = %d, want 400", code)
	}
	drifted := good
	drifted.CellHash = strings.Repeat("cd", 32)
	if code := putEntry(t, hs.URL, hash, "w",
		wireEntry{Engine: scenario.EngineVersion, Hash: hash, Result: drifted}); code != http.StatusBadRequest {
		t.Fatalf("stamped-hash drift = %d, want 400", code)
	}
	if code := putEntry(t, hs.URL, strings.Repeat("ef", 32), "w",
		wireEntry{Engine: scenario.EngineVersion, Hash: strings.Repeat("ef", 32), Result: good}); code != http.StatusNotFound {
		t.Fatalf("address outside the run = %d, want 404", code)
	}

	// None of it landed: no progress, nothing in the store.
	if p := srv.Progress(); p.Done != 0 {
		t.Fatalf("rejected uploads completed cells: %+v", p)
	}
	store, _ := scenario.OpenCache(dir)
	if _, ok := store.Get(hash); ok {
		t.Fatal("rejected upload reached the store")
	}

	// And the well-formed upload still lands after all the abuse.
	if code := putEntry(t, hs.URL, hash, "w",
		wireEntry{Engine: scenario.EngineVersion, Hash: hash, Result: good}); code != http.StatusCreated {
		t.Fatalf("valid upload = %d, want 201", code)
	}
}

// Failing results complete the run but are never persisted: a fresh
// server over the same store re-attempts them — the remote twin of the
// local cache's failures-never-pinned rule.
func TestFailuresCompleteButNeverPin(t *testing.T) {
	specs := testSpecs(t, 2)
	o := tinyOptions()
	dir := t.TempDir()
	srv, hs := newTestServer(t, specs, o, dir, nil, 0)
	client, err := Dial(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Drain(WorkerConfig{Name: "w", Execute: func(s scenario.Spec, o scenario.Options) scenario.Result {
		res := stubResult(s, o)
		if s.ID() == specs[0].ID() {
			res.Status = scenario.StatusFail
			res.Error = "transient"
		}
		return res
	}}); err != nil {
		t.Fatal(err)
	}
	rep := srv.Report()
	if rep == nil || rep.Failed != 1 || rep.Passed != 1 {
		t.Fatalf("report = %+v", rep)
	}
	got := rep.Find(specs[0].ID())
	if got == nil || got.Status != scenario.StatusFail || got.Error != "transient" {
		t.Fatalf("failed cell in report = %+v", got)
	}

	// GETs never serve the failure, and a new server re-queues exactly
	// the failed cell.
	if _, ok := client.Get(scenario.CellHash(specs[0], o)); ok {
		t.Fatal("failing result served from the store")
	}
	srv2, hs2 := newTestServer(t, specs, o, dir, nil, 0)
	if p := srv2.Progress(); p.Done != 1 || p.Cached != 1 {
		t.Fatalf("restart progress = %+v, want the passing cell cached and the failure live", p)
	}
	client2, err := Dial(hs2.URL)
	if err != nil {
		t.Fatal(err)
	}
	l, err := client2.Lease()
	if err != nil || l == nil || l.ID != specs[0].ID() {
		t.Fatalf("restarted server leased %+v, %v; want the previously failed cell", l, err)
	}
}

// The headline equivalence: four coordination-free workers over the
// lease queue produce a report cell-for-cell identical to an unsharded
// single-process run — IDs, seeds, hashes, virtual times, fault
// resolutions, lineage — with wall times and provenance excepted. Live
// engine, tiny scale, fully concurrent on both sides.
func TestConcurrentWorkersMatchSingleProcessRun(t *testing.T) {
	specs := testSpecs(t, 6)
	o := tinyOptions()
	o.Parallel = 2
	whole := scenario.Run(specs, o)

	srv, hs := newTestServer(t, specs, o, t.TempDir(), nil, 0)
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	stats := make([]WorkerStats, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := Dial(hs.URL)
			if err != nil {
				errs[w] = err
				return
			}
			stats[w], errs[w] = client.Drain(WorkerConfig{
				Name: fmt.Sprintf("w%d", w),
			})
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	select {
	case <-srv.Done():
	default:
		t.Fatal("all workers drained but the run is not complete")
	}
	rep := srv.Report()
	if rep == nil {
		t.Fatal("no report after completion")
	}

	// Every cell was executed exactly once, split across the fleet.
	executed := 0
	for _, st := range stats {
		executed += st.Executed
	}
	if executed != len(specs) {
		t.Fatalf("fleet executed %d cells, matrix has %d", executed, len(specs))
	}
	if len(rep.Provenance.Shards) == 0 {
		t.Fatal("no per-worker provenance")
	}
	perWorker := 0
	for _, sh := range rep.Provenance.Shards {
		if sh.Count != 0 || sh.Label == "" {
			t.Fatalf("worker provenance entry = %+v", sh)
		}
		perWorker += sh.Scenarios
	}
	if perWorker != len(specs) {
		t.Fatalf("worker provenance accounts for %d cells, want %d", perWorker, len(specs))
	}

	// Cell-for-cell equality. Normalized away: wall times and provenance.
	// Everything else is compared exactly: IDs, seeds, hashes, statuses,
	// completion and restart times, latency curves, lineage, and every
	// fault-record field (victim ranks, steps, detection and lost-work
	// virtual times, image steps, survivors, promotions).
	normalize := func(r *scenario.Report) {
		r.WallMS = 0
		r.Provenance = nil
		for i := range r.Results {
			r.Results[i].WallMS = 0
			r.Results[i].Cached = false
		}
	}
	normalize(whole)
	normalize(rep)
	a, err := json.MarshalIndent(whole, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("work-stealing report diverges from single-process run:\nsingle: %.2000s\nfleet:  %.2000s", a, b)
	}
}

// A warm store completes the run before the first lease: the rerun
// executes zero live cells, workers drain instantly, and the report
// marks every cell cached.
func TestWarmRerunExecutesZeroLiveCells(t *testing.T) {
	specs := testSpecs(t, 4)
	o := tinyOptions()
	dir := t.TempDir()
	_, hs := newTestServer(t, specs, o, dir, nil, 0)
	client, err := Dial(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Drain(WorkerConfig{Name: "seed", Execute: stubResult}); err != nil {
		t.Fatal(err)
	}

	srv2, hs2 := newTestServer(t, specs, o, dir, nil, 0)
	select {
	case <-srv2.Done():
	default:
		t.Fatal("warm server not complete at startup")
	}
	client2, err := Dial(hs2.URL)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client2.Drain(WorkerConfig{Name: "idle", Execute: func(s scenario.Spec, o scenario.Options) scenario.Result {
		t.Errorf("warm rerun executed %s", s.ID())
		return stubResult(s, o)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 || stats.LocalHits != 0 {
		t.Fatalf("warm drain stats = %+v, want all zeros", stats)
	}
	rep := srv2.Report()
	if rep.Provenance.Live != 0 || rep.Provenance.Cached != len(specs) {
		t.Fatalf("warm report provenance = %+v", rep.Provenance)
	}
	if rep.WallMS != 0 {
		t.Fatalf("warm report charges %dms of compute", rep.WallMS)
	}
	for _, res := range rep.Results {
		if !res.Cached {
			t.Fatalf("warm cell %s not marked cached", res.ID)
		}
	}
}

// The worker's local cache composes as a read-through tier: locally
// warm cells are published to the server without re-executing.
func TestLocalTierPublishesWithoutReexecution(t *testing.T) {
	specs := testSpecs(t, 3)
	o := tinyOptions()
	local, err := scenario.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs[:2] {
		if err := local.Put(scenario.CellHash(s, o), stubResult(s, o)); err != nil {
			t.Fatal(err)
		}
	}
	srv, hs := newTestServer(t, specs, o, t.TempDir(), nil, 0)
	client, err := Dial(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := client.Drain(WorkerConfig{Name: "w", Local: local, Execute: stubResult})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LocalHits != 2 || stats.Executed != 1 {
		t.Fatalf("stats = %+v, want 2 local hits + 1 execution", stats)
	}
	if rep := srv.Report(); rep == nil || rep.Passed != len(specs) {
		t.Fatalf("report = %+v", rep)
	}
	// The executed cell was written back into the local tier.
	if _, ok := local.Get(scenario.CellHash(specs[2], o)); !ok {
		t.Fatal("executed cell not written back to the local tier")
	}
}

// Store GETs carry the immutability headers; the client Store facade
// round-trips results and treats every anomaly as a miss.
func TestCellTransferAndCaching(t *testing.T) {
	specs := testSpecs(t, 1)
	o := tinyOptions()
	_, hs := newTestServer(t, specs, o, t.TempDir(), nil, 0)
	client, err := Dial(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	hash := scenario.CellHash(specs[0], o)

	if _, ok := client.Get(hash); ok {
		t.Fatal("hit before any upload")
	}
	if client.Head(hash) {
		t.Fatal("HEAD hit before any upload")
	}
	want := stubResult(specs[0], o)
	if err := client.Put(hash, want); err != nil {
		t.Fatal(err)
	}
	got, ok := client.Get(hash)
	if !ok || got.ID != want.ID || got.WallMS != want.WallMS {
		t.Fatalf("round trip = %+v, %v", got, ok)
	}
	if !client.Head(hash) {
		t.Fatal("HEAD miss after upload")
	}

	resp, err := http.Get(hs.URL + "/cells/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if et := resp.Header.Get("ETag"); et != `"`+hash+`"` {
		t.Fatalf("ETag = %q", et)
	}
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Fatalf("Cache-Control = %q", cc)
	}
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/cells/"+hash, nil)
	req.Header.Set("If-None-Match", `"`+hash+`"`)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", resp2.StatusCode)
	}
}

// Dial refuses a server from a different engine or schema generation:
// addresses and results would not be interchangeable.
func TestDialRefusesVersionDrift(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"engine", func(m *Manifest) { m.EngineVersion++ }},
		{"previous engine", func(m *Manifest) { m.EngineVersion-- }},
		{"schema", func(m *Manifest) { m.SchemaVersion++ }},
	} {
		man := Manifest{SchemaVersion: scenario.SchemaVersion, EngineVersion: scenario.EngineVersion}
		tc.mutate(&man)
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(man)
		}))
		if _, err := Dial(hs.URL); err == nil {
			t.Errorf("%s drift accepted", tc.name)
		}
		hs.Close()
	}
}

// The report endpoint serves progress (202) while draining and flips to
// the full report (200) at completion; the polling client sees both.
func TestReportEndpointProgression(t *testing.T) {
	specs := testSpecs(t, 2)
	o := tinyOptions()
	_, hs := newTestServer(t, specs, o, t.TempDir(), nil, 0)
	client, err := Dial(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Report(0); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("report before completion = %v, want incomplete error", err)
	}
	if _, err := client.Drain(WorkerConfig{Name: "w", Execute: stubResult}); err != nil {
		t.Fatal(err)
	}
	rep, err := client.Report(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios != len(specs) || rep.Passed != len(specs) {
		t.Fatalf("report = %d scenarios, %d passed", rep.Scenarios, rep.Passed)
	}
}
