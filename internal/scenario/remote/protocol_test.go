package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
)

// The protocol edges that moving the store write out of the scheduler
// lock makes load-bearing. CI repeats this file's tests twenty times
// under the race detector.

func entryFor(s scenario.Spec, o scenario.Options) (string, wireEntry) {
	hash := scenario.CellHash(s, o)
	res := stubResult(s, o)
	return hash, wireEntry{Engine: scenario.EngineVersion, Hash: hash, WallMS: res.WallMS, Result: res}
}

// storeFiles lists every file under a store directory, temp files
// included, relative to it.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			files = append(files, rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func entryPath(dir, hash string) string { return filepath.Join(dir, hash[:2], hash+".json") }

func fetch(t *testing.T, method, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// A scenario.Store caller handing the client something that is not a
// content address gets an error (or a miss) up front — not a request,
// and not the index-out-of-range panic hash[:8] used to be.
func TestClientRejectsMalformedHashes(t *testing.T) {
	specs := testSpecs(t, 1)
	o := tinyOptions()
	srv, hs := newTestServer(t, specs, o, t.TempDir(), nil, 0)
	client, err := Dial(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	good := scenario.CellHash(specs[0], o)
	for _, hash := range []string{"", "a", "abcdefg", good[:30] + "/" + good[31:], strings.ToUpper(good), good + "00"} {
		if err := client.Put(hash, stubResult(specs[0], o)); err == nil || !strings.Contains(err.Error(), "malformed hash") {
			t.Errorf("Put(%q) = %v, want a malformed-hash error", hash, err)
		}
		if _, ok := client.Get(hash); ok {
			t.Errorf("Get(%q) hit", hash)
		}
		if client.Head(hash) {
			t.Errorf("Head(%q) hit", hash)
		}
	}
	if m := srv.Metrics(); !strings.Contains(m, "matrixd_store_misses_total 0\n") ||
		!strings.Contains(m, "matrixd_store_received_bytes_total 0\n") {
		t.Errorf("a malformed hash reached the server:\n%s", m)
	}
}

// An upload over the body limit is a 413, not a 400, and leaves the
// store and the cell as they were.
func TestOversizedUploadIs413(t *testing.T) {
	specs := testSpecs(t, 1)
	o := tinyOptions()
	dir := t.TempDir()
	srv, hs := newTestServer(t, specs, o, dir, nil, 0)
	srv.maxEntry = 1 << 10
	hash, e := entryFor(specs[0], o)

	big := e
	big.Result.Error = strings.Repeat("x", 4<<10)
	if code := putEntry(t, hs.URL, hash, "w", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload = %d, want 413", code)
	}
	if p := srv.Progress(); p.Done != 0 {
		t.Fatalf("oversized upload completed the cell: %+v", p)
	}
	if files := storeFiles(t, dir); len(files) != 0 {
		t.Fatalf("oversized upload reached the store: %v", files)
	}
	if code := putEntry(t, hs.URL, hash, "w", e); code != http.StatusCreated {
		t.Fatalf("in-limit upload after the 413 = %d, want 201", code)
	}
}

// Uploads of one cell race to the disk now that the write is outside
// the lock. Exactly one completes the cell; the others are the
// idempotent duplicate, and nothing is counted, credited or stored
// twice.
func TestConcurrentDuplicatePutsCompleteOnce(t *testing.T) {
	specs := testSpecs(t, 2)
	o := tinyOptions()
	dir := t.TempDir()
	srv, hs := newTestServer(t, specs, o, dir, nil, 0)
	hash, e := entryFor(specs[0], o)

	body, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	codes := make([]int, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			codes[i], errs[i] = tryPut(hs.URL, hash, fmt.Sprintf("w%d", i), body)
		}()
	}
	close(start)
	wg.Wait()

	created := 0
	for i, code := range codes {
		switch {
		case errs[i] != nil:
			t.Fatal(errs[i])
		case code == http.StatusCreated:
			created++
		case code != http.StatusOK:
			t.Fatalf("duplicate upload answered %d", code)
		}
	}
	if created != 1 {
		t.Fatalf("%d uploads answered 201, want exactly 1 (codes %v)", created, codes)
	}
	if p := srv.Progress(); p.Done != 1 {
		t.Fatalf("progress = %+v, want one cell done", p)
	}
	want := filepath.Join(hash[:2], hash+".json")
	if files := storeFiles(t, dir); len(files) != 1 || files[0] != want {
		t.Fatalf("store holds %v, want only %s", files, want)
	}

	// Finish the run and read the credit off the report: one worker, one
	// cell for the raced upload.
	hash2, e2 := entryFor(specs[1], o)
	if code := putEntry(t, hs.URL, hash2, "closer", e2); code != http.StatusCreated {
		t.Fatalf("second cell = %d", code)
	}
	rep := srv.Report()
	if rep == nil || rep.Provenance.Live != 2 {
		t.Fatalf("report = %+v", rep)
	}
	credited := 0
	for _, sh := range rep.Provenance.Shards {
		if sh.Label != "closer" {
			credited += sh.Scenarios
		}
	}
	if credited != 1 {
		t.Fatalf("raced cell credited %d times: %+v", credited, rep.Provenance.Shards)
	}
	// Every racer that got as far as the disk is a store write; the
	// counter is at least the two completions and at most every upload.
	var writes int
	for _, line := range strings.Split(srv.Metrics(), "\n") {
		fmt.Sscanf(line, "matrixd_store_writes_total %d", &writes)
	}
	if writes < 2 || writes > n+1 {
		t.Fatalf("matrixd_store_writes_total = %d, want 2..%d", writes, n+1)
	}
	if !strings.Contains(srv.Metrics(), "matrixd_store_write_seconds_total ") {
		t.Fatal("matrixd_store_write_seconds_total missing from /metrics")
	}
}

// A lease expires and the cell is re-leased, but the first worker was
// only slow: whichever upload arrives first completes the cell and is
// credited; the other is a 200 that changes nothing. (The re-leased
// worker winning is TestLeaseExpiryRequeuesCell.)
func TestLateUploadAfterReleaseWinsIfFirst(t *testing.T) {
	specs := testSpecs(t, 1)
	o := tinyOptions()
	clk := newFakeClock()
	srv, hs := newTestServer(t, specs, o, t.TempDir(), clk, time.Minute)
	client, err := Dial(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if l, err := client.Lease(); err != nil || l == nil {
		t.Fatalf("lease = %v, %v", l, err)
	}
	clk.advance(2 * time.Minute)
	l2, err := client.Lease()
	if err != nil || l2 == nil {
		t.Fatalf("re-lease = %v, %v", l2, err)
	}
	hash, e := entryFor(specs[0], o)
	if l2.Hash != hash {
		t.Fatalf("re-lease names %s, want %s", l2.Hash, hash)
	}
	if code := putEntry(t, hs.URL, hash, "slow", e); code != http.StatusCreated {
		t.Fatalf("expired worker's upload = %d, want 201", code)
	}
	if code := putEntry(t, hs.URL, hash, "second", e); code != http.StatusOK {
		t.Fatalf("re-leased worker's upload = %d, want 200", code)
	}
	rep := srv.Report()
	if rep == nil || len(rep.Provenance.Shards) != 1 || rep.Provenance.Shards[0].Label != "slow" {
		t.Fatalf("completion credited to %+v, want the first uploader", rep)
	}
	if !strings.Contains(srv.Metrics(), "matrixd_lease_expiries_total 1\n") {
		t.Fatalf("expiry not counted:\n%s", srv.Metrics())
	}
}

// A lease is a scheduling hint, not a permission: a result for a cell
// of this run is accepted whether or not anyone leased it. An address
// outside the run is a 404 and never reaches the store.
func TestPutWithoutLeaseAndOutsideRun(t *testing.T) {
	specs := testSpecs(t, 2)
	o := tinyOptions()
	dir := t.TempDir()
	srv, hs := newTestServer(t, specs[:1], o, dir, nil, 0)

	outside, foreign := entryFor(specs[1], o)
	if code := putEntry(t, hs.URL, outside, "w", foreign); code != http.StatusNotFound {
		t.Fatalf("upload outside the run = %d, want 404", code)
	}
	if files := storeFiles(t, dir); len(files) != 0 {
		t.Fatalf("upload outside the run reached the store: %v", files)
	}

	hash, e := entryFor(specs[0], o)
	if code := putEntry(t, hs.URL, hash, "w", e); code != http.StatusCreated {
		t.Fatalf("never-leased upload = %d, want 201", code)
	}
	select {
	case <-srv.Done():
	default:
		t.Fatal("run not complete after its only cell was uploaded")
	}
}

// Reads are answered from the run's cell table. An incomplete cell is a
// 404 even if an entry for it appears in the store directory behind the
// server's back; a warm-start cell is served as the file's own bytes;
// HEAD and revalidation carry no body.
func TestReadsComeFromTheCellTable(t *testing.T) {
	specs := testSpecs(t, 2)
	o := tinyOptions()
	dir := t.TempDir()
	store, err := scenario.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, cold := scenario.CellHash(specs[0], o), scenario.CellHash(specs[1], o)
	if err := store.Put(warm, stubResult(specs[0], o)); err != nil {
		t.Fatal(err)
	}
	srv, hs := newTestServer(t, specs, o, dir, nil, 0)
	if p := srv.Progress(); p.Cached != 1 || p.Done != 1 {
		t.Fatalf("warm start progress = %+v", p)
	}

	// Another process fills in the cold cell on disk. This run has not
	// completed it, so this server does not serve it.
	if err := store.Put(cold, stubResult(specs[1], o)); err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{http.MethodGet, http.MethodHead} {
		if code, _ := fetch(t, method, hs.URL+"/cells/"+cold); code != http.StatusNotFound {
			t.Fatalf("%s of an incomplete cell = %d, want 404", method, code)
		}
	}

	onDisk, err := os.ReadFile(entryPath(dir, warm))
	if err != nil {
		t.Fatal(err)
	}
	served := len(onDisk)
	if code, body := fetch(t, http.MethodGet, hs.URL+"/cells/"+warm); code != http.StatusOK || !bytes.Equal(body, onDisk) {
		t.Fatalf("GET of a warm cell = %d, %d bytes; want the file's %d bytes", code, len(body), len(onDisk))
	}
	if code, body := fetch(t, http.MethodHead, hs.URL+"/cells/"+warm); code != http.StatusOK || len(body) != 0 {
		t.Fatalf("HEAD of a warm cell = %d with %d body bytes", code, len(body))
	}

	// A live upload is served as the bytes its PUT published.
	_, e := entryFor(specs[1], o)
	if code := putEntry(t, hs.URL, cold, "w", e); code != http.StatusCreated {
		t.Fatalf("upload = %d", code)
	}
	onDisk, err = os.ReadFile(entryPath(dir, cold))
	if err != nil {
		t.Fatal(err)
	}
	if code, body := fetch(t, http.MethodGet, hs.URL+"/cells/"+cold); code != http.StatusOK || !bytes.Equal(body, onDisk) {
		t.Fatalf("GET after upload = %d, %d bytes; want the file's %d bytes", code, len(body), len(onDisk))
	}
	served += len(onDisk)
	if m := srv.Metrics(); !strings.Contains(m, "matrixd_store_hits_total 3\n") ||
		!strings.Contains(m, "matrixd_store_misses_total 2\n") ||
		!strings.Contains(m, fmt.Sprintf("matrixd_store_served_bytes_total %d\n", served)) {
		t.Fatalf("store counters off (want 3 hits, 2 misses, %d bytes served):\n%s", served, m)
	}
}

// The start-up scan trusts nothing it cannot validate: a stale-engine
// entry, a corrupt file and an entry filed under another cell's address
// leave their cells live — none is served — while the stale entry still
// contributes its wall time to lease ordering.
func TestWarmStartSkipsUnservableEntries(t *testing.T) {
	specs := testSpecs(t, 4)
	o := tinyOptions()
	dir := t.TempDir()
	store, err := scenario.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]string, len(specs))
	for i, s := range specs {
		hashes[i] = scenario.CellHash(s, o)
	}
	plant := func(hash string, raw []byte) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(entryPath(dir, hash)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(entryPath(dir, hash), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// specs[0]: a good entry, the control.
	if err := store.Put(hashes[0], stubResult(specs[0], o)); err != nil {
		t.Fatal(err)
	}
	// specs[1]: a well-formed entry from the previous engine, with a huge
	// recorded cost.
	slow := stubResult(specs[1], o)
	slow.WallMS = 1 << 30
	if err := store.Put(hashes[1], slow); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(entryPath(dir, hashes[1]))
	if err != nil {
		t.Fatal(err)
	}
	plant(hashes[1], bytes.Replace(raw,
		[]byte(fmt.Sprintf(`"engine_version": %d`, scenario.EngineVersion)),
		[]byte(fmt.Sprintf(`"engine_version": %d`, scenario.EngineVersion-1)), 1))
	// specs[2]: a torn file.
	plant(hashes[2], []byte("{torn"))
	// specs[3]: specs[0]'s valid entry, copied under specs[3]'s address.
	good, err := os.ReadFile(entryPath(dir, hashes[0]))
	if err != nil {
		t.Fatal(err)
	}
	plant(hashes[3], good)

	srv, hs := newTestServer(t, specs, o, dir, nil, 0)
	if p := srv.Progress(); p.Done != 1 || p.Cached != 1 {
		t.Fatalf("warm start progress = %+v, want only the control cell cached", p)
	}
	for i, hash := range hashes {
		want := http.StatusNotFound
		if i == 0 {
			want = http.StatusOK
		}
		if code, _ := fetch(t, http.MethodGet, hs.URL+"/cells/"+hash); code != want {
			t.Errorf("GET cell %d = %d, want %d", i, code, want)
		}
	}
	client, err := Dial(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	first, err := client.Lease()
	if err != nil || first == nil || first.ID != specs[1].ID() {
		t.Fatalf("first lease = %+v, %v; want the cell whose stale entry recorded the largest cost", first, err)
	}
}

// A store write that fails is a 500 that changes nothing. The store
// directory is replaced by a regular file, under which no user, root
// included, can create an entry: the upload answers 500, the cell stays
// incomplete and is leased again once its lease lapses, and the failed
// write is not counted. With the directory back, an upload completes
// the cell.
func TestFailedStoreWriteLeavesCellLive(t *testing.T) {
	specs := testSpecs(t, 1)
	o := tinyOptions()
	dir := filepath.Join(t.TempDir(), "store")
	clk := newFakeClock()
	srv, hs := newTestServer(t, specs, o, dir, clk, time.Minute)
	client, err := Dial(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	hash, e := entryFor(specs[0], o)
	if l, err := client.Lease(); err != nil || l == nil || l.Hash != hash {
		t.Fatalf("lease = %+v, %v", l, err)
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := putEntry(t, hs.URL, hash, "w", e); code != http.StatusInternalServerError {
		t.Fatalf("upload over a full store = %d, want 500", code)
	}
	if p := srv.Progress(); p.Done != 0 {
		t.Fatalf("failed write completed the cell: %+v", p)
	}
	if m := srv.Metrics(); !strings.Contains(m, "matrixd_store_writes_total 0\n") {
		t.Fatalf("failed write counted:\n%s", m)
	}
	clk.advance(2 * time.Minute)
	if l, err := client.Lease(); err != nil || l == nil || l.Hash != hash {
		t.Fatalf("re-lease after the failed write = %+v, %v", l, err)
	}

	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if code := putEntry(t, hs.URL, hash, "w", e); code != http.StatusCreated {
		t.Fatalf("upload after the store came back = %d, want 201", code)
	}
	if m := srv.Metrics(); !strings.Contains(m, "matrixd_store_writes_total 1\n") {
		t.Fatalf("completing write not counted once:\n%s", m)
	}
	select {
	case <-srv.Done():
	default:
		t.Fatal("run not complete after the upload landed")
	}
}
