package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/scenario"
)

// Client speaks the matrixd protocol. Its Get/Put half implements
// scenario.Store, so a remote server drops into every place a local
// cache directory does, and its Lease/Drain half is the worker.
type Client struct {
	base   string
	http   *http.Client
	worker string
	man    Manifest
}

// BusyError is Lease's "nothing grantable yet": every remaining cell
// is held by a live lease. Retry says when the earliest lease can
// expire.
type BusyError = scenario.BusyError

// Dial fetches the server's manifest and refuses engine or schema
// drift: a worker built from different source would compute different
// cell addresses (or different results), and every such divergence is
// better rejected at connect time than discovered as a 409 mid-run.
func Dial(baseURL string) (*Client, error) {
	c := &Client{base: strings.TrimRight(baseURL, "/"), http: &http.Client{Timeout: 2 * time.Minute}}
	resp, err := c.http.Get(c.base + "/config")
	if err != nil {
		return nil, fmt.Errorf("remote: dialing %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("remote: %s/config answered %s", baseURL, resp.Status)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&c.man); err != nil {
		return nil, fmt.Errorf("remote: decoding manifest: %w", err)
	}
	if c.man.EngineVersion != scenario.EngineVersion {
		return nil, fmt.Errorf("remote: server engine version %d, this build runs %d — results would not be interchangeable",
			c.man.EngineVersion, scenario.EngineVersion)
	}
	if c.man.SchemaVersion != scenario.SchemaVersion {
		return nil, fmt.Errorf("remote: server schema v%d, this build speaks v%d",
			c.man.SchemaVersion, scenario.SchemaVersion)
	}
	return c, nil
}

// SetWorker names this client in lease and upload requests; the server
// uses the name only for provenance labels.
func (c *Client) SetWorker(name string) { c.worker = name }

// Manifest returns the run description fetched at Dial.
func (c *Client) Manifest() Manifest { return c.man }

// Options returns the run's result-determining options, as the server
// serialized them. Run-local fields (pool width, trace directory,
// store) are the worker's own to choose.
func (c *Client) Options() scenario.Options { return c.man.Options }

// checkHash rejects anything that is not a content address — CellHash's
// 64 lower-case hex digits — before it is spliced into a URL path or
// sliced for an error message, the way Cache rejects a hash too short
// to fan out.
func checkHash(hash string) error {
	ok := len(hash) == 64
	for i := 0; ok && i < len(hash); i++ {
		ch := hash[i]
		ok = '0' <= ch && ch <= '9' || 'a' <= ch && ch <= 'f'
	}
	if !ok {
		return fmt.Errorf("remote: malformed hash %q", hash)
	}
	return nil
}

// Get implements scenario.Store over GET /cells/<hash>. Any failure —
// a malformed hash, network, status, decode, a mismatched or
// foreign-engine entry — is a miss, mirroring the local cache's "broken
// reads degrade to live execution" contract.
func (c *Client) Get(hash string) (scenario.Result, bool) {
	if checkHash(hash) != nil {
		return scenario.Result{}, false
	}
	resp, err := c.http.Get(c.base + "/cells/" + hash)
	if err != nil {
		return scenario.Result{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return scenario.Result{}, false
	}
	var e wireEntry
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&e); err != nil {
		return scenario.Result{}, false
	}
	if e.Engine != scenario.EngineVersion || e.Hash != hash || e.Result.Status != scenario.StatusPass {
		return scenario.Result{}, false
	}
	return e.Result, true
}

// Head probes for an entry without transferring it.
//
//mpivet:allow deadexport -- test-facing: the protocol tests check whether the server holds a cell without downloading it
func (c *Client) Head(hash string) bool {
	if checkHash(hash) != nil {
		return false
	}
	resp, err := c.do(http.MethodHead, "/cells/"+hash, nil)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// do sends one request to the server under this client's worker name.
func (c *Client) do(method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.worker != "" {
		req.Header.Set(workerHeader, c.worker)
	}
	return c.http.Do(req)
}

// Put implements scenario.Store over PUT /cells/<hash>. Unlike Get's
// soft misses, Put reports failure loudly: publishing to the shared
// store is what marks the leased cell complete, and a worker must not
// believe its work landed when it did not.
func (c *Client) Put(hash string, res scenario.Result) error {
	if err := checkHash(hash); err != nil {
		return err
	}
	res.Cached = false
	raw, err := json.Marshal(wireEntry{
		Engine: scenario.EngineVersion, Hash: hash, WallMS: res.WallMS, Result: res,
	})
	if err != nil {
		return fmt.Errorf("remote: encoding entry: %w", err)
	}
	resp, err := c.do(http.MethodPut, "/cells/"+hash, raw)
	if err != nil {
		return fmt.Errorf("remote: put %s: %w", hash[:8], err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("remote: put %s: %s: %s", hash[:8], resp.Status, strings.TrimSpace(string(msg)))
	}
	return nil
}

// Lease asks for the next cell. A nil lease with a nil error means the
// run is complete (204) and the worker should stop; a *BusyError means
// every remaining cell is leased to someone else and the caller should
// wait and retry; other errors are the server being gone or broken.
func (c *Client) Lease() (*scenario.Lease, error) {
	resp, err := c.do(http.MethodPost, "/lease", nil)
	if err != nil {
		return nil, fmt.Errorf("remote: lease: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var l scenario.Lease
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&l); err != nil {
			return nil, fmt.Errorf("remote: decoding lease: %w", err)
		}
		return &l, nil
	case http.StatusNoContent:
		return nil, nil
	case http.StatusServiceUnavailable:
		var busy struct {
			RetryMS int64 `json:"retry_ms"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&busy); err != nil || busy.RetryMS <= 0 {
			busy.RetryMS = 250
		}
		return nil, &BusyError{Retry: time.Duration(busy.RetryMS) * time.Millisecond}
	default:
		return nil, fmt.Errorf("remote: lease answered %s", resp.Status)
	}
}

// Report fetches the assembled matrix report, polling while the fleet
// is still draining (202). poll <= 0 makes incompleteness an error
// instead of a wait.
func (c *Client) Report(poll time.Duration) (*scenario.Report, error) {
	for {
		resp, err := c.http.Get(c.base + "/report")
		if err != nil {
			return nil, fmt.Errorf("remote: report: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var rep scenario.Report
			err := json.NewDecoder(resp.Body).Decode(&rep)
			resp.Body.Close()
			if err != nil {
				return nil, fmt.Errorf("remote: decoding report: %w", err)
			}
			if rep.SchemaVersion != scenario.SchemaVersion {
				return nil, fmt.Errorf("remote: report schema v%d, this build reads v%d",
					rep.SchemaVersion, scenario.SchemaVersion)
			}
			return &rep, nil
		case http.StatusAccepted:
			var p scenario.Progress
			_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&p)
			resp.Body.Close()
			if poll <= 0 {
				return nil, fmt.Errorf("remote: run incomplete (%d/%d cells done)", p.Done, p.Total)
			}
			time.Sleep(poll)
		default:
			resp.Body.Close()
			return nil, fmt.Errorf("remote: report answered %s", resp.Status)
		}
	}
}

// WorkerConfig tunes one Drain call.
type WorkerConfig struct {
	// Name labels this worker in the server's provenance. Empty is
	// reported as "anonymous".
	Name string
	// Procs is the number of cells executed concurrently (default 1).
	Procs int
	// Local, when set, is the local store tier: a leased cell it holds is
	// published without re-executing, and executed cells are stored in it.
	Local scenario.Store
	// TraceDir writes one Chrome trace-event JSON per executed cell
	// into this directory (a worker-local choice — the server's
	// result-determining options are unaffected).
	TraceDir string
	// Execute overrides cell execution; nil means scenario.RunCell.
	// Tests substitute stubs here.
	Execute func(scenario.Spec, scenario.Options) scenario.Result
}

// WorkerStats summarizes one Drain call.
type WorkerStats = scenario.WorkerStats

// Drain is the work-stealing worker: scenario.Drain over this client,
// from Procs goroutines, until the server reports the run complete. It
// needs no coordination with other workers: the server's queue is the
// only shared state.
func (c *Client) Drain(w WorkerConfig) (WorkerStats, error) {
	if w.Name != "" {
		c.SetWorker(w.Name)
	}
	o := c.Options()
	o.Parallel = w.Procs
	o.TraceDir = w.TraceDir
	return scenario.Drain(fleet{c, o}, o, w.Local, w.Execute)
}

// fleet is the scenario.Source a Drain worker leases from: the server.
type fleet struct {
	c *Client
	o scenario.Options
}

// Lease catches the engine or source drift Dial's version check cannot:
// if the two sides disagree on a cell's identity, its result must not be
// published.
func (f fleet) Lease() (*scenario.Lease, error) {
	l, err := f.c.Lease()
	if l != nil {
		if got := scenario.CellHash(l.Spec, f.o); got != l.Hash {
			return nil, fmt.Errorf("remote: cell %s hashes to %s here but %s on the server — source drift",
				l.ID, got[:8], l.Hash[:8])
		}
	}
	return l, err
}

func (f fleet) Complete(l *scenario.Lease, res scenario.Result) error { return f.c.Put(l.Hash, res) }
