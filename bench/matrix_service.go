package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/scenario/remote"
	"repro/internal/stats"
)

// serviceRounds is how many drain-then-read rounds make one slice.
const serviceRounds = 3

type matrixService struct {
	cfg   config
	specs []scenario.Spec
	opts  scenario.Options
}

func setupMatrixService(cfg config) (instance, error) {
	m := &matrixService{cfg: cfg, specs: scenario.DefaultMatrix().Enumerate(), opts: scenario.Quick()}
	if cfg.smoke {
		m.specs = m.specs[:40]
	}
	m.opts.Reps = 1
	m.opts.BaseSeed = cfg.seed
	return m, nil
}

// syntheticResult stands in for cell execution: a passing Result whose
// wall cost and virtual time are drawn from the seed and the cell ID, with
// no sleep, so the service's own work is all that is timed.
func syntheticResult(seed int64, s scenario.Spec) scenario.Result {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", s.ID(), seed)
	x := h.Sum64()
	virt := stats.Summarize([]float64{0.05 + float64(x%1000)/1e6})
	return scenario.Result{
		ID: s.ID(), Spec: s, Status: scenario.StatusPass, Reps: 1,
		Time: &virt, WallMS: 20 + int64((x>>10)%400),
	}
}

// timedStore is the timing scenario.Store decorator: a span around every
// Get and Put of the store it wraps.
type timedStore struct {
	inner  scenario.Store
	tr     *tracer
	name   string
	parent int
	op     int
}

func (t timedStore) Get(hash string) (scenario.Result, bool) {
	id := t.tr.begin(t.name+".get", t.parent, t.op)
	defer t.tr.end(id)
	return t.inner.Get(hash)
}

func (t timedStore) Put(hash string, res scenario.Result) error {
	id := t.tr.begin(t.name+".put", t.parent, t.op)
	defer t.tr.end(id)
	return t.inner.Put(hash, res)
}

// slice runs serviceRounds rounds. An operation is one cell served: each
// round writes every cell once (lease + PUT) and reads it once (GET).
func (m *matrixService) slice(i int, tr *tracer) (sliceResult, error) {
	var out sliceResult
	for r := 0; r < serviceRounds; r++ {
		res, err := m.round(i*serviceRounds+r, tr)
		if err != nil {
			return out, err
		}
		out.add(res)
	}
	return out, nil
}

func (m *matrixService) round(op int, tr *tracer) (sliceResult, error) {
	root := tr.begin("matrix_service.round", -1, op)
	defer tr.end(root)
	dir, err := m.cfg.scratchDir("store-*")
	if err != nil {
		return sliceResult{}, err
	}
	defer os.RemoveAll(dir)
	cache, err := scenario.OpenCache(dir)
	if err != nil {
		return sliceResult{}, err
	}
	out := sliceResult{ops: 2 * len(m.specs)}

	// Write half: a fresh server over the empty store, drained by two
	// workers, then the assembled report.
	report, err := m.drain(cache, tr, root, op)
	if err != nil {
		return out, err
	}
	if report == nil || report.Scenarios != len(m.specs) || report.Passed != len(m.specs) {
		out.failed += len(m.specs)
	}

	// Read half: a second server over the now-full store, read through a
	// client as a warm scenario.Run does.
	srv, err := remote.NewServer(remote.ServerConfig{Specs: m.specs, Options: m.opts, Store: cache})
	if err != nil {
		return out, err
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client, err := remote.Dial(hs.URL)
	if err != nil {
		return out, err
	}
	opts := m.opts
	opts.Parallel = workers
	opts.Store = client
	warmSpan := tr.begin("scenario.run_warm", root, op)
	if tr != nil {
		opts.Store = timedStore{client, tr, "remote", warmSpan, op}
	}
	warm := scenario.Run(m.specs, opts)
	tr.end(warmSpan)
	if warm.Provenance == nil || warm.Provenance.Cached != len(m.specs) {
		out.failed += len(m.specs)
	}
	for _, r := range warm.Results {
		want := syntheticResult(m.cfg.seed, r.Spec)
		if r.Time == nil || r.Time.Median != want.Time.Median {
			out.failed++
			continue
		}
		out.virtUS += 2 * r.Time.Median * 1e6 // the cell was written and read
	}
	return out, nil
}

// drain serves the cells from a fresh server and drains them with two
// workers. Untraced it is Client.Drain; traced it is the same loop
// written out, so each lease and each PUT gets a span.
func (m *matrixService) drain(cache *scenario.Cache, tr *tracer, parent, op int) (*scenario.Report, error) {
	srv, err := remote.NewServer(remote.ServerConfig{Specs: m.specs, Options: m.opts, Store: cache})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	clients := make([]*remote.Client, workers)
	for w := range clients {
		if clients[w], err = remote.Dial(hs.URL); err != nil {
			return nil, err
		}
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w, client := range clients {
		w, client := w, client
		name := fmt.Sprintf("bench-%d", w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tr == nil {
				_, errs[w] = client.Drain(remote.WorkerConfig{Name: name, Execute: func(s scenario.Spec, _ scenario.Options) scenario.Result {
					return syntheticResult(m.cfg.seed, s)
				}})
				return
			}
			client.SetWorker(name)
			errs[w] = m.drainTraced(client, tr, parent, op)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	id := tr.begin("remote.report", parent, op)
	defer tr.end(id)
	return srv.Report(), nil
}

func (m *matrixService) drainTraced(client *remote.Client, tr *tracer, parent, op int) error {
	for {
		id := tr.begin("remote.lease", parent, op)
		lease, err := client.Lease()
		tr.end(id)
		var busy *remote.BusyError
		switch {
		case errors.As(err, &busy):
			time.Sleep(busy.Retry)
			continue
		case err != nil:
			return err
		case lease == nil:
			return nil // run complete
		}
		res := syntheticResult(m.cfg.seed, lease.Spec)
		id = tr.begin("remote.put", parent, op)
		err = client.Put(lease.Hash, res)
		tr.end(id)
		if err != nil {
			return err
		}
	}
}
