package remote

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// BenchmarkServiceRound is one round of the repository benchmark's
// matrix_service workload with execution cost removed, as a go test
// benchmark so it can be profiled (-cpuprofile, -memprofile, -mutexprofile):
// a fresh store, the full matrix drained through a server by two workers
// with a stub Execute, the assembled report, then a second server over
// the now-warm store read through a Client by a warm scenario.Run. Each
// iteration serves every cell twice (one lease + PUT, one GET).
func BenchmarkServiceRound(b *testing.B) {
	specs := scenario.DefaultMatrix().Enumerate()
	o := scenario.Quick()
	o.Reps = 1
	serve := func(store *scenario.Cache) (*Server, *httptest.Server) {
		srv, err := NewServer(ServerConfig{Specs: specs, Options: o, Store: store})
		if err != nil {
			b.Fatal(err)
		}
		return srv, httptest.NewServer(srv)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := scenario.OpenCache(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}

		srv, hs := serve(store)
		const workers = 2
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				client, err := Dial(hs.URL)
				if err != nil {
					errs[w] = err
					return
				}
				_, errs[w] = client.Drain(WorkerConfig{Name: fmt.Sprintf("bench-%d", w), Execute: stubResult})
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		if rep := srv.Report(); rep == nil || rep.Passed != len(specs) {
			b.Fatalf("drained report = %+v", rep)
		}
		hs.Close()

		_, hs = serve(store)
		client, err := Dial(hs.URL)
		if err != nil {
			b.Fatal(err)
		}
		warm := o
		warm.Parallel = workers
		warm.Store = client
		if rep := scenario.Run(specs, warm); rep.Provenance == nil || rep.Provenance.Cached != len(specs) {
			b.Fatalf("warm run provenance = %+v", rep.Provenance)
		}
		hs.Close()
	}
	b.ReportMetric(float64(2*len(specs)), "cells/op")
}
