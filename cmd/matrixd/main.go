// Command matrixd serves one scenario-matrix run as a service: a
// content-addressed store of completed cell results plus a lease-based
// work-stealing scheduler, over plain HTTP. Workers are paperfigs
// processes pointed at it (paperfigs -matrix -remote URL); they need no
// shard assignment and no shared filesystem — the lease queue replaces
// static -shard i/n partitioning, so a straggler-heavy slice can no
// longer gate the whole run behind one unlucky shard.
//
// Usage:
//
//	matrixd -store .scenario-cache [-addr :8341] [-full] [-faults=false]
//	        [-apps app.comd,app.wave] [-reps N] [-seed N]
//	        [-lease-ttl 10m] [-once -out results.json]
//	        [-metrics-out metrics.prom]
//
// While serving, GET /metrics exposes the scheduler's operational
// counters in Prometheus text format and GET /status a human summary;
// with -once, -metrics-out writes the final /metrics snapshot to a
// file on exit so CI artifacts never race the shutdown.
//
// The store directory is the same content-addressed cache paperfigs
// -cache uses, holding the same bytes: a warm local cache seeds the
// service, and the service's store warms later local runs. Cells the
// store already holds are complete before the first lease; recorded
// per-cell wall times order the live queue longest-expected-first. The
// directory is read once, at start-up, and only written to afterwards:
// reads are answered from the run's in-memory cell table.
//
// With -once, matrixd serves until every cell is complete, writes the
// assembled report to -out, and exits — nonzero if any cell failed —
// which is the CI shape: start matrixd, start N workers, wait.
// Without -once it serves forever; the report is available at /report
// once the run drains (and the whole process can be re-pointed at a
// new engine version just by restarting the binary — the store
// re-scan does the invalidation).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/scenario/remote"
)

func main() {
	var (
		addr     = flag.String("addr", ":8341", "listen address")
		storeDir = flag.String("store", "", "content-addressed result store directory (required; same format as paperfigs -cache)")
		full     = flag.Bool("full", false, "serve the matrix at paper scale (default: quick smoke scale)")
		withFlt  = flag.Bool("faults", true, "include the fault-injection axis in the matrix")
		apps     = flag.String("apps", "", "override the matrix program axis (comma-separated registered programs)")
		reps     = flag.Int("reps", 0, "override repetition count")
		nodes    = flag.Int("nodes", 0, "override node count")
		rpn      = flag.Int("rpn", 0, "override ranks per node")
		seed     = flag.Int64("seed", 0, "base seed perturbing every scenario's deterministic jitter seeds")
		ttl      = flag.Duration("lease-ttl", remote.DefaultLeaseTTL, "lease duration; an expired lease requeues its cell")
		once     = flag.Bool("once", false, "serve until the run completes, write the report, then exit")
		out      = flag.String("out", "results.json", "report path (-once only)")
		metrics  = flag.String("metrics-out", "", "write a final /metrics snapshot to this file before exiting (-once only); avoids racing a scrape against shutdown")
	)
	flag.Parse()

	if *storeDir == "" {
		fatal(fmt.Errorf("-store is required"))
	}

	o := scenario.Quick()
	if *full {
		o = scenario.Full()
	}
	if *reps > 0 {
		o.Reps = *reps
	}
	if *nodes > 0 {
		o.Nodes = *nodes
	}
	if *rpn > 0 {
		o.RanksPerNode = *rpn
	}
	o.BaseSeed = *seed

	m := scenario.DefaultMatrix()
	if !*withFlt {
		m.Faults = nil
	}
	if *apps != "" {
		m.Programs = strings.Split(*apps, ",")
		for i := range m.Programs {
			m.Programs[i] = strings.TrimSpace(m.Programs[i])
		}
	}

	store, err := scenario.OpenCache(*storeDir)
	if err != nil {
		fatal(err)
	}
	srv, err := remote.NewServer(remote.ServerConfig{
		Specs:    m.Enumerate(),
		Options:  o,
		Store:    store,
		LeaseTTL: *ttl,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	p := srv.Progress()
	fmt.Printf("matrixd: serving %d cells on %s (%d already complete from %s, lease TTL %v)\n",
		p.Total, ln.Addr(), p.Done, *storeDir, *ttl)

	if !*once {
		fatal(http.Serve(ln, srv))
	}

	httpSrv := &http.Server{Handler: srv}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}()
	<-srv.Done()
	rep := srv.Report()
	// Give in-flight idempotent re-uploads a moment, then stop listening.
	time.Sleep(100 * time.Millisecond)
	httpSrv.Close()

	fmt.Println(rep.Render())
	if p := rep.Provenance; p != nil {
		fmt.Printf("provenance: %d live, %d cached\n", p.Live, p.Cached)
		for _, w := range p.Shards {
			fmt.Printf("  worker %s: %d cells, %.1fs wall\n", w.Label, w.Scenarios, float64(w.WallMS)/1000)
		}
	}
	if err := rep.WriteJSON(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (schema v%d)\n", *out, scenario.SchemaVersion)
	if *metrics != "" {
		if err := os.WriteFile(*metrics, []byte(srv.Metrics()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *metrics)
	}
	if rep.Failed > 0 {
		fatal(fmt.Errorf("%d of %d scenarios failed", rep.Failed, rep.Scenarios))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "matrixd:", err)
	os.Exit(1)
}
