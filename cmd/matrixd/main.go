// Command matrixd serves one scenario-matrix run as a service: a
// content-addressed store of completed cell results plus the run's lease
// queue, over plain HTTP. Workers are paperfigs processes pointed at it
// (paperfigs -matrix -remote URL); they lease cells one at a time,
// longest-expected-first, and need no slice assignment and no shared
// filesystem.
//
// The store directory is the same content-addressed cache paperfigs
// -cache uses, holding the same bytes: a warm local cache seeds the
// service, and the service's store warms later local runs. It is read
// once, at start-up — cells it already holds are complete before the
// first lease, and its recorded wall times order the queue — and only
// written to afterwards. GET /metrics exposes the operational counters in
// Prometheus text format and GET /status a human summary.
//
// With -once, matrixd serves until every cell is complete, writes the
// assembled report to -out (and the final /metrics snapshot to
// -metrics-out) and exits, nonzero if any cell failed: the CI shape is
// start matrixd, start N workers, wait. Without -once it serves forever,
// with the report at /report once the run drains.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/scenario/remote"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "matrixd:", err)
		os.Exit(1)
	}
}

// config is one parsed matrixd command line.
type config struct {
	addr, storeDir, apps, out, metrics string
	full, faults, once                 bool
	reps, nodes, rpn                   int
	seed                               int64
	ttl                                time.Duration
}

// parse reads a command line into a config without running anything;
// flag errors and -h usage go to flagOut.
func parse(args []string, flagOut io.Writer) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("matrixd", flag.ContinueOnError)
	fs.SetOutput(flagOut)
	fs.StringVar(&c.addr, "addr", ":8341", "listen address")
	fs.StringVar(&c.storeDir, "store", "", "content-addressed result store directory (required; same format as paperfigs -cache)")
	fs.BoolVar(&c.full, "full", false, "serve the matrix at paper scale (default: quick smoke scale)")
	fs.BoolVar(&c.faults, "faults", true, "include the fault-injection axis in the matrix")
	fs.StringVar(&c.apps, "apps", "", "override the matrix program axis (comma-separated registered programs)")
	fs.IntVar(&c.reps, "reps", 0, "override repetition count")
	fs.IntVar(&c.nodes, "nodes", 0, "override node count")
	fs.IntVar(&c.rpn, "rpn", 0, "override ranks per node")
	fs.Int64Var(&c.seed, "seed", 0, "base seed perturbing every scenario's deterministic jitter seeds")
	fs.DurationVar(&c.ttl, "lease-ttl", remote.DefaultLeaseTTL, "lease duration; an expired lease requeues its cell")
	fs.BoolVar(&c.once, "once", false, "serve until the run completes, write the report, then exit")
	fs.StringVar(&c.out, "out", "results.json", "report path (-once only)")
	fs.StringVar(&c.metrics, "metrics-out", "", "write a final /metrics snapshot to this file before exiting (-once only); avoids racing a scrape against shutdown")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if c.storeDir == "" {
		return nil, errors.New("-store is required")
	}
	return c, nil
}

// run serves one matrixd command line, printing to out.
func run(args []string, out io.Writer) error {
	c, err := parse(args, os.Stderr)
	if err != nil {
		return err
	}
	o := scenario.Quick()
	if c.full {
		o = scenario.Full()
	}
	if c.reps > 0 {
		o.Reps = c.reps
	}
	if c.nodes > 0 {
		o.Nodes = c.nodes
	}
	if c.rpn > 0 {
		o.RanksPerNode = c.rpn
	}
	o.BaseSeed = c.seed
	m := scenario.DefaultMatrix()
	if !c.faults {
		m.Faults = nil
	}
	if c.apps != "" {
		m.Programs = strings.Fields(strings.ReplaceAll(c.apps, ",", " "))
	}

	store, err := scenario.OpenCache(c.storeDir)
	if err != nil {
		return err
	}
	srv, err := remote.NewServer(remote.ServerConfig{Specs: m.Enumerate(), Options: o, Store: store, LeaseTTL: c.ttl})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	p := srv.Progress()
	fmt.Fprintf(out, "matrixd: serving %d cells on %s (%d already complete from %s, lease TTL %v)\n",
		p.Total, ln.Addr(), p.Done, c.storeDir, c.ttl)
	httpSrv := &http.Server{Handler: srv}
	if !c.once {
		return httpSrv.Serve(ln)
	}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-srv.Done():
	}
	rep := srv.Report()
	// Give in-flight idempotent re-uploads a moment, then stop listening.
	time.Sleep(100 * time.Millisecond)
	httpSrv.Close()

	saved := rep.Save(c.out, out)
	if c.metrics != "" {
		if err := os.WriteFile(c.metrics, []byte(srv.Metrics()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", c.metrics)
	}
	return saved
}
