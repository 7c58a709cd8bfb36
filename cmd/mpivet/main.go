// Command mpivet is the runtime's invariant checker: a multichecker in
// the go/analysis mold (self-contained — no x/tools dependency) that
// machine-enforces the contracts the compiler cannot see:
//
//	envlifetime  pooled fabric.Envelope ownership (use-after-Put,
//	             double-Put, Put-after-send, leaked envelopes)
//	sendowned    no touching an envelope or payload alias after
//	             SendOwned transfers ownership
//	parksafe     fiber-reachable code blocks only via the scheduler
//	             and never parks holding a mutex
//	nativecodes  ABI-surface error codes come from Codes tables or
//	             abi.ErrClass, never integer literals
//	walltime     no wall clock, global rand, or order-sensitive map
//	             iteration in the deterministic core
//	deadexport   no exported function or method that only tests call;
//	             it needs the whole module, so only ./... runs it
//
// Usage:
//
//	go run ./cmd/mpivet ./...
//
// Findings are suppressed, one at a time and with a mandatory written
// justification, by
//
//	//mpivet:allow <analyzer>[,<analyzer>] -- <justification>
//
// trailing a line (suppresses that line), alone on a line (suppresses
// the next), or in a function's doc comment (suppresses the function).
// A directive with no justification, or naming an unknown analyzer, is
// itself a finding. Exit status is 1 when any finding survives and 2
// when a package fails to load or an analyzer fails.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/deadexport"
	"repro/internal/analysis/envlifetime"
	"repro/internal/analysis/load"
	"repro/internal/analysis/nativecodes"
	"repro/internal/analysis/parksafe"
	"repro/internal/analysis/sendowned"
	"repro/internal/analysis/walltime"
)

var analyzers = []*analysis.Analyzer{
	envlifetime.Analyzer,
	sendowned.Analyzer,
	parksafe.Analyzer,
	nativecodes.Analyzer,
	walltime.Analyzer,
	deadexport.Analyzer,
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "mpivet:", err)
	if errors.Is(err, errFindings) {
		os.Exit(1)
	}
	os.Exit(2)
}

// errFindings is what run's error wraps when findings survive.
var errFindings = errors.New("finding(s)")

// parse returns the package patterns a command line names, loading
// nothing; flag errors and -h usage go to flagOut.
func parse(args []string, flagOut io.Writer) ([]string, error) {
	fs := flag.NewFlagSet("mpivet", flag.ContinueOnError)
	fs.SetOutput(flagOut)
	if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
		return fs.Args(), err
	}
	return []string{"./..."}, nil
}

// run checks the packages a command line names with every analyzer and
// prints each surviving finding to out.
func run(args []string, out io.Writer) error {
	patterns, err := parse(args, os.Stderr)
	if err != nil {
		return err
	}
	_, fset, pkgs, err := load.Program(".", patterns...)
	if err != nil {
		return err
	}

	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var diags []analysis.Diagnostic
	var allows []*analysis.Allow
	pkgAllows := map[*load.Package][]*analysis.Allow{}
	for _, pkg := range pkgs {
		pa, problems := analysis.ParseAllows(fset, pkg.Files, pkg.Src, known)
		pkgAllows[pkg] = pa
		allows = append(allows, pa...)
		diags = append(diags, problems...)
	}

	for _, a := range analyzers {
		if a == deadexport.Analyzer && !(len(patterns) == 1 && patterns[0] == "./...") {
			continue // a narrower load cannot see every reference
		}
		var passes []*analysis.Pass
		for _, pkg := range pkgs {
			passes = append(passes, &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Allows:    pkgAllows[pkg],
			})
		}
		switch {
		case a.Run != nil:
			for _, pass := range passes {
				if err := a.Run(pass); err != nil {
					return fmt.Errorf("%s: %v", a.Name, err)
				}
			}
		case a.RunProgram != nil:
			if err := a.RunProgram(passes); err != nil {
				return fmt.Errorf("%s: %v", a.Name, err)
			}
		}
		for _, pass := range passes {
			diags = append(diags, pass.Diagnostics()...)
		}
	}

	findings := analysis.Filter(fset, diags, allows, nil)
	for _, d := range findings {
		fmt.Fprintf(out, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(findings) > 0 {
		return fmt.Errorf("%d %w", len(findings), errFindings)
	}
	return nil
}
