package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/fabric/fabrictest"
	"repro/internal/mpich"
	"repro/internal/mpicore"
	"repro/internal/openmpi"
	"repro/internal/ops"
	"repro/internal/scenario"
	"repro/internal/stdabi"
	"repro/internal/types"
)

var update = flag.Bool("update", false, "rewrite testdata/quick from this build (the only way a deliberate virtual-time change lands)")

// TestQuickFigureGoldens regenerates every figure ByName knows at scenario.Quick()
// scale, plus the direct collectives table, and compares each CSV byte for
// byte with the checked-in one. Runs are bit-for-bit reproducible, so a
// change that moves any virtual number fails here, naming the file.
func TestQuickFigureGoldens(t *testing.T) {
	o := scenario.Quick()
	golden := filepath.Join("testdata", "quick")
	out := golden
	if !*update {
		out = t.TempDir()
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	files := []string{"collectives.csv"}
	for _, name := range names {
		fig, err := ByName(name, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := fig.WriteCSV(out); err != nil {
			t.Fatal(err)
		}
		files = append(files, fig.ID+".csv")
	}
	if err := os.WriteFile(filepath.Join(out, "collectives.csv"), collectivesCSV(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if *update {
		return
	}
	for _, name := range files {
		got, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(golden, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s (re-run with -update only for a deliberate virtual-time change):\n--- got\n%s--- want\n%s",
				name, filepath.Join(golden, name), got, want)
		}
	}
}

// collectiveRows are the collectives the golden drives directly over the
// shared runtime: every policy's broadcast, allreduce and alltoall at 8
// ranks, below and above its algorithm switchovers, and MPICH's at 1024
// and 4096 ranks.
var collectiveRows = []struct {
	impl         *mpicore.Impl
	coll         string
	ranks, count int
}{
	{mpich.Impl, "bcast", 8, 8}, {mpich.Impl, "bcast", 8, 8192},
	{openmpi.Impl, "bcast", 8, 8}, {openmpi.Impl, "bcast", 8, 8192},
	{stdabi.Impl, "bcast", 8, 8}, {stdabi.Impl, "bcast", 8, 8192},
	{mpich.Impl, "allreduce", 8, 8}, {mpich.Impl, "allreduce", 8, 8192},
	{openmpi.Impl, "allreduce", 8, 8}, {openmpi.Impl, "allreduce", 8, 8192},
	{stdabi.Impl, "allreduce", 8, 8}, {stdabi.Impl, "allreduce", 8, 8192},
	{mpich.Impl, "alltoall", 8, 8}, {mpich.Impl, "alltoall", 8, 1024},
	{openmpi.Impl, "alltoall", 8, 8}, {openmpi.Impl, "alltoall", 8, 1024},
	{stdabi.Impl, "alltoall", 8, 8}, {stdabi.Impl, "alltoall", 8, 1024},
	{mpich.Impl, "allreduce", 1024, 8}, {mpich.Impl, "allreduce", 4096, 8},
	{mpich.Impl, "bcast", 1024, 8}, {mpich.Impl, "barrier", 1024, 0},
}

// collectivesCSV runs each of collectiveRows once and tabulates rank 0's
// virtual time for the operation.
func collectivesCSV(t *testing.T) []byte {
	var b strings.Builder
	b.WriteString("policy,collective,bytes,ranks,virt_us\n")
	for _, row := range collectiveRows {
		us := driveCollective(t, row.impl, row.coll, row.ranks, row.count, 1)
		fmt.Fprintf(&b, "%s,%s,%d,%d,%s\n", row.impl.Dialect.Name, row.coll, row.count*8, row.ranks,
			strconv.FormatFloat(us, 'g', -1, 64))
	}
	return []byte(b.String())
}

// driveCollective runs one collective iters times on a fresh world of the
// given size directly over the shared runtime — no binding, no shim, no
// launcher — and returns rank 0's virtual µs per operation. A benchmark's
// timer starts once the world is built.
func driveCollective(tb testing.TB, im *mpicore.Impl, coll string, ranks, count, iters int) float64 {
	tb.Helper()
	w := fabrictest.World(tb, ranks)
	if b, ok := tb.(*testing.B); ok {
		b.ResetTimer()
	}
	fabrictest.Run(tb, w, func(r int) error {
		p := mpicore.NewProc(w, r, abi.ConstsOf(im.Dialect), im.Dialect.Codes, im.Policy())
		c := p.CommWorld
		it := p.Predef(types.KindInt64)
		sum := p.PredefOp(ops.OpSum)
		sb := make([]byte, count*8)
		rb := make([]byte, count*8)
		var a2aIn, a2aOut []byte
		if coll == "alltoall" {
			a2aIn = make([]byte, ranks*count*8)
			a2aOut = make([]byte, ranks*count*8)
		}
		for i := 0; i < iters; i++ {
			var code int
			switch coll {
			case "bcast":
				code = p.Bcast(sb, count, it, 0, c)
			case "allreduce":
				code = p.Allreduce(sb, rb, count, it, sum, c)
			case "alltoall":
				code = p.Alltoall(a2aIn, count, it, a2aOut, count, it, c)
			case "barrier":
				code = p.Barrier(c)
			}
			if code != 0 {
				return fmt.Errorf("%s failed with code %d", coll, code)
			}
		}
		return nil
	})
	return float64(w.Endpoint(0).Clock().Now()) / 1e3 / float64(iters)
}

// BenchmarkLargeWorldAllreduce is the scale bench: a 64-byte allreduce at
// 1K and 4K ranks, all ranks sharing one execution token.
func BenchmarkLargeWorldAllreduce(b *testing.B) {
	for _, ranks := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("event/ranks=%d", ranks), func(b *testing.B) {
			b.ReportMetric(driveCollective(b, mpich.Impl, "allreduce", ranks, 8, b.N), "virt-us/op")
		})
	}
}
