// Command manactl inspects MANA/DMTCP checkpoint image directories:
// the image-set metadata, each rank image's header fields and section
// sizes (read from the header and trailer alone — the program state is
// never decoded), and the MANA blob contents (virtual-id event log,
// drained in-flight messages, counters).
//
//	manactl info images/
//	manactl ranks images/
//	manactl blob images/ 0
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/dmtcp"
	"repro/internal/mana"
)

var errUsage = errors.New("usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, errUsage):
		usage()
	case err != nil:
		fmt.Fprintln(os.Stderr, "manactl:", err)
		os.Exit(1)
	}
}

// run executes one manactl command line, printing to out.
func run(args []string, out io.Writer) error {
	if len(args) < 2 {
		return errUsage
	}
	cmd, dir := args[0], args[1]
	switch cmd {
	case "info":
		return info(out, dir)
	case "ranks":
		return ranks(out, dir)
	case "blob":
		if len(args) < 3 {
			return errUsage
		}
		rank, err := strconv.Atoi(args[2])
		if err != nil {
			return err
		}
		return blob(out, dir, rank)
	}
	return errUsage
}

func info(out io.Writer, dir string) error {
	meta, err := dmtcp.ReadMeta(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "image set:      %s\n", dir)
	fmt.Fprintf(out, "ranks:          %d\n", meta.NumRanks)
	fmt.Fprintf(out, "implementation: %s\n", meta.Impl)
	fmt.Fprintf(out, "standard ABI:   %v\n", meta.StandardABI)
	fmt.Fprintf(out, "program:        %s\n", meta.Program)
	fmt.Fprintf(out, "step:           %d\n", meta.Step)
	if meta.StandardABI {
		fmt.Fprintln(out, "restartable:    under any standard-ABI implementation")
	} else {
		fmt.Fprintf(out, "restartable:    only under %s (native ABI image)\n", meta.Impl)
	}
	return nil
}

// ranks lists every rank image from its header and trailer: the state
// section is sized, not read.
func ranks(out io.Writer, dir string) error {
	meta, err := dmtcp.ReadMeta(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-6s %-10s %-14s %-12s %-12s\n", "rank", "step", "virtual-time", "state(B)", "blob(B)")
	for r := 0; r < meta.NumRanks; r++ {
		h, err := dmtcp.ReadRankHeader(dir, r)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-6d %-10d %-14s %-12d %-12d\n",
			h.Rank, h.Step, fmt.Sprintf("%.3fms", float64(h.Clock)/1e6), h.StateLen, h.BlobLen)
	}
	return nil
}

func blob(out io.Writer, dir string, rank int) error {
	img, err := dmtcp.ReadRankImage(dir, rank)
	if err != nil {
		return err
	}
	b, err := mana.DecodeBlob(img.PluginBlob)
	if err != nil {
		return fmt.Errorf("decoding MANA blob: %w", err)
	}
	fmt.Fprintf(out, "rank %d MANA state:\n", rank)
	fmt.Fprintf(out, "  next virtual id: %#x\n", b.NextVid)
	fmt.Fprintf(out, "  event log:       %d entries\n", len(b.Log))
	for i, ev := range b.Log {
		fmt.Fprintf(out, "    %3d: %-18s vid=%v parent=%v\n", i, ev.Op, ev.Vid, ev.Parent)
	}
	var sent, recvd uint64
	for _, peers := range b.Sent {
		for _, n := range peers {
			sent += n
		}
	}
	for _, peers := range b.Recvd {
		for _, n := range peers {
			recvd += n
		}
	}
	fmt.Fprintf(out, "  p2p sent:        %d messages\n", sent)
	fmt.Fprintf(out, "  p2p received:    %d messages\n", recvd)
	drained := 0
	bytesDrained := 0
	for _, q := range b.Buffered {
		drained += len(q)
		for _, d := range q {
			bytesDrained += len(d.Data)
		}
	}
	fmt.Fprintf(out, "  drained in-flight messages: %d (%d bytes)\n", drained, bytesDrained)
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  manactl info  <image-dir>        show image-set metadata
  manactl ranks <image-dir>        list per-rank image headers and section sizes
  manactl blob  <image-dir> <rank> dump one rank's MANA state`)
	os.Exit(2)
}
