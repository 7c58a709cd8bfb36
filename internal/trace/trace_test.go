package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilSafety is the zero-overhead-when-disabled contract: every
// level of the object model no-ops on a nil receiver, so emission
// sites only ever pay a pointer compare.
func TestNilSafety(t *testing.T) {
	var s *Sink
	l := s.NewLeg("leg", 4)
	if l != nil {
		t.Fatalf("nil sink produced a leg")
	}
	if l.Track(0) != nil {
		t.Fatalf("nil leg not inert")
	}
	l.Driver(CatCkpt, "x", 0)
	var tr *Track
	tr.Begin(CatColl, "x", 0)
	tr.End(CatColl, "x", 1)
	tr.Span(CatColl, "x", 0, 1)
	tr.Instant(CatFabric, "x", 2)
	if s.Legs() != nil {
		t.Fatalf("nil sink has legs")
	}
}

func TestTrackRecording(t *testing.T) {
	s := NewSink()
	l := s.NewLeg("launch prog", 2)
	if len(l.tracks) != 2 {
		t.Fatalf("ranks = %d, want 2", len(l.tracks))
	}
	if l.Track(2) != nil || l.Track(-1) != nil {
		t.Fatalf("out-of-range track not nil")
	}
	tr := l.Track(0)
	tr.Begin(CatColl, "bcast", 10)
	tr.Span(CatColl, "round", 10, 20, Arg{Key: "peer", Val: "1"})
	tr.End(CatColl, "bcast", 30)
	tr.Span(CatColl, "negative", 30, 20) // clamped, never negative
	evs := tr.events
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	if evs[1].Dur != 10 || evs[3].Dur != 0 {
		t.Fatalf("span durations = %d, %d; want 10, 0", evs[1].Dur, evs[3].Dur)
	}
	l.Driver(CatCkpt, "failure", 40, Arg{Key: "ranks", Val: "[1]"})
	if n := len(s.Legs()); n != 1 {
		t.Fatalf("legs = %d, want 1", n)
	}
}

func TestItoa(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{{0, "0"}, {7, "7"}, {42, "42"}, {-3, "-3"}, {123456789, "123456789"}} {
		if got := Itoa(tc.n); got != tc.want {
			t.Errorf("Itoa(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

// chromeDoc mirrors the exported JSON shape for decoding in tests.
type chromeDoc struct {
	SchemaVersion int `json:"schemaVersion"`
	TraceEvents   []struct {
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		Ph   string          `json:"ph"`
		Pid  int             `json:"pid"`
		Tid  int             `json:"tid"`
		Ts   json.Number     `json:"ts"`
		Dur  json.Number     `json:"dur"`
		S    string          `json:"s"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
}

func buildSink() *Sink {
	s := NewSink()
	l := s.NewLeg("launch demo", 2)
	r0 := l.Track(0)
	r0.Begin(CatColl, "BcastBinomial", 1000)
	r0.Instant(CatFabric, "send", 1500, Arg{Key: "dst", Val: "1"}, Arg{Key: "bytes", Val: "64"})
	r0.Span(CatColl, "coll-send", 1000, 2500, Arg{Key: "peer", Val: "1"})
	r0.End(CatColl, "BcastBinomial", 2500)
	l.Track(1).Instant(CatFabric, "deliver", 2001, Arg{Key: "src", Val: "0"})
	l.Driver(CatCkpt, "failure", 3000, Arg{Key: "ranks", Val: "[1]"})
	return s
}

// TestWriteChromeFormat decodes the export with encoding/json and
// checks the trace-event fields Perfetto relies on.
func TestWriteChromeFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := buildSink().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.SchemaVersion != SchemaVersion {
		t.Fatalf("schemaVersion = %d, want %d", doc.SchemaVersion, SchemaVersion)
	}
	var meta, b, e, x, inst int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "B":
			b++
		case "E":
			e++
		case "X":
			x++
			if ev.Dur.String() != "1.500" {
				t.Errorf("span dur = %s, want 1.500 (µs from 1500ns)", ev.Dur)
			}
		case "i":
			inst++
			if ev.S != "t" {
				t.Errorf("instant scope = %q, want \"t\"", ev.S)
			}
		default:
			t.Errorf("unknown phase %q", ev.Ph)
		}
	}
	// 2 process metas + 3 thread metas (rank 0, rank 1, driver).
	if meta != 5 || b != 1 || e != 1 || x != 1 || inst != 3 {
		t.Fatalf("phase counts M=%d B=%d E=%d X=%d i=%d, want 5/1/1/1/3", meta, b, e, x, inst)
	}
	if !strings.Contains(buf.String(), `"ts":1.000`) {
		t.Errorf("missing integer-formatted microsecond timestamp:\n%s", buf.String())
	}
}

// TestWriteChromeDeterministic: equal event streams produce equal
// bytes — the foundation of the cross-run trace diffing contract.
func TestWriteChromeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildSink().WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildSink().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two exports of equal sinks differ")
	}
}

// TestWriteChromeEscaping: a hostile name cannot corrupt the file.
func TestWriteChromeEscaping(t *testing.T) {
	s := NewSink()
	l := s.NewLeg("leg \"quoted\"\\\n", 1)
	l.Track(0).Instant(CatCell, "na\"me", 0, Arg{Key: "k\\", Val: "v\x01"})
	var buf bytes.Buffer
	if err := s.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("escaped export is not valid JSON: %v\n%s", err, buf.String())
	}
}

func TestWriteChromeFile(t *testing.T) {
	path := t.TempDir() + "/sub/dir/trace.json"
	if err := buildSink().WriteChromeFile(path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := buildSink().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
}
