package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goRunLine finds a `go run ./cmd/<name>` invocation and the text after it.
var goRunLine = regexp.MustCompile(`go run \./cmd/([A-Za-z0-9_.-]+)(.*)`)

// TestDocsCommandLines holds the documentation to the command line that
// exists: every `go run ./cmd/<name> …` in README.md, REPRODUCING.md,
// docs/*.md and the verify skill must name a directory under cmd/, and
// every paperfigs invocation must parse against the flag set and mode
// checks run uses. Nothing is run.
func TestDocsCommandLines(t *testing.T) {
	root := filepath.Join("..", "..")
	files, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"README.md", "REPRODUCING.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		files = append(files, filepath.Join(root, f))
	}
	parsed := 0
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name, _ := filepath.Rel(root, path)
		lines := strings.Split(string(raw), "\n")
		for i := 0; i < len(lines); i++ {
			line, no := lines[i], i+1
			for strings.HasSuffix(line, `\`) && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(line, `\`) + " " + lines[i]
			}
			for _, m := range goRunLine.FindAllStringSubmatch(line, -1) {
				cmd, rest := m[1], m[2]
				if fi, err := os.Stat(filepath.Join(root, "cmd", cmd)); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d: go run ./cmd/%s: no such command under cmd/", name, no, cmd)
					continue
				}
				if cmd != "paperfigs" {
					continue
				}
				args, err := shellWords(rest)
				if err == nil {
					_, err = parse(args, io.Discard)
				}
				if err != nil {
					t.Errorf("%s:%d: go run ./cmd/paperfigs%s: %v", name, no, rest, err)
				}
				parsed++
			}
		}
	}
	if parsed < 20 {
		t.Fatalf("found only %d paperfigs command lines in the docs; the extraction is broken", parsed)
	}
}

// shellWords splits the arguments of one documented command line the
// way a shell would, up to the end of the command: an inline-code
// backtick, a comment, a pipe, a redirection or a command separator.
func shellWords(s string) ([]string, error) {
	if i := strings.IndexByte(s, '`'); i >= 0 {
		s = s[:i]
	}
	var (
		words []string
		cur   strings.Builder
		inTok bool
		quote byte
	)
scan:
	for i := 0; i < len(s); i++ {
		ch := s[i]
		switch {
		case quote != 0:
			if ch == quote {
				quote = 0
			} else {
				cur.WriteByte(ch)
			}
		case ch == '\'' || ch == '"':
			quote, inTok = ch, true
		case ch == ' ' || ch == '\t':
			if inTok {
				words = append(words, cur.String())
				cur.Reset()
				inTok = false
			}
		case strings.IndexByte("|;&<>)", ch) >= 0, ch == '#' && !inTok:
			break scan
		default:
			cur.WriteByte(ch)
			inTok = true
		}
	}
	if quote != 0 {
		return nil, errors.New("unterminated quote")
	}
	if inTok {
		words = append(words, cur.String())
	}
	return words, nil
}
