// Package cmddocs finds the command lines the documentation shows, so a
// command's tests can hold every documented invocation to its flag
// parser without running it.
package cmddocs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// Line is one documented `go run ./cmd/<Cmd> …` invocation at Pos
// (file:line, relative to the repository root), its arguments split as a
// shell would.
type Line struct {
	Pos, Cmd string
	Args     []string
}

var goRun = regexp.MustCompile(`go run \./cmd/([A-Za-z0-9_.-]+)(.*)`)

// Lines returns every `go run ./cmd/…` invocation in README.md,
// REPRODUCING.md, docs/*.md and the verify skill under the repository
// root, with backslash-continued lines joined. A line whose arguments do
// not split (an unterminated quote) is an error.
func Lines(root string) ([]Line, error) {
	files, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return nil, err
	}
	for _, f := range []string{"README.md", "REPRODUCING.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		files = append(files, filepath.Join(root, f))
	}
	var out []Line
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		name, _ := filepath.Rel(root, path)
		lines := strings.Split(string(raw), "\n")
		for i := 0; i < len(lines); i++ {
			line, no := lines[i], i+1
			for strings.HasSuffix(line, `\`) && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(line, `\`) + " " + lines[i]
			}
			for _, m := range goRun.FindAllStringSubmatch(line, -1) {
				pos := fmt.Sprintf("%s:%d", name, no)
				args, err := shellWords(m[2])
				if err != nil {
					return nil, fmt.Errorf("%s: %v", pos, err)
				}
				out = append(out, Line{Pos: pos, Cmd: m[1], Args: args})
			}
		}
	}
	return out, nil
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
