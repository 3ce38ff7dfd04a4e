package faure_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests checks the CI workflow's test selections:
// every |-separated alternative of a go test command's -run or -fuzz
// pattern must match a Test or Fuzz function in the packages the
// command names, so an alternative whose test was deleted or renamed
// fails here instead of quietly selecting nothing.
func TestCIRunPatternsNameTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, miss := range unmatchedAlternatives(t, string(ci)) {
		t.Error(miss)
	}
	// The checker itself: of two alternatives, it reports the one that
	// names no test.
	bad := "      - run: go test -race -run 'Exhaust|Budget' ./internal/budget/\n"
	if got := unmatchedAlternatives(t, bad); len(got) != 1 || !strings.Contains(got[0], `"Exhaust"`) {
		t.Errorf("unmatchedAlternatives(%q) = %q, want one report naming Exhaust", bad, got)
	}
}

// unmatchedAlternatives reports each -run or -fuzz alternative of the
// workflow's go test commands that matches no test of their packages.
func unmatchedAlternatives(t *testing.T, workflow string) []string {
	t.Helper()
	var out []string
	for _, cmd := range shellCommands(workflow) {
		dir := "."
		for _, seg := range regexp.MustCompile(`\s*(?:&&|;)\s*`).Split(cmd, -1) {
			args := shellWords(seg)
			if len(args) == 2 && args[0] == "cd" {
				dir = filepath.Join(dir, args[1])
				continue
			}
			if len(args) < 2 || args[0] != "go" || args[1] != "test" {
				continue
			}
			patterns, pkgs := goTestArgs(args[2:])
			if len(patterns) == 0 {
				continue
			}
			names := testNames(t, dir, pkgs)
			for _, p := range patterns {
				for _, alt := range strings.Split(p, "|") {
					re, err := regexp.Compile(alt)
					if err != nil {
						out = append(out, fmt.Sprintf("%s: alternative %q: %v", seg, alt, err))
					} else if !slices.ContainsFunc(names, re.MatchString) {
						out = append(out, fmt.Sprintf("%s: alternative %q names no Test or Fuzz function", seg, alt))
					}
				}
			}
		}
	}
	return out
}

// shellCommands returns the shell lines of the workflow's run keys: a
// plain value or a folded (>) block is one line, a literal (|) block
// one per line.
func shellCommands(workflow string) []string {
	runKey := regexp.MustCompile(`^(\s*)(?:-\s+)?run:\s*(.*)$`)
	lines := strings.Split(workflow, "\n")
	var out []string
	for i := 0; i < len(lines); i++ {
		m := runKey.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		value := m[2]
		if !strings.HasPrefix(value, ">") && !strings.HasPrefix(value, "|") {
			out = append(out, value)
			continue
		}
		var block []string
		for i+1 < len(lines) && (strings.TrimSpace(lines[i+1]) == "" ||
			len(lines[i+1])-len(strings.TrimLeft(lines[i+1], " ")) > len(m[1])) {
			i++
			if s := strings.TrimSpace(lines[i]); s != "" {
				block = append(block, s)
			}
		}
		if value[0] == '>' {
			out = append(out, strings.Join(block, " "))
		} else {
			out = append(out, block...)
		}
	}
	return out
}

// shellWords splits one shell command into words, removing single and
// double quotes.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	inWord, quote := false, byte(0)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				w.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				words = append(words, w.String())
				w.Reset()
				inWord = false
			}
		default:
			w.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}

// valueFlags are the go test flags that take a value, which the
// workflow may pass as the next word.
var valueFlags = map[string]bool{
	"run": true, "fuzz": true, "skip": true, "bench": true, "benchtime": true,
	"timeout": true, "fuzztime": true, "count": true, "cpu": true, "parallel": true,
}

// goTestArgs returns the -run and -fuzz patterns of go test's
// arguments, except the ^$ that selects no test, and its packages.
func goTestArgs(args []string) (patterns, pkgs []string) {
	for i := 0; i < len(args); i++ {
		if !strings.HasPrefix(args[i], "-") {
			pkgs = append(pkgs, args[i])
			continue
		}
		name, value, ok := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
		if !ok && valueFlags[name] && i+1 < len(args) {
			i++
			value = args[i]
		}
		if (name == "run" || name == "fuzz") && value != "^$" {
			patterns = append(patterns, value)
		}
	}
	return patterns, pkgs
}

// testNames lists the Test and Fuzz functions of go test's package
// arguments, relative to dir. A ./... pattern spans dir's module and
// stops where a nested go.mod starts another.
func testNames(t *testing.T, dir string, pkgs []string) []string {
	t.Helper()
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	var names []string
	for _, pkg := range pkgs {
		rel, recursive := strings.CutSuffix(pkg, "...")
		root := filepath.Join(dir, rel)
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == root {
					return nil
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); !recursive || err == nil ||
					d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
			return nil
		})
		if err != nil {
			t.Fatalf("package %s in %s: %v", pkg, dir, err)
		}
	}
	return names
}
