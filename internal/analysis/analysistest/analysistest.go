// Package analysistest runs one analyzer over a golden package and checks
// its diagnostics against `// want "regexp"` expectations embedded in the
// source, mirroring golang.org/x/tools' analysistest on top of this repo's
// self-contained loader. Golden packages live under the conventional
// testdata/src/<pkg> layout next to each pass; they are real, compiling Go
// (the loader shells out to `go list -export`), just excluded from wildcard
// build patterns by the testdata rule.
package analysistest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"crystalball/internal/analysis"
)

// wantRe extracts the quoted regexps of a want comment; both double-quoted
// and backquoted (regex-friendly) patterns are accepted.
var wantRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// expectation is one want-regexp awaiting a diagnostic on its line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

// Run loads the golden package rooted at dir (a path like "testdata/src/a",
// relative to the calling test's package directory), runs the analyzer
// unscoped, and reports any mismatch between the diagnostics and the
// `// want` comments as test errors.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	pkgs, err := analysis.Load(abs, ".")
	if err != nil {
		t.Fatalf("analysistest: loading %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("analysistest: %s resolved to %d packages, want 1", dir, len(pkgs))
	}
	pkg := pkgs[0]
	diags, err := analysis.RunPackage(pkg, []*analysis.Analyzer{a}, false)
	if err != nil {
		t.Fatalf("analysistest: running %s on %s: %v", a.Name, dir, err)
	}

	expects := collectWants(t, pkg)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if !match(expects, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s [%s]", filepath.Base(pos.Filename), pos.Line, d.Message, d.AnalyzerName)
		}
	}
	for _, e := range expects {
		if !e.met {
			t.Errorf("%s:%d: no diagnostic matching %s", filepath.Base(e.file), e.line, e.raw)
		}
	}
}

// collectWants parses every `// want "re"` comment in the package.
func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range wantRe.FindAllString(text, -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %s: %v", pos.Filename, pos.Line, q, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: q})
				}
			}
		}
	}
	return out
}

// match consumes the first unmet expectation on (file, line) whose regexp
// matches the message.
func match(expects []*expectation, file string, line int, msg string) bool {
	for _, e := range expects {
		if !e.met && e.file == file && e.line == line && e.re.MatchString(msg) {
			e.met = true
			return true
		}
	}
	return false
}
