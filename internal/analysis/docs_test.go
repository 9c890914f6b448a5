package analysis

import (
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The doc guards hold the prose to the two sources it quotes: CI's pinned
// lines and the module's declarations. A count lives in ci.yml and in at
// most one doc; a Go name a doc quotes is one the module declares.

// guardedDocs are the documents the guards read, relative to the module root.
var guardedDocs = []string{"README.md", ".claude/skills/verify/SKILL.md"}

const ciFile = ".github/workflows/ci.yml"

// moduleRoot is the module root, seen from this package's directory.
const moduleRoot = "../.."

// docsAllowed are the items the doc guards let stand, each with its reason.
// A row names its guard ("count", "pin" or "name") and the item as that
// guard reports it. A row that matches nothing fails.
var docsAllowed = []struct{ guard, item, why string }{
	{"count", "2009", "the paper's year (NSDI 2009), not a count"},
	{"count", "4096", "the live-loop profiling recipe's GODEBUG memprofilerate, a sampling setting, not a count"},
}

// TestDocCountsArePinnedInCI fails on every count literal of a guarded doc
// that no ci.yml line holds: a count the docs keep is one CI checks.
func TestDocCountsArePinnedInCI(t *testing.T) {
	ci := readFile(t, filepath.Join(moduleRoot, ciFile))
	var found []finding
	for _, doc := range guardedDocs {
		for _, n := range unpinnedCounts(readFile(t, filepath.Join(moduleRoot, doc)), ci) {
			found = append(found, finding{doc, n})
		}
	}
	report(t, "count", found, "is a count no ci.yml line holds: quote a CI pin or name the test that states it")
}

// TestDocPinsStatedOnce fails on every number of a ci.yml grep pattern that
// more than one guarded doc states, so a change to a pinned count touches
// ci.yml and at most one doc.
func TestDocPinsStatedOnce(t *testing.T) {
	ci := readFile(t, filepath.Join(moduleRoot, ciFile))
	texts := make([]string, len(guardedDocs))
	for i, doc := range guardedDocs {
		texts[i] = readFile(t, filepath.Join(moduleRoot, doc))
	}
	var found []finding
	for _, n := range sharedPins(ci, texts...) {
		found = append(found, finding{strings.Join(guardedDocs, " and "), n})
	}
	report(t, "pin", found, "is pinned by a ci.yml grep and stated in more than one doc: keep it in one")
}

// TestDocGoNamesResolve fails on every backticked Go reference of a guarded
// doc that names no live declaration.
func TestDocGoNamesResolve(t *testing.T) {
	r := newGoResolver(loadModule(t))
	var found []finding
	for _, doc := range guardedDocs {
		for _, ref := range deadRefs(readFile(t, filepath.Join(moduleRoot, doc)), r) {
			found = append(found, finding{doc, ref})
		}
	}
	report(t, "name", found, "names no declaration of the module")
}

// TestDocGuardExtractors runs each extractor over the fixture under
// testdata/docs: a count CI pins, one it does not, the year row and digits
// inside names; a live name, a promoted field, a deleted name, a stdlib name
// under a module package's name, time.Now, a name inside a path, and a
// deleted name inside a fenced block.
func TestDocGuardExtractors(t *testing.T) {
	doc, ci := readFile(t, "testdata/docs/doc.md"), readFile(t, "testdata/docs/ci.yml")
	check := func(what string, got, want []string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %q, want %q", what, got, want)
		}
	}
	check("countLiterals", countLiterals(doc), []string{"2009", "1451202", "252707"})
	check("unpinnedCounts", unpinnedCounts(doc, ci), []string{"2009", "252707"})
	var kept []string
	for _, n := range unpinnedCounts(doc, ci) {
		if !allowed("count", n) {
			kept = append(kept, n)
		}
	}
	check("unpinnedCounts past docsAllowed", kept, []string{"252707"})
	check("pinNumbers", pinNumbers(ci), []string{"1451202", "2094751", "36.2"})
	check("sharedPins", sharedPins(ci, doc, "states=1451202 (36.2 %)"), []string{"1451202"})
	check("goRefs", goRefs(doc), []string{"GState.View", "Search.RunIn", "runtime.GOMAXPROCS", "sm.Event.Kind", "time.Now"})
	check("deadRefs", deadRefs(doc, newGoResolver(loadModule(t))), []string{"GState.View"})
}

// A finding is one item a guard reports, and the doc it is in.
type finding struct{ doc, item string }

// allowed reports whether a row of guard lets item stand.
func allowed(guard, item string) bool {
	for _, r := range docsAllowed {
		if r.guard == guard && r.item == item {
			return true
		}
	}
	return false
}

// report fails t on every finding no row of guard allows, and on every row
// of guard that allows none.
func report(t *testing.T, guard string, found []finding, msg string) {
	t.Helper()
	matched := map[string]bool{}
	for _, f := range found {
		if allowed(guard, f.item) {
			matched[f.item] = true
			continue
		}
		t.Errorf("%s: %s %s", f.doc, f.item, msg)
	}
	for _, r := range docsAllowed {
		if r.guard == guard && !matched[r.item] {
			t.Errorf("docsAllowed row %s %q matches nothing: drop it", r.guard, r.item)
		}
	}
}

func readFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// number matches a decimal number: digits, or digit groups joined by
// thousands commas, with an optional fraction.
var number = regexp.MustCompile(`\d{1,3}(?:,\d{3})+(?:\.\d+)?|\d+(?:\.\d+)?`)

// numbers returns the numbers of text in order, commas stripped. A run of
// digits that continues a word or a dotted name ("uint64", "16d75e8",
// "1.2.3") is not a number.
func numbers(text string) []string {
	var out []string
	for _, loc := range number.FindAllStringIndex(text, -1) {
		if loc[0] > 0 {
			if c := text[loc[0]-1]; c == '_' || c == '.' || c >= '0' && c <= '9' || c|0x20 >= 'a' && c|0x20 <= 'z' {
				continue
			}
		}
		out = append(out, strings.ReplaceAll(text[loc[0]:loc[1]], ",", ""))
	}
	return out
}

// countLiterals returns the numbers of text whose integer part has at least
// four digits, in order.
func countLiterals(text string) []string {
	var out []string
	for _, n := range numbers(text) {
		if whole, _, _ := strings.Cut(n, "."); len(whole) >= 4 {
			out = append(out, n)
		}
	}
	return out
}

// unpinnedCounts returns, once each and in order, the count literals of doc
// that are no number of ci.
func unpinnedCounts(doc, ci string) []string {
	pinned := set(numbers(ci))
	seen := map[string]bool{}
	var out []string
	for _, n := range countLiterals(doc) {
		if !pinned[n] && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// grepPattern matches a grep command and its single-quoted pattern.
var grepPattern = regexp.MustCompile(`grep(?:\s+-\w+)*\s+'([^']*)'`)

// pinNumbers returns, once each and in order, the numbers of ci's grep
// patterns that have more than one character: a one-digit depth, seed or
// count is in every doc and pins nothing a reader would restate.
func pinNumbers(ci string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range grepPattern.FindAllStringSubmatch(ci, -1) {
		for _, n := range numbers(strings.ReplaceAll(m[1], `\.`, ".")) {
			if len(n) > 1 && !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// sharedPins returns the pin numbers of ci that more than one of docs
// states.
func sharedPins(ci string, docs ...string) []string {
	sets := make([]map[string]bool, len(docs))
	for i, doc := range docs {
		sets[i] = set(numbers(doc))
	}
	var out []string
	for _, n := range pinNumbers(ci) {
		in := 0
		for _, s := range sets {
			if s[n] {
				in++
			}
		}
		if in > 1 {
			out = append(out, n)
		}
	}
	return out
}

func set(items []string) map[string]bool {
	m := make(map[string]bool, len(items))
	for _, s := range items {
		m[s] = true
	}
	return m
}

var (
	codeSpan = regexp.MustCompile("`[^`]+`")
	dotted   = regexp.MustCompile(`[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+`)
)

// goRefs returns, sorted and once each, the dotted names inside the
// backticked spans of doc's prose, fenced code blocks left out. A name
// that continues a path or another name ("internal/mc.Unused") is not one.
// Which of them are Go references is the resolver's to say.
func goRefs(doc string) []string {
	seen := map[string]bool{}
	for _, span := range codeSpan.FindAllString(prose(doc), -1) {
		for _, loc := range dotted.FindAllStringIndex(span, -1) {
			if c := span[loc[0]-1]; c == '/' || c == '.' || c >= '0' && c <= '9' {
				continue
			}
			seen[span[loc[0]:loc[1]]] = true
		}
	}
	out := make([]string, 0, len(seen))
	for ref := range seen {
		out = append(out, ref)
	}
	sort.Strings(out)
	return out
}

// prose returns doc with the lines of its fenced code blocks blanked.
func prose(doc string) string {
	lines := strings.Split(doc, "\n")
	fenced := false
	for i, line := range lines {
		fence := strings.HasPrefix(strings.TrimSpace(line), "```")
		if fenced || fence {
			lines[i] = ""
		}
		if fence {
			fenced = !fenced
		}
	}
	return strings.Join(lines, "\n")
}

// deadRefs returns the Go references of doc that r cannot resolve.
func deadRefs(doc string, r *goResolver) []string {
	var out []string
	for _, ref := range goRefs(doc) {
		if parts := strings.Split(ref, "."); r.isRef(parts[0]) && !r.resolves(parts) {
			out = append(out, ref)
		}
	}
	return out
}

// A goResolver resolves the dotted names a doc quotes. A name is a Go
// reference when its first part is the name of a module package or of an
// exported module type; it resolves when each later part is a declaration
// of that package or a field or method, promoted ones included, of the
// part before. A module package that shares its name with a standard
// library package the module imports (runtime) also resolves there.
type goResolver struct {
	pkgs  map[string][]*types.Package  // module packages by name
	std   map[string][]*types.Package  // imported stdlib packages by name
	types map[string][]*types.TypeName // exported module types by name
}

func newGoResolver(pkgs []*Package) *goResolver {
	r := &goResolver{map[string][]*types.Package{}, map[string][]*types.Package{}, map[string][]*types.TypeName{}}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		if name := pkg.Types.Name(); name != "main" {
			r.pkgs[name] = append(r.pkgs[name], pkg.Types)
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
				r.types[name] = append(r.types[name], tn)
			}
		}
		for _, imp := range pkg.Types.Imports() {
			if !strings.HasPrefix(imp.Path(), "crystalball/") && !seen[imp.Path()] {
				seen[imp.Path()] = true
				r.std[imp.Name()] = append(r.std[imp.Name()], imp)
			}
		}
	}
	return r
}

func (r *goResolver) isRef(first string) bool {
	return r.pkgs[first] != nil || r.types[first] != nil
}

func (r *goResolver) resolves(parts []string) bool {
	for _, p := range slices.Concat(r.pkgs[parts[0]], r.std[parts[0]]) {
		if obj := p.Scope().Lookup(parts[1]); obj != nil && members(obj, parts[2:]) {
			return true
		}
	}
	for _, tn := range r.types[parts[0]] {
		if members(tn, parts[1:]) {
			return true
		}
	}
	return false
}

// members reports whether each name in turn is a field or method of the
// type of the object before it; only a type or a variable has members.
func members(obj types.Object, names []string) bool {
	for _, name := range names {
		switch obj.(type) {
		case *types.TypeName, *types.Var:
		default:
			return false
		}
		if obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), name); obj == nil {
			return false
		}
	}
	return true
}
