package streach

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// A design rule fences off a decision that no behavioural test would notice
// being undone. Its patterns match rendered syntax (see render).
type rule struct {
	name    string
	in, out *regexp.Regexp // the files covered, as slash paths from the root; out may be nil
	tests   bool           // whether _test.go files are covered
	kind    kind
	fn      *regexp.Regexp // forbidCallIn: the function's rendered declaration
	pat     *regexp.Regexp
	reason  string
	bad     string // a file body (after its package clause) the rule must trip on
}

type kind int

const (
	forbid       kind = iota // no identifier, selector, type, declaration or import path matches pat
	exactlyOne               // exactly one declaration matches pat
	forbidCallIn             // fn is declared and calls nothing that matches pat
	forbidGo                 // no go statement
)

var re = regexp.MustCompile

var designRules = []rule{
	{name: "one-core", in: re(`^[^/]+\.go$`), kind: exactlyOne, pat: re(`^type (core|\w+Core) interface$`),
		reason: "the root composes every backend over the one core interface in engine.go; a second capability interface splits it",
		bad:    "type core interface{}\ntype pointCore interface{}"},
	{name: "one-sweep", in: re(`^internal/reachgraph/traverse\.go$`), kind: exactlyOne, pat: re(`^func (\(\S+\) )?sweep\b`),
		reason: "one DN1 sweep per index: sets, profiles and both directions are its modes",
		bad:    "func sweep() {}\nfunc (s *scratch) sweep() {}"},
	{name: "no-grail-in-root", in: re(`^[^/]+\.go$`), kind: forbid, pat: re(`^streach/internal/grail$`),
		reason: "the §6 baselines run in internal/bench's lab, not as registry backends",
		bad:    `import "streach/internal/grail"`},
	{name: "no-id-maps", in: re(`^internal/(pagefile|dn)/`), kind: forbid, pat: re(`^map\[(pageKey|NodeID)\]`),
		reason: "a page finds its frame through its store's residency table, and long-edge levels are CSR arrays composed without maps",
		bad:    "func f() { _ = make(map[NodeID][]NodeID) }"},
	{name: "readblob-no-touch", in: re(`^internal/pagefile/pagefile\.go$`), kind: forbidCallIn,
		fn: re(`^func \(\*Store\) ReadBlob\b`), pat: re(`(^|\.)Touch$`),
		reason: "ReadBlob latches each pool shard once per window of pages, not once per page",
		bad:    "func (st *Store) ReadBlob() (Blob, error) { st.pool.Touch(0); return Blob{}, nil }"},
	{name: "crc32-in-pagefile", in: re(`\.go$`), out: re(`^internal/pagefile/`), tests: true, kind: forbid, pat: re(`^hash/crc32$`),
		reason: "page checksums are internal/pagefile's alone; readers verify through Blob",
		bad:    `import "hash/crc32"`},
	{name: "one-blob-read", in: re(`^internal/pagefile/`), kind: exactlyOne, pat: re(`^func (\(\S+\) )?(Read\w*|[A-Z]\w* \(.*\bBlob\b)`),
		reason: "a blob is read through Store.ReadBlob alone, whose Blob verifies the pages a reader interprets",
		bad:    "func (st *Store) ReadBlob() (Blob, error)\nfunc (st *Store) ReadRaw() []byte"},
	{name: "segment-no-builder", in: re(`^internal/segment/`), kind: forbid, pat: re(`^contact\.NewBuilder$`),
		reason: "the live log patches per-instant pair tables; it folds no whole network",
		bad:    "var b = contact.NewBuilder()"},
	{name: "no-bench-record", in: re(`^internal/bench/`), tests: true, kind: forbid, pat: re(`^type Record$`),
		reason: "benchmark/ measures over time; internal/bench only renders the paper's artifacts",
		bad:    "type Record struct{}"},
	{name: "live-one-log", in: re(`^(live\.go|internal/(contact|segment)/[^/]+\.go)$`), kind: forbid, pat: re(`^(streach/internal/shard|Mirror)$`),
		reason: "a live feed keeps one log over the whole population: no shard lanes, and no mirrored event copies to route between them",
		bad:    "import \"streach/internal/shard\"\ntype Event struct{ Mirror bool }"},
	{name: "testgen-tests-only", in: re(`\.go$`), out: re(`^internal/testgen/`), kind: forbid, pat: re(`^streach/internal/testgen$`),
		reason: "the test generator is for tests: no engine, command or benchmark binary links it",
		bad:    `import "streach/internal/testgen"`},
	{name: "go-sites", in: re(`^([^/]+\.go|internal/.*)$`), out: re(`^(batch\.go|internal/(par|serve)/.*)$`), kind: forbidGo,
		reason: "goroutines start only in internal/par's build kernels, batch.go's workers and the server; a planner runs a query on its caller's goroutine",
		bad:    "func f() { go func() {}() }"},
}

// render spells the nodes the rules match on: identifiers, selectors,
// pointer, slice and map types, type and function declarations (a function
// with its receiver and result types) and import paths; anything else is "".
func render(n ast.Node) string {
	switch n := n.(type) {
	case *ast.Ident:
		return n.Name
	case *ast.SelectorExpr:
		return render(n.X) + "." + n.Sel.Name
	case *ast.StarExpr:
		return "*" + render(n.X)
	case *ast.ArrayType:
		return "[]" + render(n.Elt)
	case *ast.MapType:
		return "map[" + render(n.Key) + "]" + render(n.Value)
	case *ast.ImportSpec:
		return strings.Trim(n.Path.Value, `"`)
	case *ast.TypeSpec:
		if _, ok := n.Type.(*ast.InterfaceType); ok {
			return "type " + n.Name.Name + " interface"
		}
		return "type " + n.Name.Name
	case *ast.FuncDecl:
		s := "func "
		if n.Recv != nil {
			s += "(" + render(n.Recv.List[0].Type) + ") "
		}
		if s += n.Name.Name; n.Type.Results != nil {
			var res []string
			for _, f := range n.Type.Results.List {
				res = append(res, render(f.Type))
			}
			s += " (" + strings.Join(res, ", ") + ")"
		}
		return s
	}
	return ""
}

// hits returns where f trips r (for exactlyOne, each matching declaration)
// and whether f declares r.fn.
func (r rule) hits(f *ast.File) (at []token.Pos, hasFn bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if r.kind == forbidGo {
				at = append(at, n.Pos())
			}
		case *ast.FuncDecl:
			if r.kind == forbidCallIn && n.Body != nil && r.fn.MatchString(render(n)) {
				hasFn = true
				ast.Inspect(n.Body, func(c ast.Node) bool {
					if c, ok := c.(*ast.CallExpr); ok && r.pat.MatchString(render(c.Fun)) {
						at = append(at, c.Pos())
					}
					return true
				})
			}
		}
		if (r.kind == forbid || r.kind == exactlyOne) && r.pat.MatchString(render(n)) {
			at = append(at, n.Pos())
		}
		return true
	})
	return at, hasFn
}

func (r rule) broken(hits int) bool {
	return r.kind == exactlyOne && hits != 1 || r.kind != exactlyOne && hits > 0
}

func TestDesignRules(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err == nil && strings.HasSuffix(path, ".go") {
			files[filepath.ToSlash(path)], err = parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range designRules {
		t.Run(r.name, func(t *testing.T) {
			bad, err := parser.ParseFile(token.NewFileSet(), "bad.go", "package p\n"+r.bad, parser.SkipObjectResolution)
			if pos, _ := r.hits(bad); err != nil || !r.broken(len(pos)) {
				t.Errorf("does not trip on its snippet (%v):\n%s", err, r.bad)
			}
			var at []string
			hasFn := false
			for path, f := range files {
				if r.in.MatchString(path) && (r.out == nil || !r.out.MatchString(path)) && (r.tests || !strings.HasSuffix(path, "_test.go")) {
					pos, ok := r.hits(f)
					for _, p := range pos {
						at = append(at, fset.Position(p).String())
					}
					hasFn = hasFn || ok
				}
			}
			if r.fn != nil && !hasFn {
				at = append(at, "no function matches "+r.fn.String())
			}
			if slices.Sort(at); r.broken(len(at)) {
				t.Errorf("design rule %s: %s; %d found:\n\t%s", r.name, r.reason, len(at), strings.Join(at, "\n\t"))
			}
		})
	}
	if m, _ := filepath.Glob("BENCH_*.json"); len(m) > 0 {
		t.Errorf("%v at the root: benchmark/ is the one measurement system and commits no report", m)
	}
}
