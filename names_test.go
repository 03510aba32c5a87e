package aida

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// referenceOnly lists exported internal names that no program calls but
// that a test holds the served code equal to. Each entry names that test.
var referenceOnly = map[string]string{
	"internal/kb.Rebuild":                    "TestOverlayMatchesRebuild and TestGoldenCorpusOverlay hold Overlay equal to it",
	"internal/textstat.NewMatcher":           "TestCompiledCoverMatchesScorePhrase holds Index equal to it",
	"internal/textstat.ScoreCover":           "TestCompiledCoverMatchesScorePhrase holds Index equal to it",
	"internal/textstat.(*Matcher).FindCover": "TestCompiledCoverMatchesScorePhrase holds Index equal to it",
}

// servedPackages lists every module package that cmd/aidaserver links, each
// with what the server needs it for.
var servedPackages = map[string]string{
	"aida":                      "the System the server wraps",
	"aida/internal/server":      "the HTTP handlers",
	"aida/internal/kb":          "the knowledge base, its overlays, domain layers and fleet client",
	"aida/internal/kb/live":     "the delta journal behind -journal",
	"aida/internal/disambig":    "candidates, local scores and the AIDA method",
	"aida/internal/graph":       "the dense-subgraph solver (Algorithm 1)",
	"aida/internal/ner":         "mention recognition",
	"aida/internal/tokenizer":   "tokenization and stopwords",
	"aida/internal/textstat":    "keyphrase cover scoring",
	"aida/internal/pool":        "scratch buffers",
	"aida/internal/emerge":      "CONF confidence (IncludeConfidence)",
	"aida/internal/relatedness": "/v1/relatedness parses every measure kind, the LSH kinds included",
	"aida/internal/minhash":     "the LSH kinds of /v1/relatedness",
	"aida/internal/wiki":        "-gen's synthetic world, which the docs and the smoke script use",
}

// goFile is one parsed non-test Go file of the module.
type goFile struct {
	dir   string // slash-separated and relative to the module root; "." is the root package
	pkg   string // import path
	lines int
	f     *ast.File
}

// parseModule parses every non-test Go file of the module, skipping hidden
// directories and testdata.
func parseModule(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg := "aida"
		if dir != "." {
			pkg += "/" + dir
		}
		files = append(files, goFile{dir: dir, pkg: pkg, lines: bytes.Count(src, []byte("\n")), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// moduleImports returns the import paths of the module packages f imports.
func moduleImports(f *ast.File) []string {
	var paths []string
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path == "aida" || strings.HasPrefix(path, "aida/") {
			paths = append(paths, path)
		}
	}
	return paths
}

// receiver renders a method's receiver type as Go prints it: "T" or "(*T)".
func receiver(fd *ast.FuncDecl) string {
	typ := fd.Recv.List[0].Type
	star, ok := typ.(*ast.StarExpr)
	if ok {
		typ = star.X
	}
	if idx, isGeneric := typ.(*ast.IndexExpr); isGeneric {
		typ = idx.X
	}
	name := typ.(*ast.Ident).Name
	if ok {
		return "(*" + name + ")"
	}
	return name
}

// testSupport reports whether dir holds test support (internal/kbtest and
// its gen command): code only tests run, which keeps no other code alive.
func testSupport(dir string) bool {
	return dir == "internal/kbtest" || strings.HasPrefix(dir, "internal/kbtest/")
}

// benchmarkDir reports whether dir is the frozen benchmark/, whose callers
// are logged apart.
func benchmarkDir(dir string) bool {
	return dir == "benchmark" || strings.HasPrefix(dir, "benchmark/")
}

// TestInternalNamesHaveCallers fails on code under internal/ that only
// tests reach, which is deleted rather than kept:
//   - an exported top-level function or type, or an exported method, whose
//     name no program file uses besides its declaration;
//   - a non-main package that no program package of the module imports.
//
// Program files are the module's non-test files outside internal/kbtest:
// test support is skipped both as a declarer and as a caller. Names are
// matched by identifier, across packages, so the check can miss a dead
// name but never flags a live one. It logs the names that only the frozen
// benchmark/ reaches, which go with the benchmark's re-cut.
func TestInternalNamesHaveCallers(t *testing.T) {
	decls := map[*ast.Ident]string{} // declaration ident → "dir.Name" or "dir.Recv.Name"
	uses := map[string]int{}         // identifier → occurrences in program files, declarations included
	benchUses := map[string]int{}    // identifier → occurrences under benchmark/
	pkgs := map[string]string{}      // internal import path → package name
	imported := map[string]bool{}    // import path → imported by another program package
	for _, gf := range parseModule(t) {
		if testSupport(gf.dir) {
			continue
		}
		bench := benchmarkDir(gf.dir)
		ast.Inspect(gf.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
				if bench {
					benchUses[id.Name]++
				}
			}
			return true
		})
		for _, path := range moduleImports(gf.f) {
			if path != gf.pkg {
				imported[path] = true
			}
		}
		if !strings.HasPrefix(gf.dir, "internal/") {
			continue
		}
		pkgs[gf.pkg] = gf.f.Name.Name
		for _, decl := range gf.f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					decls[decl.Name] = gf.dir + "." + decl.Name.Name
				} else {
					decls[decl.Name] = gf.dir + "." + receiver(decl) + "." + decl.Name.Name
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						decls[ts.Name] = gf.dir + "." + ts.Name.Name
					}
				}
			}
		}
	}
	var dead, benchOnly []string
	uncalled := map[string]bool{}
	for id, name := range decls {
		if !id.IsExported() || uses[id.Name]-benchUses[id.Name] > 1 {
			continue
		}
		if benchUses[id.Name] > 0 {
			benchOnly = append(benchOnly, name)
			continue
		}
		uncalled[name] = true
		if referenceOnly[name] == "" {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s has no caller outside tests: delete it, or allowlist it with the test that compares against it", name)
	}
	for name := range referenceOnly {
		if !uncalled[name] {
			t.Errorf("allowlist entry %s is stale: the name is gone or has a caller", name)
		}
	}
	var unimported []string
	for path, name := range pkgs {
		if name != "main" && !imported[path] {
			unimported = append(unimported, path)
		}
	}
	sort.Strings(unimported)
	for _, path := range unimported {
		t.Errorf("package %s is imported by no program: move it beside the tests that use it, or delete it", path)
	}
	sort.Strings(benchOnly)
	t.Logf("internal names only benchmark/ reaches: %s", strings.Join(benchOnly, ", "))
}

// unwrittenSettings lists exported fields that no program writes but that
// stay, each with its reason.
var unwrittenSettings = map[string]string{
	"internal/kb.RemoteOptions.Client": "kbtest.StartFleetHTTP2 needs it for httptest's self-signed TLS, and kbtest's remote_test counts requests through it",
}

// TestSettingsHaveProgramWriters fails on an exported field, without a json
// tag, of an exported struct type in the root package or under internal/
// (test support excluded) that no program file writes: a field only tests
// set is a constant (one value in use) or dead. A write is a key, or a
// position, in a composite literal of the type, or an assignment or
// inc/dec to a selector of the field's name outside a withDefaults method.
// Selectors are matched by name alone, so the check can miss a dead field
// but never flags a live one. Program files are the module's non-test
// files outside internal/kbtest. It logs the fields that only the frozen
// benchmark/ writes.
func TestSettingsHaveProgramWriters(t *testing.T) {
	files := parseModule(t)
	fields := map[string][]string{} // "dir.Type" → its field names in order, "" for unexported or embedded
	tagged := map[string]bool{}     // "dir.Type.Field" with a json tag
	for _, gf := range files {
		if testSupport(gf.dir) || (gf.dir != "." && !strings.HasPrefix(gf.dir, "internal/")) {
			continue
		}
		for _, decl := range gf.f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				typ := gf.dir + "." + ts.Name.Name
				for _, fl := range st.Fields.List {
					json := fl.Tag != nil && strings.Contains(fl.Tag.Value, `json:"`)
					if len(fl.Names) == 0 {
						fields[typ] = append(fields[typ], "")
					}
					for _, name := range fl.Names {
						if !name.IsExported() {
							fields[typ] = append(fields[typ], "")
							continue
						}
						fields[typ] = append(fields[typ], name.Name)
						tagged[typ+"."+name.Name] = json
					}
				}
			}
		}
	}

	written := map[string]bool{}      // "dir.Type.Field" or ".Field" (a selector write)
	benchWritten := map[string]bool{} // the same, written under benchmark/
	for _, gf := range files {
		if testSupport(gf.dir) {
			continue
		}
		w := written
		if benchmarkDir(gf.dir) {
			w = benchWritten
		}
		imports := map[string]string{} // local package name → dir
		for _, imp := range gf.f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path != "aida" && !strings.HasPrefix(path, "aida/") {
				continue
			}
			dir := strings.TrimPrefix(strings.TrimPrefix(path, "aida"), "/")
			if dir == "" {
				dir = "."
			}
			name := dir[strings.LastIndex(dir, "/")+1:]
			if path == "aida" {
				name = "aida"
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		// typeKey resolves a literal's type expression to "dir.Type".
		typeKey := func(e ast.Expr) string {
			switch ix := e.(type) {
			case *ast.IndexExpr:
				e = ix.X
			case *ast.IndexListExpr:
				e = ix.X
			}
			switch e := e.(type) {
			case *ast.Ident:
				return gf.dir + "." + e.Name
			case *ast.SelectorExpr:
				if pkg, ok := e.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
					return imports[pkg.Name] + "." + e.Sel.Name
				}
			}
			return ""
		}
		elided := map[*ast.CompositeLit]ast.Expr{} // element literal → its elided type
		for _, decl := range gf.f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "withDefaults" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							w["."+sel.Sel.Name] = true
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := n.X.(*ast.SelectorExpr); ok {
						w["."+sel.Sel.Name] = true
					}
				case *ast.CompositeLit:
					typ := n.Type
					if typ == nil {
						typ = elided[n]
					}
					var elt ast.Expr
					switch tt := typ.(type) {
					case *ast.ArrayType:
						elt = tt.Elt
					case *ast.MapType:
						elt = tt.Value
					}
					if star, ok := elt.(*ast.StarExpr); ok {
						elt = star.X
					}
					key := typeKey(typ)
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok && key != "" {
								w[key+"."+id.Name] = true
							}
							el = kv.Value
						} else if i < len(fields[key]) {
							w[key+"."+fields[key][i]] = true
						}
						if u, ok := el.(*ast.UnaryExpr); ok {
							el = u.X
						}
						if lit, ok := el.(*ast.CompositeLit); ok && lit.Type == nil && elt != nil {
							elided[lit] = elt
						}
					}
				}
				return true
			})
		}
	}

	var unwritten, benchOnly []string
	for typ, names := range fields {
		for _, name := range names {
			key := typ + "." + name
			if name == "" || tagged[key] || written[key] || written["."+name] {
				continue
			}
			if benchWritten[key] || benchWritten["."+name] {
				benchOnly = append(benchOnly, key)
				continue
			}
			unwritten = append(unwritten, key)
		}
	}
	sort.Strings(unwritten)
	for _, key := range unwritten {
		if unwrittenSettings[key] == "" {
			t.Errorf("%s is written by no program: make it a constant or delete it, or allowlist it with a reason", key)
		}
	}
	for key := range unwrittenSettings {
		if !slices.Contains(unwritten, key) {
			t.Errorf("allowlist entry %s is stale: the field is gone or a program writes it", key)
		}
	}
	sort.Strings(benchOnly)
	t.Logf("fields only benchmark/ writes: %s", strings.Join(benchOnly, ", "))
}

// TestServerLinksOnlyWhatItServes walks cmd/aidaserver's imports through
// the module and fails on a package it links that servedPackages does not
// list with a reason, and on a listed package it no longer links. It logs
// the served non-test line count.
func TestServerLinksOnlyWhatItServes(t *testing.T) {
	byPkg := map[string][]goFile{}
	for _, gf := range parseModule(t) {
		byPkg[gf.pkg] = append(byPkg[gf.pkg], gf)
	}
	const root = "aida/cmd/aidaserver"
	linked := map[string]bool{root: true}
	queue := []string{root}
	lines := 0
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		for _, gf := range byPkg[pkg] {
			lines += gf.lines
			for _, dep := range moduleImports(gf.f) {
				if !linked[dep] {
					linked[dep] = true
					queue = append(queue, dep)
				}
			}
		}
	}
	var extra []string
	for pkg := range linked {
		if pkg != root && servedPackages[pkg] == "" {
			extra = append(extra, pkg)
		}
	}
	sort.Strings(extra)
	for _, pkg := range extra {
		t.Errorf("cmd/aidaserver links %s, which servedPackages does not list: move what the server does not run out of the served packages, or list it with a reason", pkg)
	}
	for pkg := range servedPackages {
		if !linked[pkg] {
			t.Errorf("servedPackages entry %s is stale: cmd/aidaserver no longer links it", pkg)
		}
	}
	t.Logf("cmd/aidaserver links %d module packages, %d non-test lines", len(linked), lines)
}
