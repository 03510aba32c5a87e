package aida

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
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

// TestInternalNamesHaveCallers fails on code under internal/ that only
// tests reach, which is deleted rather than kept:
//   - an exported top-level function or type, or an exported method, whose
//     name no non-test file of the module uses besides its declaration;
//   - a non-main package that no non-test package of the module imports.
//
// internal/kbtest is test support and is skipped. Names are matched by
// identifier, across packages, so the check can miss a dead name but never
// flags a live one.
func TestInternalNamesHaveCallers(t *testing.T) {
	decls := map[*ast.Ident]string{} // declaration ident → "dir.Name" or "dir.Recv.Name"
	uses := map[string]int{}         // identifier → occurrences, declarations included
	pkgs := map[string]string{}      // internal import path → package name
	imported := map[string]bool{}    // import path → imported by another non-test package
	for _, gf := range parseModule(t) {
		ast.Inspect(gf.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		for _, path := range moduleImports(gf.f) {
			if path != gf.pkg {
				imported[path] = true
			}
		}
		if !strings.HasPrefix(gf.dir, "internal/") || strings.HasPrefix(gf.dir, "internal/kbtest") {
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
	var dead []string
	uncalled := map[string]bool{}
	for id, name := range decls {
		if id.IsExported() && uses[id.Name] == 1 {
			uncalled[name] = true
			if referenceOnly[name] == "" {
				dead = append(dead, name)
			}
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
