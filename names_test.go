package aida

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// referenceOnly lists exported internal names that no program calls but
// that a test holds the served code equal to. Each entry names that test.
var referenceOnly = map[string]string{
	"internal/kb.Rebuild":          "TestOverlayMatchesRebuild and TestGoldenCorpusOverlay hold Overlay equal to it",
	"internal/textstat.NewMatcher": "TestCompiledCoverMatchesScorePhrase holds Index equal to it",
	"internal/textstat.ScoreCover": "TestCompiledCoverMatchesScorePhrase holds Index equal to it",
}

// TestInternalNamesHaveCallers fails on any exported top-level function or
// type under internal/ that no non-test file of the module names: code that
// only its own tests reach is deleted, not kept. internal/kbtest is test
// support and is skipped. Names are matched by identifier, across
// packages, so the check can miss a dead name but never flags a live one.
func TestInternalNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[*ast.Ident]string{} // declaration ident → "dir.Name"
	uses := map[string]int{}         // identifier → occurrences, declarations included
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "internal/kbtest") {
			return nil
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					decls[decl.Name] = dir + "." + decl.Name.Name
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						decls[ts.Name] = dir + "." + ts.Name.Name
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
}
