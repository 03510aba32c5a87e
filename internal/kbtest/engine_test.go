package kbtest

import (
	"bytes"
	"os"
	"testing"

	"aida"
	"aida/internal/kb"
)

// engineStores are the Store implementations the traffic-mode suite runs:
// 1 and 4 KB shards.
func engineStores() []NamedStore {
	k := GoldenKB()
	return []NamedStore{
		{Name: "unsharded", Store: k},
		{Name: shardName(4), Store: kb.Shard(k, 4)},
	}
}

// relateAll queries the relatedness of every pair of a deterministic
// entity sample under every measure kind, the traffic /v1/relatedness
// serves beside annotation.
func relateAll(t *testing.T, sys *aida.System, entities int) {
	t.Helper()
	entities = min(entities, sys.KB.NumEntities())
	for _, kind := range []aida.RelatednessKind{aida.MW, aida.KWCS, aida.KPCS, aida.KORE, aida.KORELSHG, aida.KORELSHF} {
		for i := 0; i < entities; i++ {
			for j := i + 1; j < entities; j++ {
				if _, err := sys.Relatedness(kind, aida.EntityID(i), aida.EntityID(j)); err != nil {
					t.Fatalf("Relatedness: %v", err)
				}
			}
		}
	}
}

// readExpected loads the committed golden bytes for a document.
func readExpected(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(ExpectedPath(name))
	if err != nil {
		t.Fatalf("missing expected output for %s: %v (run with -update)", name, err)
	}
	return want
}

// assertGolden runs the full pipeline over the corpus on sys and compares
// every document against the committed expectation byte for byte.
func assertGolden(t *testing.T, sys *aida.System, docs []Doc, mode string) {
	t.Helper()
	for _, d := range docs {
		got := AnnotateJSON(t, sys, d.Text)
		if !bytes.Equal(got, readExpected(t, d.Name)) {
			t.Errorf("%s (%s System): output diverges from golden expectation\n got: %s",
				d.Name, mode, firstDiff(got, readExpected(t, d.Name)))
		}
	}
}

// TestGoldenCorpusEngineModes pins that a System's output does not depend
// on what it served before: the golden corpus comes out byte-identical
// from a cold System (fresh) and a warm one (the same System after the
// corpus and relatedness queries of every kind), at 1 and 4 KB shards.
func TestGoldenCorpusEngineModes(t *testing.T) {
	docs := Docs(t)
	for _, ns := range engineStores() {
		t.Run(ns.Name, func(t *testing.T) {
			t.Run("cold", func(t *testing.T) {
				assertGolden(t, NewSystem(ns.Store), docs, "cold")
			})

			t.Run("warm", func(t *testing.T) {
				sys := NewSystem(ns.Store)
				for _, d := range docs {
					AnnotateJSON(t, sys, d.Text)
				}
				relateAll(t, sys, 40)
				assertGolden(t, sys, docs, "warm")
			})
		})
	}
}
