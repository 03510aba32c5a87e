package kbtest

import (
	"bytes"
	"os"
	"testing"

	"aida"
	"aida/internal/kb"
)

// engineStores are the Store implementations the engine-mode suite runs:
// the acceptance matrix is 1 and 4 KB shards.
func engineStores() []NamedStore {
	k := GoldenKB()
	return []NamedStore{
		{Name: "unsharded", Store: k},
		{Name: shardName(4), Store: kb.Shard(k, 4)},
	}
}

// warmKORE drives KORE relatedness over a deterministic entity sample so
// the engine interns keyphrase profiles. The golden pipeline's default AIDA
// method scores coherence with MW, which leaves the engine empty, so this is
// what puts profiles and memoized pairs into play without touching
// annotation output.
func warmKORE(sys *aida.System, entities int) {
	n := sys.KB.NumEntities()
	if entities > n {
		entities = n
	}
	for i := 0; i < entities; i++ {
		for j := i + 1; j < entities; j++ {
			sys.Relatedness(aida.KORE, aida.EntityID(i), aida.EntityID(j))
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
			t.Errorf("%s (%s engine): output diverges from golden expectation\n got: %s",
				d.Name, mode, firstDiff(got, readExpected(t, d.Name)))
		}
	}
}

// TestGoldenCorpusEngineModes is the engine-lifecycle conformance suite:
// the golden corpus must come out byte-identical in both engine modes —
// cold (fresh caches) and warm (the same System after the corpus and KORE
// traffic have filled its memo) — at 1 and 4 KB shards. A warm engine
// changes only work counters (hits, misses), never a single output byte.
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
				warmKORE(sys, 40)
				if st := sys.Live().Engine.Stats(); st.Profiles == 0 || st.Pairs == 0 {
					t.Fatalf("engine is still cold after KORE traffic: %+v", st)
				}
				assertGolden(t, sys, docs, "warm")
			})
		})
	}
}
