package kb

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sportsDict flips the dominant sense of the ambiguous "Page" surface
// (Larry Page 60 vs Jimmy Page 40 in buildMusicKB) toward the musician.
func sportsDict() DomainDictionary {
	return DomainDictionary{
		Name: "music",
		Rows: []DomainRow{{Surface: "Page", Entity: "Jimmy Page", Count: 200}},
	}
}

func TestDomainLayerReweightsPriors(t *testing.T) {
	k := buildMusicKB()
	layer, err := NewDomainLayer(k, sportsDict())
	if err != nil {
		t.Fatal(err)
	}

	// In the layer, Jimmy Page carries 40+200 of 300 total mass and leads.
	cands := layer.Candidates("Page")
	if len(cands) != 2 {
		t.Fatalf("layer Candidates(Page) = %v, want 2", cands)
	}
	if layer.Entity(cands[0].Entity).Name != "Jimmy Page" {
		t.Fatalf("domain head sense = %s, want Jimmy Page", layer.Entity(cands[0].Entity).Name)
	}
	if want := 240.0 / 300.0; math.Abs(cands[0].Prior-want) > 1e-9 {
		t.Fatalf("domain prior = %v, want %v", cands[0].Prior, want)
	}

	// The base store is untouched, and untouched surfaces pass through.
	if base := k.Candidates("Page"); k.Entity(base[0].Entity).Name != "Larry Page" {
		t.Fatal("domain layer mutated the base store")
	}
	if got, want := layer.Candidates("Kashmir"), k.Candidates("Kashmir"); len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("untouched surface diverges: %v vs %v", got, want)
	}

	// A rows-only layer adds no entities and touches none: System shares
	// the base generation's engine with its domain layers on that ground.
	if layer.Added() != 0 {
		t.Fatalf("Added() = %d, want 0 for a rows-only layer", layer.Added())
	}
	if len(layer.Touched()) != 0 {
		t.Fatalf("Touched() = %v, want none for a rows-only layer", layer.Touched())
	}
}

func TestNewDomainLayerValidation(t *testing.T) {
	k := buildMusicKB()
	cases := []struct {
		name string
		dict DomainDictionary
		want string
	}{
		{"no name", DomainDictionary{Rows: sportsDict().Rows}, "kb: domain dictionary has no name"},
		{"no rows", DomainDictionary{Name: "empty"}, `kb: domain "empty" has no rows`},
		{
			"unknown entity",
			DomainDictionary{Name: "bad", Rows: []DomainRow{{Surface: "Page", Entity: "Nobody", Count: 1}}},
			`kb: domain "bad" row 0: unknown entity "Nobody"`,
		},
		{
			"non-positive count",
			DomainDictionary{Name: "bad", Rows: []DomainRow{{Surface: "Page", Entity: "Jimmy Page", Count: 0}}},
			`kb: domain "bad"`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewDomainLayer(k, tc.dict)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("error = %v, want prefix %q", err, tc.want)
			}
		})
	}
}

func TestParseDomainDictionaries(t *testing.T) {
	bare := `[{"name": "a", "rows": [{"surface": "X", "entity": "E", "count": 3}]}]`
	wrapped := `{"domains": [{"name": "a", "rows": [{"surface": "X", "entity": "E", "count": 3}]}]}`
	for _, src := range []string{bare, wrapped} {
		dicts, err := ParseDomainDictionaries([]byte(src))
		if err != nil {
			t.Fatalf("parse %s: %v", src, err)
		}
		if len(dicts) != 1 || dicts[0].Name != "a" || len(dicts[0].Rows) != 1 ||
			dicts[0].Rows[0] != (DomainRow{Surface: "X", Entity: "E", Count: 3}) {
			t.Fatalf("parse %s = %+v", src, dicts)
		}
	}

	bad := []struct {
		name string
		src  string
		want string
	}{
		{"garbage", `{{`, "kb: parse domains"},
		{"empty array", `[]`, "kb: domains file defines no domains"},
		{"empty object", `{}`, "kb: domains file defines no domains"},
		{"unnamed", `[{"rows": []}]`, "kb: domain 0 has no name"},
		{"duplicate", `[{"name": "a"}, {"name": "a"}]`, `kb: domain "a" defined twice`},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseDomainDictionaries([]byte(tc.src))
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("error = %v, want prefix %q", err, tc.want)
			}
		})
	}
}

func TestLoadDomainDictionaries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "domains.json")
	if err := os.WriteFile(path, []byte(`[{"name": "news", "rows": [{"surface": "Page", "entity": "Jimmy Page", "count": 9}]}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	dicts, err := LoadDomainDictionaries(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(dicts) != 1 || dicts[0].Name != "news" {
		t.Fatalf("loaded %+v", dicts)
	}
	if _, err := LoadDomainDictionaries(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
}
