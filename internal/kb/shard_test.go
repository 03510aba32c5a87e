package kb

import (
	"fmt"
	"reflect"
	"testing"
)

// buildShardKB assembles a KB with ambiguous names, links and keyphrases —
// enough structure that every Store method has non-trivial answers.
func buildShardKB(t testing.TB) *KB {
	t.Helper()
	b := NewBuilder()
	type spec struct {
		name, domain, typ string
		aliases           map[string]int
		phrases           []string
	}
	specs := []spec{
		{"Jordan Henderson", "sports", "person", map[string]int{"Jordan": 40, "Henderson": 25}, []string{"english midfielder", "premier league captain"}},
		{"Jordan (country)", "geography", "location", map[string]int{"Jordan": 90}, []string{"middle east kingdom", "amman capital"}},
		{"Michael Jordan", "sports", "person", map[string]int{"Jordan": 160, "MJ": 30}, []string{"chicago bulls guard", "six championships"}},
		{"Paris", "geography", "location", map[string]int{}, []string{"french capital", "seine river city"}},
		{"Paris Hilton", "entertainment", "person", map[string]int{"Paris": 35, "Hilton": 20}, []string{"reality television star", "hotel heiress"}},
		{"Springfield (Illinois)", "geography", "location", map[string]int{"Springfield": 55}, []string{"illinois state capital"}},
		{"Springfield (Massachusetts)", "geography", "location", map[string]int{"Springfield": 45}, []string{"basketball hall of fame city"}},
		{"Kashmir (song)", "music", "work", map[string]int{"Kashmir": 70}, []string{"led zeppelin song", "physical graffiti track"}},
		{"Kashmir", "geography", "location", map[string]int{}, []string{"himalayan region", "disputed territory"}},
		{"Led Zeppelin", "music", "team", map[string]int{"Zeppelin": 30}, []string{"english rock band", "physical graffiti album"}},
	}
	ids := make([]EntityID, len(specs))
	for i, s := range specs {
		ids[i] = b.AddEntity(s.name, s.domain, s.typ)
		for alias, count := range s.aliases {
			b.AddName(alias, ids[i], count)
		}
		for _, p := range s.phrases {
			b.AddKeyphrase(ids[i], p)
		}
	}
	// Links inside topical groups plus a cross-domain edge.
	b.AddLink(ids[0], ids[2])
	b.AddLink(ids[2], ids[0])
	b.AddLink(ids[7], ids[9])
	b.AddLink(ids[9], ids[7])
	b.AddLink(ids[3], ids[4])
	b.AddLink(ids[5], ids[6])
	b.AddLink(ids[6], ids[5])
	b.AddLink(ids[8], ids[7])
	return b.Build()
}

// shardCounts are the shard widths every conformance check runs at,
// including counts that do not divide the entity count and one larger than
// it (empty shards must be harmless).
var shardCounts = []int{1, 2, 3, 4, 8, 16}

func TestShardedConformance(t *testing.T) {
	k := buildShardKB(t)
	names := k.Names()
	if len(names) == 0 {
		t.Fatal("test KB has no dictionary names")
	}
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			s := Shard(k, n)
			if got := s.NumShards(); got != n {
				t.Fatalf("NumShards = %d, want %d", got, n)
			}
			if got := s.NumEntities(); got != k.NumEntities() {
				t.Fatalf("NumEntities = %d, want %d", got, k.NumEntities())
			}
			if got := s.Names(); !reflect.DeepEqual(got, names) {
				t.Fatalf("Names diverge:\n got %v\nwant %v", got, names)
			}
			for _, name := range names {
				want := k.Candidates(name)
				got := s.Candidates(name)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Candidates(%q) diverge:\n got %+v\nwant %+v", name, got, want)
				}
				if k.HasName(name) != s.HasName(name) {
					t.Fatalf("HasName(%q) diverges", name)
				}
			}
			if s.HasName(NormalizeName("No Such Surface")) {
				t.Fatal("HasName true for unknown surface")
			}
			if got := s.Candidates("No Such Surface"); got != nil {
				t.Fatalf("Candidates for unknown surface = %v, want nil", got)
			}
			for id := 0; id < k.NumEntities(); id++ {
				want := k.Entity(EntityID(id))
				got := s.Entity(EntityID(id))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Entity(%d) diverges:\n got %+v\nwant %+v", id, got, want)
				}
				if byName, ok := s.EntityByName(want.Name); !ok || byName != want.ID {
					t.Fatalf("EntityByName(%q) = (%d, %v), want (%d, true)", want.Name, byName, ok, want.ID)
				}
				for _, kp := range want.Keyphrases {
					if g, w := s.PhraseIDF(kp.Phrase), k.PhraseIDF(kp.Phrase); g != w {
						t.Fatalf("PhraseIDF(%q) = %v, want %v", kp.Phrase, g, w)
					}
					for _, word := range kp.Words {
						if g, w := s.WordIDF(word), k.WordIDF(word); g != w {
							t.Fatalf("WordIDF(%q) = %v, want %v", word, g, w)
						}
					}
				}
			}
			if _, ok := s.EntityByName("No Such Entity"); ok {
				t.Fatal("EntityByName found a nonexistent entity")
			}
		})
	}
}

// TestShardIsAView pins what Shard is: the KB itself under an n-shard
// placement. Reads return the KB's own pointers and backing arrays (so
// byte-identity at any n holds by construction), the fingerprint is the
// KB's, and a shard host over the view owns exactly the dictionary rows it
// owns over the KB — together a partition of the dictionary.
func TestShardIsAView(t *testing.T) {
	k := buildShardKB(t)
	for _, n := range []int{1, 3, 4, 16} {
		s := Shard(k, n)
		if got := s.NumShards(); got != n {
			t.Fatalf("NumShards = %d, want %d", got, n)
		}
		if got, want := s.Fingerprint(), k.Fingerprint(); got != want {
			t.Fatalf("shards-%d: Fingerprint = %016x, want %016x", n, got, want)
		}
		for id := EntityID(0); int(id) < k.NumEntities(); id++ {
			if s.Entity(id) != k.Entity(id) {
				t.Fatalf("shards-%d: Entity(%d) is not the KB's own entity", n, id)
			}
		}
		for _, name := range k.Names() {
			got, want := s.Candidates(name), k.Candidates(name)
			if len(got) != len(want) || &got[0] != &want[0] {
				t.Fatalf("shards-%d: Candidates(%q) is not the KB's backing array", n, name)
			}
		}
		owned := 0
		for shard := 0; shard < n; shard++ {
			overView, err := NewStoreHost(s, shard, n)
			if err != nil {
				t.Fatal(err)
			}
			overKB, err := NewStoreHost(k, shard, n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(overView.names, overKB.names) {
				t.Fatalf("shard %d/%d: host over the view owns %v, over the KB %v", shard, n, overView.names, overKB.names)
			}
			owned += overView.NumNames()
		}
		if owned != len(k.Names()) {
			t.Fatalf("shards-%d: hosts own %d names in total, the dictionary has %d", n, owned, len(k.Names()))
		}
	}
}

// TestShardRoutingPinned pins the placement functions: a fleet's data
// layout depends on them, so an accidental change must fail loudly.
func TestShardRoutingPinned(t *testing.T) {
	for id := EntityID(0); id < 40; id++ {
		for _, n := range shardCounts {
			if got := EntityShard(id, n); got != int(id)%n {
				t.Fatalf("EntityShard(%d, %d) = %d, want %d", id, n, got, int(id)%n)
			}
		}
	}
	// FNV-1a reference values (computed independently); NormalizeName
	// upper-cases keys > 3 runes, so dictionary keys look like these.
	pinned := map[string]uint64{
		"BERLIN": 3459164084063858993,
		"PARIS":  9994186868775441952,
		"MJ":     654838372290610742,
	}
	for key, h := range pinned {
		for _, n := range shardCounts {
			if got, want := NameShard(key, n), int(h%uint64(n)); got != want {
				t.Fatalf("NameShard(%q, %d) = %d, want %d", key, n, got, want)
			}
		}
	}
}

func TestShardedEntityPanics(t *testing.T) {
	k := buildShardKB(t)
	s := Shard(k, 4)
	for _, id := range []EntityID{NoEntity, EntityID(k.NumEntities())} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Entity(%d) did not panic", id)
				}
			}()
			s.Entity(id)
		}()
	}
}

func TestShardInvalidCountPanics(t *testing.T) {
	k := buildShardKB(t)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Shard(k, %d) did not panic", n)
				}
			}()
			Shard(k, n)
		}()
	}
}
