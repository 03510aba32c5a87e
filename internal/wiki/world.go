// Package wiki generates the synthetic Wikipedia-like world that replaces
// the dissertation's proprietary data assets (Wikipedia 2010 dump, YAGO2,
// CoNLL-YAGO annotations, the KORE crowdsourcing gold, and the GigaWord
// news stream). See DESIGN.md for the substitution rationale.
//
// The generator is fully deterministic given a Config.Seed. It produces:
//
//   - a knowledge base with Zipfian entity popularity, ambiguous name
//     dictionaries, topically clustered link structure, and per-entity
//     keyphrases (World.KB);
//   - annotated evaluation corpora mirroring the geometry of CoNLL-YAGO,
//     KORE50 and the WP slice (docs.go);
//   - a day-stamped news stream containing emerging entities absent from
//     the KB (news.go);
//   - a simulated crowdsourced relatedness gold standard (gold.go).
package wiki

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"aida/internal/kb"
)

// Config parameterizes the synthetic world.
type Config struct {
	Seed     int64
	Entities int // total entities in the KB (default 2000)
	// ClustersPerDomain controls topical granularity (default 6).
	ClustersPerDomain int
	// ZipfExponent shapes the popularity distribution (default 1.05).
	ZipfExponent float64
	// DictionaryNoise is the probability of a wrong name→entity entry
	// ("bad dictionary" artifacts of Sec. 3.6.4; default 0.01).
	DictionaryNoise float64
	// OOEEntities is the number of out-of-KB entities generated for the
	// emerging-entity experiments (default Entities/10).
	OOEEntities int
}

func (c Config) withDefaults() Config {
	if c.Entities <= 0 {
		c.Entities = 2000
	}
	if c.ClustersPerDomain <= 0 {
		c.ClustersPerDomain = 6
	}
	if c.ZipfExponent <= 0 {
		c.ZipfExponent = 1.05
	}
	if c.DictionaryNoise < 0 {
		c.DictionaryNoise = 0
	} else if c.DictionaryNoise == 0 {
		c.DictionaryNoise = 0.01
	}
	if c.OOEEntities <= 0 {
		c.OOEEntities = c.Entities / 10
	}
	return c
}

// entityKind is the entity class generated.
type entityKind int

const (
	kindPerson entityKind = iota
	kindOrg
	kindPlace
	kindWork // songs, albums, films: titles collide with place names
	kindTeam
)

// entityMeta is generator-side bookkeeping for one KB entity.
type entityMeta struct {
	ID         kb.EntityID
	Kind       entityKind
	Domain     string
	Cluster    int // global cluster index
	Cluster2   int // secondary cluster or -1
	Popularity float64
	Names      []string // dictionary surfaces (canonical first)
}

// OOEEntity is an out-of-knowledge-base entity for the Chapter 5
// experiments. It shares a surface with KB entities (the hard case) or
// carries a fresh name, and owns a keyphrase model the KB knows nothing
// about.
type OOEEntity struct {
	Name       string // identity key, e.g. "Sandy (hurricane)"
	Surface    string // the ambiguous name it appears under
	Domain     string
	BirthDay   int // first news-stream day it can appear
	Keyphrases []string
	// CollidesWithKB reports whether Surface is also a KB dictionary name.
	CollidesWithKB bool
}

// cluster is one topical group of entities.
type cluster struct {
	Domain  string
	Phrases []string // signature keyphrases
	Members []kb.EntityID
}

// World is the generated universe.
type World struct {
	Config   Config
	KB       *kb.KB
	OOE      []OOEEntity
	meta     []entityMeta
	clusters []cluster
	rng      *rand.Rand
}

// Generate builds a world from the configuration.
func Generate(cfg Config) *World {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{Config: cfg, rng: rng}

	domains := Domains()
	// Build clusters with signature phrases. Each cluster owns four rare
	// jargon words; most signature phrases anchor on one of them, so
	// clusters of the same domain share vocabulary but remain separable —
	// the structure real keyphrases have.
	for _, d := range domains {
		words := domainWords[d]
		for ci := 0; ci < cfg.ClustersPerDomain; ci++ {
			gi := len(w.clusters)
			jargon := clusterJargon(gi)
			phrases := make([]string, 0, 8)
			for pi := 0; pi < 8; pi++ {
				phrases = append(phrases, clusterPhrase(rng, words, jargon))
			}
			w.clusters = append(w.clusters, cluster{Domain: d, Phrases: phrases})
		}
	}

	b := kb.NewBuilder()
	usedNames := map[string]int{}
	// Create entities with Zipfian popularity by rank.
	for i := 0; i < cfg.Entities; i++ {
		domain := domains[rng.Intn(len(domains))]
		kind := kindFor(rng, domain)
		name, names := w.makeNames(rng, kind, domain, usedNames)
		id := b.AddEntity(name, domain, typeFor(kind))
		pop := 1.0 / math.Pow(float64(i+1), cfg.ZipfExponent)
		ci := w.clusterOf(rng, domain)
		c2 := -1
		if rng.Float64() < 0.2 {
			c2 = w.clusterOf(rng, domain)
		}
		meta := entityMeta{
			ID: id, Kind: kind, Domain: domain,
			Cluster: ci, Cluster2: c2,
			Popularity: pop, Names: append([]string{name}, names...),
		}
		w.meta = append(w.meta, meta)
		w.clusters[ci].Members = append(w.clusters[ci].Members, id)
		if c2 >= 0 {
			w.clusters[c2].Members = append(w.clusters[c2].Members, id)
		}
	}

	// Dictionary: anchor counts proportional to popularity. The canonical
	// name gets the bulk; aliases (surnames, acronyms, short names) get a
	// popularity-scaled share, creating the ambiguity the experiments
	// need.
	for i := range w.meta {
		m := &w.meta[i]
		base := int(math.Ceil(m.Popularity * 1000))
		if base < 1 {
			base = 1
		}
		b.AddName(m.Names[0], m.ID, base)
		for _, alias := range m.Names[1:] {
			cnt := base / 2
			if cnt < 1 {
				cnt = 1
			}
			b.AddName(alias, m.ID, cnt)
		}
		// Bad-dictionary noise: rarely attach a wrong alias.
		if w.rng.Float64() < w.Config.DictionaryNoise {
			other := w.meta[w.rng.Intn(len(w.meta))]
			b.AddName(other.Names[len(other.Names)-1], m.ID, 1)
		}
	}

	// Links: dense within clusters, with in-links concentrated on popular
	// entities, mirroring Wikipedia's skew — "entities with ≤50 incoming
	// links make up more than 80% of Wikipedia" (Sec. 4.6.2). Long-tail
	// entities keep few or no in-links while retaining keyphrases, which
	// is exactly the regime KORE targets.
	for i := range w.meta {
		m := &w.meta[i]
		members := w.clusters[m.Cluster].Members
		out := 1 + int(m.Popularity*30) + rng.Intn(3)
		for l := 0; l < out && len(members) > 1; l++ {
			dst := w.samplePopular(rng, members)
			if dst != m.ID {
				b.AddLink(m.ID, dst)
			}
		}
		if rng.Float64() < 0.08 { // rare cross-cluster link
			dst := w.meta[rng.Intn(len(w.meta))].ID
			if dst != m.ID {
				b.AddLink(m.ID, dst)
			}
		}
	}

	// Keyphrases: cluster signature phrases, domain phrases, entity-unique
	// phrases, and names of cluster neighbors (the link-anchor harvest of
	// Sec. 3.3.4). Long-tail entities keep a usable keyphrase set even
	// when they have almost no links — the KORE premise.
	for i := range w.meta {
		m := &w.meta[i]
		cl := &w.clusters[m.Cluster]
		clJargon := clusterJargon(m.Cluster)
		ownJargon := []string{
			jargonWord(jargonEntityBase + 2*i),
			jargonWord(jargonEntityBase + 2*i + 1),
		}
		num := 4 + int(m.Popularity*20) + rng.Intn(4)
		for p := 0; p < num; p++ {
			switch {
			case p < 2:
				// Entity-unique phrases ("Chun Kuk Do" style): rare words
				// only this entity carries.
				word := domainWords[m.Domain][rng.Intn(len(domainWords[m.Domain]))]
				b.AddKeyphrase(m.ID, ownJargon[p]+" "+word)
			case p-2 < len(cl.Phrases) && p < num*3/5:
				b.AddKeyphrase(m.ID, cl.Phrases[p-2])
			case rng.Float64() < 0.5:
				b.AddKeyphrase(m.ID, clusterPhrase(rng, domainWords[m.Domain], clJargon))
			default:
				adj := adjectivePool[rng.Intn(len(adjectivePool))]
				word := domainWords[m.Domain][rng.Intn(len(domainWords[m.Domain]))]
				b.AddKeyphrase(m.ID, adj+" "+word)
			}
		}
		if len(cl.Members) > 1 {
			nb := cl.Members[rng.Intn(len(cl.Members))]
			if nb != m.ID {
				b.AddKeyphrase(m.ID, w.meta[nb].Names[0])
			}
		}
	}

	w.KB = b.Build()
	w.generateOOE()
	return w
}

// samplePopular draws a cluster member with probability proportional to
// its popularity, concentrating in-links on the head of the distribution.
func (w *World) samplePopular(rng *rand.Rand, members []kb.EntityID) kb.EntityID {
	var total float64
	for _, id := range members {
		total += w.meta[id].Popularity
	}
	x := rng.Float64() * total
	for _, id := range members {
		x -= w.meta[id].Popularity
		if x <= 0 {
			return id
		}
	}
	return members[len(members)-1]
}

// clusterOf picks a cluster index of the given domain.
func (w *World) clusterOf(rng *rand.Rand, domain string) int {
	var idx []int
	for i, c := range w.clusters {
		if c.Domain == domain {
			idx = append(idx, i)
		}
	}
	return idx[rng.Intn(len(idx))]
}

func kindFor(rng *rand.Rand, domain string) entityKind {
	switch domain {
	case "geography":
		return kindPlace
	case "music", "entertainment":
		if rng.Float64() < 0.4 {
			return kindWork
		}
		return kindPerson
	case "sports":
		if rng.Float64() < 0.3 {
			return kindTeam
		}
		return kindPerson
	case "business", "tech":
		if rng.Float64() < 0.5 {
			return kindOrg
		}
		return kindPerson
	default:
		return kindPerson
	}
}

func typeFor(k entityKind) string {
	switch k {
	case kindPerson:
		return "person"
	case kindOrg:
		return "organization"
	case kindPlace:
		return "location"
	case kindWork:
		return "work"
	case kindTeam:
		return "team"
	}
	return "entity"
}

// makeNames builds a unique canonical name plus ambiguous aliases.
func (w *World) makeNames(rng *rand.Rand, kind entityKind, domain string, used map[string]int) (string, []string) {
	for attempt := 0; ; attempt++ {
		var canonical string
		var aliases []string
		switch kind {
		case kindPerson:
			given := givenNames[rng.Intn(len(givenNames))]
			sur := surnames[rng.Intn(len(surnames))]
			canonical = given + " " + sur
			aliases = []string{sur}
		case kindOrg:
			pre := orgPrefixes[rng.Intn(len(orgPrefixes))]
			suf := orgWords[rng.Intn(len(orgWords))]
			canonical = pre + " " + suf
			aliases = []string{pre, acronym(canonical)}
		case kindPlace:
			canonical = placeNames[rng.Intn(len(placeNames))]
			aliases = nil
		case kindWork:
			canonical = placeNames[rng.Intn(len(placeNames))]
			aliases = nil
		case kindTeam:
			city := placeNames[rng.Intn(len(placeNames))]
			canonical = city + " " + teamWords[rng.Intn(len(teamWords))]
			aliases = []string{city}
		}
		// Canonical names must be unique: disambiguate Wikipedia-style.
		if n := used[canonical]; n > 0 {
			alias := canonical
			canonical = fmt.Sprintf("%s (%s %d)", canonical, domain, n)
			aliases = append(aliases, alias)
		} else if kind == kindWork {
			// Works share surfaces with places: "Kashmir (song)".
			alias := canonical
			canonical = fmt.Sprintf("%s (%s)", canonical, workNoun(domain))
			aliases = append(aliases, alias)
		}
		used[strings.TrimSpace(strings.Split(canonical, " (")[0])]++
		return canonical, dedupStrings(aliases, canonical)
	}
}

func workNoun(domain string) string {
	if domain == "music" {
		return "song"
	}
	return "film"
}

func acronym(name string) string {
	var sb strings.Builder
	for _, f := range strings.Fields(name) {
		sb.WriteByte(f[0])
	}
	return sb.String()
}

func dedupStrings(aliases []string, canonical string) []string {
	seen := map[string]bool{canonical: true}
	out := aliases[:0]
	for _, a := range aliases {
		if a != "" && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// clusterJargon returns a cluster's four dedicated rare words.
func clusterJargon(clusterIdx int) []string {
	out := make([]string, 4)
	for j := range out {
		out[j] = jargonWord(jargonClusterBase + 4*clusterIdx + j)
	}
	return out
}

// clusterPhrase builds a 2–3 word phrase from a domain vocabulary,
// anchored on a rare jargon word most of the time.
func clusterPhrase(rng *rand.Rand, words []string, jargon []string) string {
	n := 2 + rng.Intn(2)
	parts := make([]string, 0, n)
	seen := map[string]bool{}
	if len(jargon) > 0 && rng.Float64() < 0.7 {
		j := jargon[rng.Intn(len(jargon))]
		seen[j] = true
		parts = append(parts, j)
	}
	for len(parts) < n {
		w := words[rng.Intn(len(words))]
		if !seen[w] {
			seen[w] = true
			parts = append(parts, w)
		}
	}
	return strings.Join(parts, " ")
}

// Meta exposes generator-side truth about an entity (popularity, clusters)
// for evaluation slicing.
func (w *World) Meta(id kb.EntityID) (domain string, popularity float64, clusterID int) {
	m := w.meta[id]
	return m.Domain, m.Popularity, m.Cluster
}

// TrueRelatedness is the latent ground-truth relatedness used for document
// coherence and the simulated crowd judgments: high for cluster mates,
// medium for same-domain entities, near zero across domains, with a small
// deterministic jitter so rankings are total orders.
func (w *World) TrueRelatedness(a, b kb.EntityID) float64 {
	if a == b {
		return 1
	}
	ma, mb := w.meta[a], w.meta[b]
	base := 0.05
	switch {
	case ma.Cluster == mb.Cluster ||
		(ma.Cluster2 >= 0 && ma.Cluster2 == mb.Cluster) ||
		(mb.Cluster2 >= 0 && mb.Cluster2 == ma.Cluster):
		base = 0.85
	case ma.Domain == mb.Domain:
		base = 0.35
	}
	// Deterministic jitter from the pair identity.
	h := uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)*0xbf58476d1ce4e5b9
	if b < a {
		h = uint64(b)*0x9e3779b97f4a7c15 ^ uint64(a)*0xbf58476d1ce4e5b9
	}
	jitter := float64(float64(h%1000)/1000*0.1) - 0.05
	v := base + jitter
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v
}

// PopularEntities returns the ids of the n most popular entities of a
// domain (ties by id).
func (w *World) PopularEntities(domain string, n int) []kb.EntityID {
	type ep struct {
		id  kb.EntityID
		pop float64
	}
	var all []ep
	for _, m := range w.meta {
		if m.Domain == domain {
			all = append(all, ep{m.ID, m.Popularity})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].pop != all[j].pop {
			return all[i].pop > all[j].pop
		}
		return all[i].id < all[j].id
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]kb.EntityID, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].id
	}
	return out
}

// generateOOE creates the out-of-KB entity population.
func (w *World) generateOOE() {
	cfg := w.Config
	names := w.KB.Names()
	for i := 0; i < cfg.OOEEntities; i++ {
		domain := Domains()[w.rng.Intn(len(Domains()))]
		collide := w.rng.Float64() < 0.6
		var surface string
		if collide && len(names) > 0 {
			// Reuse an existing ambiguous dictionary surface.
			surface = w.pickCollidingSurface()
		} else {
			surface = fmt.Sprintf("%s %s", givenNames[w.rng.Intn(len(givenNames))],
				placeNames[w.rng.Intn(len(placeNames))])
			collide = w.KB.HasName(kb.NormalizeName(surface))
		}
		// The emerging entity's own keyphrase model: fresh vocabulary the
		// KB has never seen (new events bring new words — "storm surge",
		// "whistleblower"), mixed with its domain's common words.
		fresh := []string{
			jargonWord(jargonOOEBase + 3*i),
			jargonWord(jargonOOEBase + 3*i + 1),
			jargonWord(jargonOOEBase + 3*i + 2),
		}
		phrases := make([]string, 0, 9)
		words := domainWords[domain]
		for p := 0; p < 8; p++ {
			phrases = append(phrases, clusterPhrase(w.rng, words, fresh))
		}
		phrases = append(phrases,
			adjectivePool[w.rng.Intn(len(adjectivePool))]+" "+fresh[w.rng.Intn(len(fresh))])
		w.OOE = append(w.OOE, OOEEntity{
			Name:           fmt.Sprintf("%s (emerging %d)", surface, i),
			Surface:        surface,
			Domain:         domain,
			BirthDay:       1 + w.rng.Intn(5),
			Keyphrases:     phrases,
			CollidesWithKB: collide,
		})
	}
}

// pickCollidingSurface selects a surface of a random KB entity (prefer a
// short ambiguous alias when available).
func (w *World) pickCollidingSurface() string {
	m := w.meta[w.rng.Intn(len(w.meta))]
	if len(m.Names) > 1 {
		return m.Names[1+w.rng.Intn(len(m.Names)-1)]
	}
	return m.Names[0]
}
