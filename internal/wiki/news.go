package wiki

import (
	"fmt"
	"math/rand"
	"strings"

	"aida/internal/kb"
)

// NewsSpec shapes a generated news stream (the GigaWord substitute of
// Sec. 5.7.2).
type NewsSpec struct {
	Days       int
	DocsPerDay int
	Seed       int64
}

// The stream's fixed mix, mirroring the AIDA-EE GigaWord corpus shape
// (Table 5.2).
const (
	// eeRate is the fraction of mentions referring to emerging entities
	// (entities born on or before the document's day).
	eeRate float64 = 0.15
	// eventPhrasesPerDay is the number of fresh event phrases attached to
	// existing entities each day; these are harvestable evidence for the
	// in-KB keyphrase enrichment of Sec. 5.5.1.
	eventPhrasesPerDay = 40
)

// DefaultNewsSpec is the stream of days × docsPerDay articles for a seed.
func DefaultNewsSpec(days, docsPerDay int, seed int64) NewsSpec {
	return NewsSpec{Days: days, DocsPerDay: docsPerDay, Seed: seed}
}

// NewsStream generates a day-stamped article stream. Emerging entities
// appear from their birth day onward under ambiguous names; existing
// entities additionally co-occur with fresh day-specific event phrases that
// are not in the KB.
func (w *World) NewsStream(spec NewsSpec) []Document {
	rng := rand.New(rand.NewSource(spec.Seed))
	// Day-specific event phrases for existing entities.
	events := w.eventPhrases(rng, spec)
	var docs []Document
	for day := 1; day <= spec.Days; day++ {
		// OOE entities born by this day.
		var pool []int
		for i := range w.OOE {
			if w.OOE[i].BirthDay <= day {
				pool = append(pool, i)
			}
		}
		for d := 0; d < spec.DocsPerDay; d++ {
			cs := CorpusSpec{
				MinMentions: 8, MaxMentions: 20,
				OOERate:              eeRate,
				AmbiguousSurfaceRate: 0.6,
				ContextRichness:      6,
				Clusters:             2,
			}
			id := fmt.Sprintf("news-%d-%d", day, d)
			doc := w.composeDoc(rng, cs, id, day, pool)
			// Blend in the day's event phrases for the in-KB mentions.
			doc.Text = w.addEventContext(rng, doc, events, day)
			docs = append(docs, doc)
		}
	}
	return docs
}

// eventPhrases precomputes per-day fresh phrases per entity.
func (w *World) eventPhrases(rng *rand.Rand, spec NewsSpec) map[int]map[kb.EntityID][]string {
	out := make(map[int]map[kb.EntityID][]string, spec.Days)
	for day := 1; day <= spec.Days; day++ {
		m := make(map[kb.EntityID][]string)
		for i := 0; i < eventPhrasesPerDay; i++ {
			ent := w.meta[rng.Intn(len(w.meta))].ID
			domain := w.meta[ent].Domain
			words := domainWords[domain]
			// Fresh event vocabulary, unknown to the KB: this is the
			// evidence that in-KB keyphrase enrichment must claim before
			// it leaks into emerging-entity placeholders.
			fresh := jargonWord(jargonEventBase + day*eventPhrasesPerDay + i)
			phrase := fmt.Sprintf("%s %s %s",
				adjectivePool[rng.Intn(len(adjectivePool))],
				fresh, words[rng.Intn(len(words))])
			m[ent] = append(m[ent], phrase)
		}
		out[day] = m
	}
	return out
}

// addEventContext appends, per mentioned entity with day events, one extra
// sentence carrying the entity's surface next to its fresh event phrases —
// the way real news repeats a name alongside the new facts about it. These
// phrases are unknown to the KB: without in-KB keyphrase enrichment they
// leak into the emerging-entity placeholder models (the instability that
// Figure 5.4 shows enrichment fixing).
func (w *World) addEventContext(rng *rand.Rand, doc Document, events map[int]map[kb.EntityID][]string, day int) string {
	dayEvents := events[day]
	if dayEvents == nil {
		return doc.Text
	}
	var extra []string
	seen := map[kb.EntityID]bool{}
	for _, m := range doc.Mentions {
		if m.Entity == kb.NoEntity || seen[m.Entity] {
			continue
		}
		seen[m.Entity] = true
		if ps := dayEvents[m.Entity]; len(ps) > 0 {
			extra = append(extra, m.Surface+" "+strings.Join(ps, " ")+". ")
		}
	}
	if len(extra) == 0 {
		return doc.Text
	}
	return doc.Text + strings.Join(extra, "")
}
