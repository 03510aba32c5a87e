// Package analytics implements the entity-based news analytics application
// of Sec. 6.2 ("Analytics with Strings, Things, and Cats"): entity
// frequency time series over a day-stamped document stream.
package analytics

import "aida/internal/kb"

// Analytics accumulates a disambiguated news stream. The zero value is not
// ready; use New.
type Analytics struct {
	// perDay[day][entity] = mention count
	perDay  map[int]map[kb.EntityID]int
	minDay  int
	maxDay  int
	hasDocs bool
}

// New creates an empty analytics store.
func New() *Analytics {
	return &Analytics{perDay: make(map[int]map[kb.EntityID]int)}
}

// AddDoc records one document's disambiguated entities for a day.
// kb.NoEntity entries are ignored.
func (a *Analytics) AddDoc(day int, entities []kb.EntityID) {
	if !a.hasDocs || day < a.minDay {
		a.minDay = day
	}
	if !a.hasDocs || day > a.maxDay {
		a.maxDay = day
	}
	a.hasDocs = true
	m := a.perDay[day]
	if m == nil {
		m = make(map[kb.EntityID]int)
		a.perDay[day] = m
	}
	for _, e := range entities {
		if e != kb.NoEntity {
			m[e]++
		}
	}
}

// Days returns the covered day range (inclusive); ok is false when empty.
func (a *Analytics) Days() (min, max int, ok bool) {
	return a.minDay, a.maxDay, a.hasDocs
}

// Frequency returns the per-day mention counts of an entity over [from,to].
func (a *Analytics) Frequency(e kb.EntityID, from, to int) []int {
	if to < from {
		return nil
	}
	out := make([]int, to-from+1)
	for d := from; d <= to; d++ {
		if m := a.perDay[d]; m != nil {
			out[d-from] = m[e]
		}
	}
	return out
}
