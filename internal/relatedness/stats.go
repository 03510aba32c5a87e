package relatedness

import "unsafe"

// KindStats are one measure kind's pair-cache counters since engine
// creation. LSH kinds share KORE's cache rows (their exact values are
// identical), but traffic is counted under the kind the caller asked for.
// MW is never memoized, so its entry stays zero.
type KindStats struct {
	Kind   Kind   `json:"-"`
	Name   string `json:"kind"`
	Hits   int64  `json:"hits"`
	Misses int64  `json:"misses"`
}

// HitRate is Hits/(Hits+Misses), or 0 before any traffic.
func (k KindStats) HitRate() float64 {
	total := k.Hits + k.Misses
	if total == 0 {
		return 0
	}
	return float64(k.Hits) / float64(total)
}

// Stats is a point-in-time snapshot of a Scorer's caches: how many entity
// profiles have been interned (and their approximate heap footprint), how
// many pair values are memoized, and per-measure-kind hit/miss counters.
// Each value is read atomically but the snapshot as a whole is not (under
// concurrent traffic the counters and map sizes can be skewed by in-flight
// operations) — fine for observability, not for accounting.
type Stats struct {
	// Profiles is the number of interned entity keyphrase profiles.
	Profiles int `json:"profiles"`
	// ProfileBytes approximates the heap footprint of the interned
	// profiles (see Profile.ApproxBytes).
	ProfileBytes int64 `json:"profile_bytes"`
	// Pairs is the number of memoized pair values (KWCS, KPCS and KORE
	// rows; MW is never memoized).
	Pairs int `json:"pairs"`
	// Hits and Misses are pair-cache totals across the memoized kinds.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// ByKind holds one entry per measure kind, in Kind order.
	ByKind []KindStats `json:"by_kind"`
}

// HitRate is the overall pair-cache hit rate, or 0 before any traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the engine's cache state. Safe for concurrent use; cost
// is proportional to the shard count, not the cache size.
func (s *Scorer) Stats() Stats {
	var st Stats
	for i := range s.profiles {
		sh := &s.profiles[i]
		sh.mu.RLock()
		st.Profiles += len(sh.m)
		st.ProfileBytes += sh.bytes
		sh.mu.RUnlock()
	}
	st.ByKind = make([]KindStats, numKinds)
	for k := range st.ByKind {
		st.ByKind[k].Kind = Kind(k)
		st.ByKind[k].Name = Kind(k).String()
	}
	for i := range s.pairs {
		sh := &s.pairs[i]
		sh.mu.RLock()
		st.Pairs += len(sh.m)
		sh.mu.RUnlock()
		for k := range st.ByKind {
			h, m := sh.hits[k].Load(), sh.misses[k].Load()
			st.ByKind[k].Hits += h
			st.ByKind[k].Misses += m
			st.Hits += h
			st.Misses += m
		}
	}
	return st
}

// Fixed per-element overheads of the ApproxBytes estimate. Map overhead is
// a rule of thumb (bucket array, tophash bytes, padding) rather than an
// exact runtime figure.
const (
	bytesPerString   = int64(unsafe.Sizeof("")) // header; content added per byte
	bytesPerMapEntry = 48
)

// ApproxBytes estimates the heap footprint of the profile: struct and
// slice headers, phrase word strings, and the word→phrase index. It is an
// estimate for observability (capacity planning), not an exact allocation
// count; string contents shared with the KB's keyphrase storage are
// attributed to the profile.
func (p *Profile) ApproxBytes() int64 {
	b := int64(unsafe.Sizeof(*p))
	for i := range p.phrases {
		ph := &p.phrases[i]
		b += int64(unsafe.Sizeof(*ph))
		for _, w := range ph.words {
			b += bytesPerString + int64(len(w))
		}
	}
	for w, ix := range p.wordToPhrases {
		b += bytesPerMapEntry + bytesPerString + int64(len(w)) + int64(len(ix))*int64(unsafe.Sizeof(int(0)))
	}
	return b
}
