package disambig

import (
	"context"
	"math"
	"math/bits"

	"aida/internal/kb"
	"aida/internal/pool"
	"aida/internal/relatedness"
)

// cohScorer computes pairwise coherence between the distinct candidates of
// a problem under a relatedness kind. For the LSH variants it applies the
// two-stage hashing filter of Sec. 4.4.2 so that only pairs sharing a
// stage-two bucket are ever scored; all other pairs have coherence 0.
//
// Coherence works on Candidate features (keyphrases, in-links) rather than
// KB ids so that emerging-entity placeholders participate transparently.
//
// Every kind is computed per document and remembered nowhere else. For MW
// one pass over the candidates' in-link lists (countSharedInLinks) leaves
// every pair's shared in-link count in the triangle, and finishing a pair is
// O(1); the keyphrase kinds score each pair from the candidates' own
// keyphrases.
//
// Every distinct candidate (by Label) gets one dense id at construction;
// ids[i][j] is the id of candidate j of mention i, and everything after
// construction — the pair cache here, the graph's nodes, the solver —
// addresses candidates by that id. Ids below graphN are the graph's entity
// nodes.
//
// A scorer belongs to one goroutine. Stats.Comparisons counts each distinct
// allowed pair of the problem exactly once.
type cohScorer struct {
	kind   relatedness.Kind
	cands  []*Candidate // distinct candidates, indexed by id
	ids    [][]int
	graphN int
	n      int // |E| for MW

	// For the keyphrase kinds (unset under MW): the keyword weight and the
	// lazily built KORE profiles, by id.
	weight   relatedness.Weighter
	profiles []*relatedness.Profile

	// The pair cache is a dense upper triangle over the ids: vals holds the
	// raw (unscaled by γ) coherence of a slot once its slotHave flag is set
	// (until then, under MW, the pair's shared in-link count). Pairs the LSH
	// filter rejects start out as slotHave with value 0. slotNeeded marks
	// the pairs scoreAll has to fill; pending counts them. Both arrays are
	// views into tri, pooled scratch that release gives back.
	vals    []float64
	flags   []uint8
	tri     *triangle
	pending int
	// comparisons counts exact pairwise relatedness computations: one per
	// distinct allowed pair requested in this problem.
	comparisons int
}

const (
	slotHave uint8 = 1 << iota
	slotNeeded
)

// triangle is the backing of one scorer's pair cache. The two arrays are by
// far the largest thing a document allocates (n² in its distinct candidates),
// so they are recycled across documents rather than left to the collector.
type triangle struct {
	vals  []float64
	flags []uint8
}

var triangles = pool.Scratch[triangle]{New: func() *triangle { return &triangle{} }}

// release returns the scorer's pair cache to the pool. The scorer must not
// be used afterwards; one that is never released is simply collected.
func (s *cohScorer) release() {
	triangles.Put(s.tri)
	s.tri, s.vals, s.flags = nil, nil, nil
}

// newCohScorer interns the distinct candidates of the problem. fixed[i],
// when >= 0, is the only candidate of mention i that enters the graph (nil
// = every candidate does). Graph candidates are numbered first, in mention
// then candidate order, so ids below graphN are exactly the graph's nodes
// and ascending (lo, hi) slot order is the order coherence edges are
// enumerated in; candidates that appear only as excluded ones follow.
func newCohScorer(kind relatedness.Kind, p *Problem, fixed []int) *cohScorer {
	s := &cohScorer{
		kind: kind,
		ids:  make([][]int, len(p.Mentions)),
		n:    p.TotalEntities,
	}
	total := 0
	for i := range p.Mentions {
		total += len(p.Mentions[i].Candidates)
	}
	s.cands = make([]*Candidate, 0, total)
	flat := make([]int, total)
	for i := range p.Mentions {
		n := len(p.Mentions[i].Candidates)
		s.ids[i], flat = flat[:n:n], flat[n:]
	}
	byLabel := make(map[string]int, total)
	intern := func(inGraph bool) {
		for i := range p.Mentions {
			m := &p.Mentions[i]
			for j := range m.Candidates {
				if (fixed == nil || fixed[i] < 0 || fixed[i] == j) != inGraph {
					continue
				}
				c := &m.Candidates[j]
				id, ok := byLabel[c.Label]
				if !ok {
					id = len(s.cands)
					byLabel[c.Label] = id
					s.cands = append(s.cands, c)
				}
				s.ids[i][j] = id
			}
		}
	}
	intern(true)
	s.graphN = len(s.cands)
	intern(false)

	nc := len(s.cands)
	s.tri = triangles.Get()
	s.tri.vals = pool.Zeroed(s.tri.vals, nc*(nc-1)/2)
	s.tri.flags = pool.Zeroed(s.tri.flags, len(s.tri.vals))
	s.vals, s.flags = s.tri.vals, s.tri.flags
	if kind == relatedness.KindMW {
		s.countSharedInLinks()
		return s
	}
	s.weight = p.wordIDF
	s.profiles = make([]*relatedness.Profile, nc)
	if kind.IsLSH() {
		s.buildFilter()
	}
	return s
}

// slot maps an unordered pair of ids (lo < hi) to its upper-triangle index;
// slots ascend with (lo, hi).
func (s *cohScorer) slot(lo, hi int) int {
	return lo*len(s.cands) - lo*(lo+1)/2 + (hi - lo - 1)
}

// profile returns the KORE profile of the candidate with id, building it on
// first use.
func (s *cohScorer) profile(id int) *relatedness.Profile {
	if s.profiles[id] == nil {
		s.profiles[id] = relatedness.NewProfile(s.cands[id].Keyphrases, s.weight)
	}
	return s.profiles[id]
}

// buildFilter runs the two-stage hashing over all registered candidates.
func (s *cohScorer) buildFilter() {
	sets := make([][]kb.Keyphrase, len(s.cands))
	for i, c := range s.cands {
		sets[i] = c.Keyphrases
	}
	for i := range s.flags {
		s.flags[i] = slotHave
	}
	for _, pr := range relatedness.NewLSHFilter(s.kind).PairsOfSets(sets) {
		s.flags[s.slot(pr[0], pr[1])] = 0
	}
}

// score returns the coherence between the candidates with ids a and b (0 for
// a == b: one entity does not cohere with itself), computing and caching
// the pair on first use.
func (s *cohScorer) score(a, b int) float64 {
	if a == b {
		return 0
	}
	idx := s.slot(min(a, b), max(a, b))
	if s.flags[idx]&slotHave == 0 {
		s.fill(idx, a, b)
		s.comparisons++
	}
	return s.vals[idx]
}

// fill computes the pair into its slot, with the measure's arguments in the
// order given (the measures are symmetric, but not all to the last bit).
func (s *cohScorer) fill(idx, ia, ib int) {
	a, b := s.cands[ia], s.cands[ib]
	s.vals[idx] = s.relatedness(idx, ia, ib, a, b) * a.edgeScale() * b.edgeScale()
	s.flags[idx] |= slotHave
}

// relatedness computes the raw measure value for an interned pair: MW from
// the shared in-link count in its slot, a keyphrase kind from the two
// candidates' keyphrases.
func (s *cohScorer) relatedness(idx, ia, ib int, a, b *Candidate) float64 {
	if s.kind == relatedness.KindMW {
		return mwFromShared(s.vals[idx], len(a.InLinks), len(b.InLinks), s.n)
	}
	switch s.kind {
	case relatedness.KindKWCS:
		return relatedness.KeywordCosine(a.Keyphrases, b.Keyphrases, s.weight)
	case relatedness.KindKPCS:
		return relatedness.KeyphraseCosine(a.Keyphrases, b.Keyphrases)
	default:
		return relatedness.KOREProfiles(s.profile(ia), s.profile(ib))
	}
}

// mwFromShared is relatedness.MW (Eq. 3.7) after its sorted merge — the same
// float operations in the same order, so the same bits — on the sizes of the
// two in-link lists and of their intersection.
func mwFromShared(shared float64, lenA, lenB, n int) float64 {
	if shared == 0 || n <= 1 {
		return 0
	}
	la, lb := float64(lenA), float64(lenB)
	maxL, minL := math.Max(la, lb), math.Min(la, lb)
	den := math.Log(float64(n)) - math.Log(minL)
	if den <= 0 {
		return 1
	}
	v := 1 - (math.Log(maxL)-math.Log(shared))/den
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// inlinkIndex is countSharedInLinks' pooled scratch: an open-addressing table
// from an in-linking entity to the chain of candidates it links to. A bucket
// is live iff its stamp equals cur, so a recycled table is never cleared.
type inlinkIndex struct {
	buckets []inlinkBucket
	nodes   []inlinkNode
	cur     uint32
}

type inlinkBucket struct {
	linker kb.EntityID
	stamp  uint32
	head   int32 // newest node of the chain
}

type inlinkNode struct{ cand, next int32 } // next: the chain's older node, -1 at its end

var inlinkBufs = pool.Scratch[inlinkIndex]{
	New: func() *inlinkIndex { return &inlinkIndex{} },
}

// countSharedInLinks leaves |I(a) ∩ I(b)| in the slot of every candidate
// pair by inverting the in-link lists once instead of merging two per pair:
// candidates are walked in ascending id, each is chained onto every entity
// that links to it, and an earlier candidate met on a chain is one shared
// in-link of that pair — Σ|in-links| plus the shared links found. Lists are
// duplicate-free (kb's dedupIDs); a repeated in-linker, from a store that
// broke that, is counted once rather than indexed out of the triangle.
func (s *cohScorer) countSharedInLinks() {
	total := 0
	for _, c := range s.cands {
		total += len(c.InLinks)
	}
	if total == 0 {
		return
	}
	ix := inlinkBufs.Get()
	defer inlinkBufs.Put(ix)
	width := bits.Len(uint(2*total - 1)) // 2^width ≥ 2·total buckets: at most half full
	size, shift := 1<<width, 32-uint(width)
	if len(ix.buckets) < size {
		ix.buckets = make([]inlinkBucket, size)
	}
	if ix.cur++; ix.cur == 0 { // stamp wrapped: reset the table once
		clear(ix.buckets)
		ix.cur = 1
	}
	buckets, mask, cur, nodes := ix.buckets[:size], uint32(size-1), ix.cur, ix.nodes[:0]
	for id, c := range s.cands {
		for _, linker := range c.InLinks {
			h := uint32(linker) * 0x9e3779b1 >> shift
			for buckets[h].stamp == cur && buckets[h].linker != linker {
				h = (h + 1) & mask
			}
			b := &buckets[h]
			if b.stamp != cur {
				*b = inlinkBucket{linker: linker, stamp: cur, head: -1}
			} else if nodes[b.head].cand == int32(id) {
				continue
			}
			for at := b.head; at >= 0; at = nodes[at].next {
				s.vals[s.slot(int(nodes[at].cand), id)]++
			}
			nodes = append(nodes, inlinkNode{cand: int32(id), next: b.head})
			b.head = int32(len(nodes) - 1)
		}
	}
	ix.nodes = nodes
}

// need marks the pair of graph nodes a != b for scoreAll.
func (s *cohScorer) need(a, b int) {
	if a > b {
		a, b = b, a
	}
	if idx := s.slot(a, b); s.flags[idx] == 0 {
		s.flags[idx] = slotNeeded
		s.pending++
	}
}

// eachEdge calls fn with every pair marked by need whose coherence w is
// positive, in ascending (lo, hi) order — the fixed order float accumulation
// over the graph's edges relies on.
func (s *cohScorer) eachEdge(fn func(lo, hi int, w float64)) {
	for lo := 0; lo < s.graphN; lo++ {
		idx := s.slot(lo, lo+1)
		for hi := lo + 1; hi < s.graphN; hi, idx = hi+1, idx+1 {
			if s.flags[idx]&slotNeeded != 0 && s.vals[idx] > 0 {
				fn(lo, hi, s.vals[idx])
			}
		}
	}
}

// scoreAll fills the slots marked by need, row by row of the triangle, and
// advances the comparison counter by the number of marked pairs. ctx is
// consulted before every row; once it is canceled no further row is taken
// and ctx.Err() is returned — the caller must then discard the scorer.
func (s *cohScorer) scoreAll(ctx context.Context) error {
	for lo := 0; lo < s.graphN; lo++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		idx := s.slot(lo, lo+1)
		for hi := lo + 1; hi < s.graphN; hi, idx = hi+1, idx+1 {
			if s.flags[idx] == slotNeeded {
				s.fill(idx, lo, hi)
			}
		}
	}
	s.comparisons += s.pending
	s.pending = 0
	return nil
}
