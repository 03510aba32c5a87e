// Package graph implements the mention–entity coherence graph and the
// greedy dense-subgraph disambiguation algorithm of Section 3.4
// (Algorithm 1).
//
// The graph has two node classes — mentions and candidate entities — and two
// edge classes: weighted mention–entity edges (similarity/prior) and
// weighted entity–entity edges (coherence). The algorithm searches for the
// subgraph maximizing the minimum weighted degree among its entity nodes
// (normalized by size), subject to every mention keeping at least one
// candidate, and post-processes the surviving subgraph into a one-entity-
// per-mention assignment by exhaustive enumeration or weighted local search.
package graph

import (
	"math"
	"math/rand"
	"sort"

	"aida/internal/pool"
)

// Edge is a weighted mention→entity candidate edge.
type Edge struct {
	Entity int // local entity index
	Weight float64
}

// Graph is a disambiguation problem instance. Entities are addressed by
// dense local indices assigned by the caller.
type Graph struct {
	mentions int
	entities int
	// mentionEdges[m] lists the candidate edges of mention m.
	mentionEdges [][]Edge
	// coh is the symmetric coherence matrix as a flat upper triangle:
	// slot(a, b) holds the weight between a and b, 0 when there is no edge.
	// It is a view into buf, pooled scratch that Release gives back.
	coh []float64
	buf *cohBuf
}

// cohBuf is the backing of one graph's coherence triangle: quadratic in the
// entity count and the graph's one large allocation, so it is recycled.
type cohBuf struct{ w []float64 }

var cohBufs = pool.Scratch[cohBuf]{New: func() *cohBuf { return &cohBuf{} }}

// New creates a graph with the given node counts.
func New(mentions, entities int) *Graph {
	buf := cohBufs.Get()
	buf.w = pool.Zeroed(buf.w, entities*(entities-1)/2)
	return &Graph{
		mentions:     mentions,
		entities:     entities,
		mentionEdges: make([][]Edge, mentions),
		coh:          buf.w,
		buf:          buf,
	}
}

// Release returns the graph's coherence triangle to the pool it came from.
// The graph must not be used afterwards — a Result keeps nothing of it. A
// graph that is never released is simply collected.
func (g *Graph) Release() {
	cohBufs.Put(g.buf)
	g.buf, g.coh = nil, nil
}

// slot maps the unordered pair a != b to its index in coh; slots ascend
// with (lo, hi).
func (g *Graph) slot(a, b int) int {
	if a > b {
		a, b = b, a
	}
	return a*g.entities - a*(a+1)/2 + b - a - 1
}

// eachNeighbor calls fn for every entity nb that shares a coherence edge of
// weight w with e, in ascending order of nb — the fixed order the solver's
// float sums over an entity's edges rely on.
func (g *Graph) eachNeighbor(e int, fn func(nb int, w float64)) {
	idx := e - 1 // slot(0, e); the slots (nb, e) are a column, not contiguous
	for nb := 0; nb < e; nb++ {
		if w := g.coh[idx]; w != 0 {
			fn(nb, w)
		}
		idx += g.entities - nb - 2
	}
	for nb, w := range g.coh[idx+1 : idx+g.entities-e] { // the row (e, e+1…)
		if w != 0 {
			fn(e+1+nb, w)
		}
	}
}

// Entities returns the number of entity nodes.
func (g *Graph) Entities() int { return g.entities }

// AddMentionEdge adds a candidate edge m→e with the given weight.
func (g *Graph) AddMentionEdge(m, e int, w float64) {
	g.mentionEdges[m] = append(g.mentionEdges[m], Edge{Entity: e, Weight: w})
}

// AddEntityEdge adds (or overwrites) the coherence edge between entities a
// and b. Zero-weight edges are dropped.
func (g *Graph) AddEntityEdge(a, b int, w float64) {
	if a == b || w == 0 {
		return
	}
	g.coh[g.slot(a, b)] = w
}

// MentionEdge returns the weight of the m→e edge (0 if absent).
func (g *Graph) MentionEdge(m, e int) float64 {
	for _, edge := range g.mentionEdges[m] {
		if edge.Entity == e {
			return edge.Weight
		}
	}
	return 0
}

// EntityEdge returns the coherence weight between a and b (0 if absent).
func (g *Graph) EntityEdge(a, b int) float64 {
	if a == b {
		return 0
	}
	return g.coh[g.slot(a, b)]
}

// The solver's settings are the dissertation's (Sec. 3.4.2).
const (
	// pruneFactor k keeps k·#mentions entities in the pre-processing
	// phase.
	pruneFactor int = 5
	// maxEnumerate bounds the number of assignments the exhaustive
	// post-processing may enumerate before switching to local search.
	maxEnumerate int = 1 << 16
	// localSearchIters is the iteration budget of the randomized local
	// search fallback.
	localSearchIters int = 500
	// localSearchSeed seeds the local search, so a graph always solves to
	// the same assignment.
	localSearchSeed int64 = 1
)

// Options is empty: the solver has no settings. It stays only because
// benchmark/layers.go and disambig/aida.go pass graph.Options{} to Solve;
// ROADMAP item 1a deletes it together with the parameter.
type Options struct{}

// Result is the solver output.
type Result struct {
	// Assignment[m] is the entity chosen for mention m, or -1 when the
	// mention has no candidates.
	Assignment []int
	// Objective is the best normalized minimum weighted degree seen.
	Objective float64
	// TotalWeight is the edge weight of the final assignment.
	TotalWeight float64
}

// Solve runs Algorithm 1 on the graph.
func Solve(g *Graph, _ Options) Result {
	s := newSolverState(g)
	s.prune()
	removalOrder, bestStep := s.greedyPeel()
	s.restoreTo(removalOrder, bestStep)
	rng := rand.New(rand.NewSource(localSearchSeed))
	assignment, total := s.finalAssignment(rng)
	return Result{Assignment: assignment, Objective: s.bestObjective, TotalWeight: total}
}

// solverState tracks the mutable subgraph during peeling.
type solverState struct {
	g       *Graph
	present []bool // entity still in the graph
	degree  []float64
	// candCount[m] = number of remaining candidates of mention m.
	candCount []int
	// mentionsOf[e] = mentions having e as candidate (with edge weight).
	mentionsOf    [][]Edge // Edge.Entity reused as mention index here
	numPresent    int
	bestObjective float64
}

func newSolverState(g *Graph) *solverState {
	s := &solverState{
		g:          g,
		present:    make([]bool, g.entities),
		degree:     make([]float64, g.entities),
		candCount:  make([]int, g.mentions),
		mentionsOf: make([][]Edge, g.entities),
	}
	active := make([]bool, g.entities)
	for m := 0; m < g.mentions; m++ {
		for _, e := range g.mentionEdges[m] {
			active[e.Entity] = true
		}
	}
	for e := 0; e < g.entities; e++ {
		if active[e] {
			s.present[e] = true
			s.numPresent++
		}
	}
	for m := 0; m < g.mentions; m++ {
		for _, e := range g.mentionEdges[m] {
			s.candCount[m]++
			s.mentionsOf[e.Entity] = append(s.mentionsOf[e.Entity], Edge{Entity: m, Weight: e.Weight})
			s.degree[e.Entity] += e.Weight
		}
	}
	for e := 0; e < g.entities; e++ {
		if !s.present[e] {
			continue
		}
		g.eachNeighbor(e, func(nb int, w float64) {
			if s.present[nb] {
				s.degree[e] += w
			}
		})
	}
	return s
}

// distance converts an edge weight in [0,1] to a path distance.
func distance(w float64) float64 {
	d := 1 - w
	if d < 0.01 {
		return 0.01
	}
	return d
}

// prune implements the pre-processing phase: keep the pruneFactor·#mentions
// entities with the smallest sum of squared shortest-path distances to the
// mention set. Paths are approximated by the dominant two-hop routes (direct
// candidate edge, or coherence edge to a candidate of the target mention),
// which is exact for the dense candidate graphs AIDA builds. The best
// candidate of every mention is always retained.
func (s *solverState) prune() {
	keep := pruneFactor * s.g.mentions
	if s.numPresent <= keep {
		return
	}
	dist := make([]float64, s.g.entities)
	for e := 0; e < s.g.entities; e++ {
		if !s.present[e] {
			continue
		}
		var sum float64
		for m := 0; m < s.g.mentions; m++ {
			d := s.mentionDistance(e, m)
			sum += float64(d * d)
		}
		dist[e] = sum
	}
	type ed struct {
		e int
		d float64
	}
	order := make([]ed, 0, s.numPresent)
	for e := 0; e < s.g.entities; e++ {
		if s.present[e] {
			order = append(order, ed{e, dist[e]})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].d != order[j].d {
			return order[i].d < order[j].d
		}
		return order[i].e < order[j].e
	})
	// Protect the best candidate edge of each mention.
	protected := make([]bool, s.g.entities)
	for m := 0; m < s.g.mentions; m++ {
		best, bestW := -1, math.Inf(-1)
		for _, e := range s.g.mentionEdges[m] {
			if s.present[e.Entity] && e.Weight > bestW {
				best, bestW = e.Entity, e.Weight
			}
		}
		if best >= 0 {
			protected[best] = true
		}
	}
	kept := 0
	for _, o := range order {
		if kept < keep || protected[o.e] {
			kept++
			continue
		}
		s.removeEntity(o.e)
	}
}

// mentionDistance approximates the shortest weighted path from entity e to
// mention m.
func (s *solverState) mentionDistance(e, m int) float64 {
	best := math.Inf(1)
	for _, edge := range s.g.mentionEdges[m] {
		if !s.present[edge.Entity] {
			continue
		}
		if edge.Entity == e {
			if d := distance(edge.Weight); d < best {
				best = d
			}
			continue
		}
		coh := s.g.EntityEdge(e, edge.Entity)
		if coh > 0 {
			if d := distance(coh) + distance(edge.Weight); d < best {
				best = d
			}
		}
	}
	if math.IsInf(best, 1) {
		// Disconnected: a large, finite penalty keeps the ordering stable.
		return 4
	}
	return best
}

// removeEntity deletes e from the working subgraph, updating degrees and
// candidate counts.
func (s *solverState) removeEntity(e int) {
	if !s.present[e] {
		return
	}
	s.present[e] = false
	s.numPresent--
	for _, me := range s.mentionsOf[e] {
		s.candCount[me.Entity]--
	}
	s.g.eachNeighbor(e, func(nb int, w float64) {
		if s.present[nb] {
			s.degree[nb] -= w
		}
	})
}

// taboo reports whether e is the last remaining candidate of any mention.
func (s *solverState) taboo(e int) bool {
	for _, me := range s.mentionsOf[e] {
		if s.candCount[me.Entity] <= 1 {
			return true
		}
	}
	return false
}

// objective returns the normalized minimum weighted degree of the current
// entity set.
func (s *solverState) objective() float64 {
	if s.numPresent == 0 {
		return 0
	}
	minDeg := math.Inf(1)
	for e := 0; e < s.g.entities; e++ {
		if s.present[e] && s.degree[e] < minDeg {
			minDeg = s.degree[e]
		}
	}
	return minDeg / float64(s.numPresent)
}

// greedyPeel runs the main loop: repeatedly remove the non-taboo entity with
// the lowest weighted degree, tracking the step at which the objective was
// maximal. It returns the removal order and the index of the best step
// (number of removals performed when the best objective was observed).
func (s *solverState) greedyPeel() (removal []int, bestStep int) {
	s.bestObjective = s.objective()
	bestStep = 0
	for {
		// Find the non-taboo entity with minimum weighted degree.
		cand := -1
		minDeg := math.Inf(1)
		for e := 0; e < s.g.entities; e++ {
			if !s.present[e] || s.taboo(e) {
				continue
			}
			if s.degree[e] < minDeg {
				minDeg = s.degree[e]
				cand = e
			}
		}
		if cand < 0 {
			break
		}
		s.removeEntity(cand)
		removal = append(removal, cand)
		if obj := s.objective(); obj > s.bestObjective {
			s.bestObjective = obj
			bestStep = len(removal)
		}
	}
	return removal, bestStep
}

// restoreTo re-adds entities removed after the best step, reconstructing the
// best subgraph.
func (s *solverState) restoreTo(removal []int, bestStep int) {
	for i := len(removal) - 1; i >= bestStep; i-- {
		e := removal[i]
		s.present[e] = true
		s.numPresent++
		for _, me := range s.mentionsOf[e] {
			s.candCount[me.Entity]++
		}
		// Recompute the degree of e and update neighbors.
		d := 0.0
		for _, me := range s.mentionsOf[e] {
			d += me.Weight
		}
		s.g.eachNeighbor(e, func(nb int, w float64) {
			if s.present[nb] {
				d += w
				s.degree[nb] += w
			}
		})
		s.degree[e] = d
	}
}

// remainingCandidates lists the surviving candidates of mention m.
func (s *solverState) remainingCandidates(m int) []Edge {
	var out []Edge
	for _, e := range s.g.mentionEdges[m] {
		if s.present[e.Entity] {
			out = append(out, e)
		}
	}
	return out
}

// assignmentWeight computes the total edge weight of an assignment: chosen
// mention–entity edges plus coherence edges among distinct chosen entities.
func (s *solverState) assignmentWeight(assign []int) float64 {
	total := 0.0
	for m, e := range assign {
		if e < 0 {
			continue
		}
		total += s.g.MentionEdge(m, e)
	}
	for i := 0; i < len(assign); i++ {
		if assign[i] < 0 {
			continue
		}
		for j := i + 1; j < len(assign); j++ {
			if assign[j] < 0 || assign[i] == assign[j] {
				continue
			}
			total += s.g.EntityEdge(assign[i], assign[j])
		}
	}
	return total
}

// finalAssignment resolves mentions that still have several candidates,
// either exhaustively (when the combination count is feasible) or by
// weighted-degree-guided local search (Sec. 3.4.2 post-processing).
func (s *solverState) finalAssignment(rng *rand.Rand) ([]int, float64) {
	cands := make([][]Edge, s.g.mentions)
	combos := 1
	feasible := true
	for m := 0; m < s.g.mentions; m++ {
		cands[m] = s.remainingCandidates(m)
		if n := len(cands[m]); n > 0 {
			if combos > maxEnumerate/n {
				feasible = false
			} else {
				combos *= n
			}
		}
	}
	if feasible {
		return s.enumerate(cands)
	}
	return s.localSearch(cands, rng)
}

// enumerate tries all combinations and returns the best.
func (s *solverState) enumerate(cands [][]Edge) ([]int, float64) {
	assign := make([]int, s.g.mentions)
	best := make([]int, s.g.mentions)
	for m := range assign {
		assign[m] = -1
		best[m] = -1
	}
	bestW := math.Inf(-1)
	var rec func(m int)
	rec = func(m int) {
		if m == s.g.mentions {
			if w := s.assignmentWeight(assign); w > bestW {
				bestW = w
				copy(best, assign)
			}
			return
		}
		if len(cands[m]) == 0 {
			assign[m] = -1
			rec(m + 1)
			return
		}
		for _, e := range cands[m] {
			assign[m] = e.Entity
			rec(m + 1)
		}
		assign[m] = -1
	}
	rec(0)
	if math.IsInf(bestW, -1) {
		bestW = 0
	}
	return best, bestW
}

// localSearch starts from the greedy assignment and improves it by
// re-drawing mentions' entities with probability proportional to their
// weighted degree, keeping the best configuration found.
func (s *solverState) localSearch(cands [][]Edge, rng *rand.Rand) ([]int, float64) {
	assign := make([]int, s.g.mentions)
	for m := range assign {
		assign[m] = -1
		bestW := math.Inf(-1)
		for _, e := range cands[m] {
			if e.Weight > bestW {
				bestW = e.Weight
				assign[m] = e.Entity
			}
		}
	}
	best := append([]int(nil), assign...)
	bestW := s.assignmentWeight(assign)
	curW := bestW
	multi := multiCandidateMentions(cands)
	if len(multi) == 0 {
		return best, bestW
	}
	for it := 0; it < localSearchIters; it++ {
		m := multi[rng.Intn(len(multi))]
		e := s.sampleByDegree(cands[m], rng)
		if e == assign[m] {
			continue
		}
		old := assign[m]
		assign[m] = e
		w := s.assignmentWeight(assign)
		if w > bestW {
			bestW = w
			copy(best, assign)
		}
		if w >= curW {
			curW = w
		} else {
			assign[m] = old
		}
	}
	return best, bestW
}

func multiCandidateMentions(cands [][]Edge) []int {
	var out []int
	for m, cs := range cands {
		if len(cs) > 1 {
			out = append(out, m)
		}
	}
	return out
}

// sampleByDegree draws a candidate with probability proportional to its
// weighted degree in the current subgraph.
func (s *solverState) sampleByDegree(cands []Edge, rng *rand.Rand) int {
	total := 0.0
	for _, e := range cands {
		total += math.Max(s.degree[e.Entity], 1e-9)
	}
	x := rng.Float64() * total
	for _, e := range cands {
		x -= math.Max(s.degree[e.Entity], 1e-9)
		if x <= 0 {
			return e.Entity
		}
	}
	return cands[len(cands)-1].Entity
}
