package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced in-process replay. Spans of one
// document share Doc; Parent is the index of the span that caused this one
// (-1 for a document's root). A probe span times a layer in isolation,
// beside the document's pipeline: it has the root as parent for
// attribution but is excluded from the sum of the root's children.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Doc     int    `json:"doc"`
	Probe   bool   `json:"probe,omitempty"`
}

func (s span) durationNS() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory; they are written out when the run ends.
// Times are nanoseconds since the tracer was made.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, parent, doc int, probe bool) int {
	t.spans = append(t.spans, span{Name: name, StartNS: t.now(), Parent: parent, Doc: doc, Probe: probe})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].EndNS = t.now()
	return time.Duration(t.spans[i].durationNS())
}

// add records a span whose interval was measured elsewhere (the aggregate
// of many small calls), placed at startNS.
func (t *tracer) add(name string, parent, doc int, startNS int64, d time.Duration) int {
	t.spans = append(t.spans, span{Name: name, StartNS: startNS, EndNS: startNS + int64(d), Parent: parent, Doc: doc})
	return len(t.spans) - 1
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its non-probe children cover. Overlapping children are not counted
// twice, and a child is clipped to its parent's interval.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 && !s.Probe {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			from, to := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] = s.durationNS() - covered
	}
	return self
}
