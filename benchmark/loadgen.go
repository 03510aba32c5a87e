package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// reply is the outcome of one request as the load generator sees it.
type reply struct {
	docs   int   // documents the reply completed (0 for a failed request)
	status int   // HTTP status, 0 on a transport error
	bytes  int   // response body size
	err    error // non-nil marks the request failed: transport, status or output check
}

// doer performs request number i of a phase and blocks until its reply.
// It is called from up to conns goroutines at once.
type doer func(i int) reply

// phaseStats is what one load phase measured.
type phaseStats struct {
	Name  string
	Loop  string  // "open" or "closed"
	Rate  float64 // open loop: scheduled requests per second
	Conns int

	Attempted, Succeeded, Failed int
	Docs                         int           // documents completed by succeeded requests
	Elapsed                      time.Duration // start to last completion
	Planned                      time.Duration // the phase's scheduled length
	LatencyMS                    []float64     // succeeded requests; open loop: from the due time
	DoneS                        []float64     // per succeeded request, parallel to LatencyMS: completion time, seconds into the phase
	DocsOf                       []int         // parallel to LatencyMS: documents the request completed
	LatenessMS                   []float64     // open loop: how long after its due time a request was sent
	BacklogMax                   int           // open loop: most requests due but not yet sent
	HTTP429, HTTP5xx             int
	Bytes                        int64
	FirstErr                     error
}

func (p *phaseStats) String() string {
	s := fmt.Sprintf("phase %-5s %s-loop conns=%d", p.Name, p.Loop, p.Conns)
	if p.Loop == "open" {
		s += fmt.Sprintf(" rate=%g/s", p.Rate)
	}
	s += fmt.Sprintf(" %.2fs attempted=%d succeeded=%d failed=%d docs=%d", p.Elapsed.Seconds(), p.Attempted, p.Succeeded, p.Failed, p.Docs)
	if p.FirstErr != nil {
		s += fmt.Sprintf(" first-error=%q", p.FirstErr)
	}
	return s
}

// workerLog is one goroutine's share of a phase, merged when it ends so
// the hot path takes no lock.
type workerLog struct {
	latency, lateness []float64
	doneAt            []time.Time
	docsOf            []int
	attempted, failed int
	docs              int
	backlogMax        int
	http429, http5xx  int
	bytes             int64
	firstErr          error
	lastDone          time.Time
}

func (w *workerLog) record(r reply, latency time.Duration, done time.Time) {
	w.attempted++
	w.bytes += int64(r.bytes)
	w.lastDone = done
	switch {
	case r.status == 429:
		w.http429++
	case r.status >= 500:
		w.http5xx++
	}
	if r.err != nil {
		// A failed request has no latency figure: it misses every limit.
		w.failed++
		if w.firstErr == nil {
			w.firstErr = r.err
		}
		return
	}
	w.docs += r.docs
	w.latency = append(w.latency, float64(latency)/float64(time.Millisecond))
	w.doneAt = append(w.doneAt, done)
	w.docsOf = append(w.docsOf, r.docs)
}

func mergeLogs(p *phaseStats, start time.Time, logs []workerLog) {
	end := start
	for i := range logs {
		w := &logs[i]
		p.Attempted += w.attempted
		p.Failed += w.failed
		p.Docs += w.docs
		p.LatencyMS = append(p.LatencyMS, w.latency...)
		for _, t := range w.doneAt {
			p.DoneS = append(p.DoneS, t.Sub(start).Seconds())
		}
		p.DocsOf = append(p.DocsOf, w.docsOf...)
		p.LatenessMS = append(p.LatenessMS, w.lateness...)
		p.BacklogMax = max(p.BacklogMax, w.backlogMax)
		p.HTTP429 += w.http429
		p.HTTP5xx += w.http5xx
		p.Bytes += w.bytes
		if p.FirstErr == nil {
			p.FirstErr = w.firstErr
		}
		if w.lastDone.After(end) {
			end = w.lastDone
		}
	}
	p.Succeeded = p.Attempted - p.Failed
	p.Elapsed = end.Sub(start)
}

// openLoop sends requests on a fixed timetable — request i is due at
// start + i/rate whatever happened to the ones before it — over at most
// conns connections, for dur. A request's latency runs from the instant it
// was due, not from when a connection became free, so a stall is charged
// to every request that had to queue behind it. The timetable never adapts
// to the replies.
func openLoop(name string, rate float64, dur time.Duration, conns int, do doer) *phaseStats {
	p := &phaseStats{Name: name, Loop: "open", Rate: rate, Conns: conns, Planned: dur}
	interval := time.Duration(float64(time.Second) / rate)
	n := int64(dur / interval)
	logs := make([]workerLog, conns)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(log *workerLog) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				log.lateness = append(log.lateness, float64(sent.Sub(due))/float64(time.Millisecond))
				// Requests with an index in (i, dueBy] are due and nobody has
				// claimed them yet.
				dueBy := int64(sent.Sub(start) / interval)
				log.backlogMax = max(log.backlogMax, int(min(dueBy, n-1)-i))
				r := do(int(i))
				done := time.Now()
				log.record(r, done.Sub(due), done)
			}
		}(&logs[w])
	}
	wg.Wait()
	mergeLogs(p, start, logs)
	return p
}

// closedLoop keeps conns connections busy for dur: each sends its next
// request when the previous reply has arrived. limit > 0 ends the phase
// early once that many requests have been sent (a stream of never-repeated
// requests ran out).
func closedLoop(name string, dur time.Duration, conns, limit int, do doer) *phaseStats {
	p := &phaseStats{Name: name, Loop: "closed", Conns: conns, Planned: dur}
	logs := make([]workerLog, conns)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(log *workerLog) {
			defer wg.Done()
			for {
				sent := time.Now()
				if !sent.Before(deadline) {
					return
				}
				i := next.Add(1) - 1
				if limit > 0 && i >= int64(limit) {
					return
				}
				r := do(int(i))
				done := time.Now()
				log.record(r, done.Sub(sent), done)
			}
		}(&logs[w])
	}
	wg.Wait()
	mergeLogs(p, start, logs)
	return p
}

// latencyInOrder returns the succeeded requests' latencies ordered by
// completion time.
func (p *phaseStats) latencyInOrder() []float64 {
	idx := make([]int, len(p.LatencyMS))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.DoneS[idx[a]] < p.DoneS[idx[b]] })
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = p.LatencyMS[j]
	}
	return out
}
