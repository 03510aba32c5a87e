package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"aida/internal/pool"
	"aida/internal/relatedness"
)

// servedBody is one response kept for checking after the run, on a
// workload whose KB changes under the readers.
type servedBody struct {
	req  int
	body []byte
}

// client sends the workload's requests and keeps what came back. On a
// fixed-KB workload every response to a request must equal the first one
// byte for byte (a cheap comparison, done while the load runs); the first
// one is later held to the in-process reference.
type client struct {
	hc    *http.Client
	base  string
	in    *inputs
	fixed bool

	canon  []atomic.Pointer[[]byte] // first response per request
	served []atomic.Int64           // responses received per request

	mu  sync.Mutex
	log []servedBody // live-KB workloads only
}

func newClient(in *inputs, conns int) *client {
	return &client{
		hc: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		in:     in,
		fixed:  in.wl.liveDeltas == 0,
		canon:  make([]atomic.Pointer[[]byte], len(in.reqs)),
		served: make([]atomic.Int64, len(in.reqs)),
	}
}

// do sends request i (the request stream cycles) and checks the reply's
// status and, on a fixed KB, that it repeats the first reply.
func (c *client) do(i int) reply {
	ri := i % len(c.in.reqs)
	rq := &c.in.reqs[ri]
	req, err := c.in.httpRequest(c.base, rq)
	if err != nil {
		return reply{err: err}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, bytes: len(body)}
	switch {
	case err != nil:
		r.err = err
		return r
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("request %d: status %d: %s", ri, resp.StatusCode, bytes.TrimSpace(body))
		return r
	}
	if c.fixed {
		first := c.canon[ri].Load()
		if first == nil && !c.canon[ri].CompareAndSwap(nil, &body) {
			first = c.canon[ri].Load()
		}
		if first != nil && !bytes.Equal(*first, body) {
			r.err = fmt.Errorf("request %d: response differs from an earlier response to the same request", ri)
			return r
		}
	} else {
		c.mu.Lock()
		c.log = append(c.log, servedBody{req: ri, body: body})
		c.mu.Unlock()
	}
	c.served[ri].Add(1)
	r.docs = rq.n
	return r
}

// warm sends requests [from, to) once each over conns connections. A
// failure while warming is fatal to the run.
func (c *client) warm(from, to, conns int) error {
	var mu sync.Mutex
	var first error
	pool.ForEach(to-from, conns, func(i int) {
		if r := c.do(from + i); r.err != nil {
			mu.Lock()
			if first == nil {
				first = r.err
			}
			mu.Unlock()
		}
	})
	return first
}

// postDelta posts delta generation g to the admin endpoint and returns the
// round-trip time.
func (c *client) postDelta(hc *http.Client, g int) (time.Duration, error) {
	body, err := json.Marshal(c.in.delta(g))
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/admin/kb/delta", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if len(c.in.tenants) > 0 {
		req.Header.Set("X-API-Key", c.in.tenants[0].Key)
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	msg, _ := io.ReadAll(resp.Body) // a short body is reported through the status below
	resp.Body.Close()
	rtt := time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		return rtt, fmt.Errorf("delta generation %d: status %d: %s", g, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return rtt, nil
}

// engineStats is the part of GET /v1/stats the benchmark reads.
type engineStats struct {
	Engine relatedness.Stats `json:"engine"`
	KB     struct {
		Entities   int    `json:"entities"`
		Generation uint64 `json:"generation"`
	} `json:"kb"`
}

func (c *client) stats() (*engineStats, error) {
	resp, err := c.hc.Get(c.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	var st engineStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	return &st, nil
}

// httpRun is everything one run against the real server measured.
type httpRun struct {
	in           *inputs
	setupSeconds []float64 // one per boot
	warmRest     float64   // untimed-by-setup_s remainder of the warm-up
	phases       []*phaseStats
	cpuSeconds   float64 // server CPU over the measured phases
	rssMiB       float64
	deltaMS      []float64
	deltaFailed  int
	statsBefore  *engineStats // GET /v1/stats before the first phase
	stats        *engineStats // and after the last

	checked     int // responses held to the reference or to well-formedness
	checkFailed int // requests whose response failed the output check
	checkErr    error
	goldCorrect int
	goldTotal   int
}

// pairHitRatio is the live engine's pair-cache hit ratio over the measured
// phases. A delta apply swaps in a cloned engine whose counters restart at
// zero; then the ratio is the serving engine's own, since its swap.
func (r *httpRun) pairHitRatio() float64 {
	before, after := r.statsBefore.Engine, r.stats.Engine
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if r.stats.KB.Generation != r.statsBefore.KB.Generation || hits+misses <= 0 {
		return after.HitRate()
	}
	return float64(hits) / float64(hits+misses)
}

func (r *httpRun) phase(name string) *phaseStats {
	for _, p := range r.phases {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// tailPhase is the phase whose latency tail is reported: the high-rate
// open-loop phase where the workload has one, else its only phase.
func (r *httpRun) tailPhase() *phaseStats {
	if p := r.phase("hi"); p != nil {
		return p
	}
	return r.phases[0]
}

// totals sums requests over all phases plus the delta posts; a response
// that failed the output check counts as a failed request.
func (r *httpRun) totals() (attempted, failed, docs int) {
	for _, p := range r.phases {
		attempted += p.Attempted
		failed += p.Failed
		docs += p.Docs
	}
	attempted += len(r.deltaMS) + r.deltaFailed
	failed += r.deltaFailed + r.checkFailed
	return attempted, failed, docs
}

// prepare builds the server binary and generates the workload's inputs into
// a scratch directory of their own; cleanup removes it.
func prepare(ctx context.Context, wl *workload, seed int64, seconds float64, out io.Writer) (in *inputs, bin string, cleanup func(), err error) {
	bin, buildTime, err := buildServer(ctx)
	if err != nil {
		return nil, "", nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-"+wl.name+"-")
	if err != nil {
		return nil, "", nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	if dir, err = filepath.Abs(dir); err != nil {
		cleanup()
		return nil, "", nil, err
	}
	t0 := time.Now()
	if in, err = generate(wl, seed, seconds, dir); err != nil {
		cleanup()
		return nil, "", nil, fmt.Errorf("generate inputs: %w", err)
	}
	fmt.Fprintf(out, "inputs: seed=%d entities=%d docs=%d requests=%d (go build %.2fs, generation %.2fs; neither is part of setup_s)\n",
		seed, wl.entities, len(in.docs), len(in.reqs), buildTime.Seconds(), time.Since(t0).Seconds())
	return in, bin, cleanup, nil
}

// runHTTP boots the real server on the prepared inputs, drives the
// workload's phases against it and checks what it served. boots is how
// many times set-up is timed; seconds is the total measured time the
// phases share.
func runHTTP(ctx context.Context, in *inputs, bin string, seconds float64, boots, nproc int, out io.Writer) (*httpRun, error) {
	wl, dir := in.wl, in.dir
	run := &httpRun{in: in}

	conns := wl.conns(nproc)
	c := newClient(in, conns)
	var srv *serverProc
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for b := 0; b < boots; b++ {
		journal, err := in.freshJournal(b)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		srv, err = startServer(ctx, bin, in.serverArgs(journal), filepath.Join(dir, fmt.Sprintf("server.%d.log", b)))
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", b, err)
		}
		c.base = srv.base
		if wl.warm {
			if err := c.warm(0, min(warmPrefix, len(in.reqs)), conns); err != nil {
				return nil, fmt.Errorf("boot %d: warm-up: %w", b, err)
			}
		}
		run.setupSeconds = append(run.setupSeconds, time.Since(start).Seconds())
		if b < boots-1 {
			srv.stop()
		}
	}
	if wl.warm && len(in.reqs) > warmPrefix {
		start := time.Now()
		if err := c.warm(warmPrefix, len(in.reqs), conns); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		run.warmRest = time.Since(start).Seconds()
	}
	fmt.Fprintf(out, "set-up: %d boot(s) %v s; rest of warm-up %.2fs\n", boots, fmtFloats(run.setupSeconds), run.warmRest)

	var err error
	if run.statsBefore, err = c.stats(); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	admin := &http.Client{Timeout: time.Minute}
	total := time.Duration(seconds * float64(time.Second))
	var writer sync.WaitGroup
	stopWriter := make(chan struct{})
	if wl.liveDeltas > 0 {
		// One writer beside the readers: delta k is due at (k+1)/(n+1) of
		// the measured time, each built on the generation before it.
		writer.Add(1)
		go func() {
			defer writer.Done()
			begin := time.Now()
			for k := 0; k < wl.liveDeltas; k++ {
				due := begin.Add(total * time.Duration(k+1) / time.Duration(wl.liveDeltas+1))
				select {
				case <-stopWriter:
					return
				case <-time.After(time.Until(due)):
				}
				rtt, err := c.postDelta(admin, wl.journal+k)
				if err != nil {
					run.deltaFailed++
					if run.checkErr == nil {
						run.checkErr = err
					}
					return // the chain is broken: later generations cannot apply
				}
				run.deltaMS = append(run.deltaMS, float64(rtt)/float64(time.Millisecond))
			}
		}()
	}

	for _, ps := range wl.phases {
		dur := time.Duration(ps.share * float64(total))
		var p *phaseStats
		if ps.loop == "open" {
			p = openLoop(ps.name, ps.rate, dur, conns, c.do)
		} else {
			limit := 0
			if wl.docs == 0 {
				limit = len(in.reqs) // never-repeated requests: stop when they run out
			}
			p = closedLoop(ps.name, dur, conns, limit, c.do)
		}
		run.phases = append(run.phases, p)
		fmt.Fprintln(out, p)
	}
	close(stopWriter)
	writer.Wait()
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	run.cpuSeconds = cpu1 - cpu0
	if run.rssMiB, err = srv.peakRSSMiB(); err != nil {
		return nil, err
	}
	if run.stats, err = c.stats(); err != nil {
		return nil, err
	}

	if wl.liveDeltas == 0 {
		// A fixed-KB workload applies one delta to the server as the phases
		// left it, after everything else was measured and every response
		// collected. What it times is an apply to a hot engine: CloneFor
		// walks every memoized pair to decide what the new generation may
		// keep. (Further applies would find the cache already emptied and
		// take under a millisecond, which times the box's wake-up jitter.)
		rtt, err := c.postDelta(admin, wl.journal)
		if err != nil {
			run.deltaFailed++
			run.checkErr = err
		} else {
			run.deltaMS = append(run.deltaMS, float64(rtt)/float64(time.Millisecond))
		}
	}
	fmt.Fprintf(out, "deltas: applied=%d failed=%d\n", len(run.deltaMS), run.deltaFailed)

	srv.stop()
	srv = nil

	if err := run.check(c, nproc); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "output check: %d responses checked, %d requests failed it; gold mentions %d/%d correct\n",
		run.checked, run.checkFailed, run.goldCorrect, run.goldTotal)
	if run.checkErr != nil {
		fmt.Fprintf(out, "first check failure: %v\n", run.checkErr)
	}
	return run, nil
}

// accuracyDocs bounds the documents batch-cold scores accuracy over, so
// that the figure does not depend on how many documents a run got through.
const accuracyDocs = 1024

// referenceStride is the sampling stride of batch-cold's reference check:
// annotating every never-repeated document a second time, in process,
// would take as long as the measurement itself.
const referenceStride = 8

// check holds what the server sent to the reference (fixed KB) or to
// well-formedness (live KB), and scores accuracy against the gold.
func (r *httpRun) check(c *client, nproc int) error {
	in := r.in
	var mu sync.Mutex
	fail := func(requests int, err error) {
		mu.Lock()
		r.checkFailed += requests
		if r.checkErr == nil {
			r.checkErr = err
		}
		mu.Unlock()
	}
	hit := func(correct, total int) {
		mu.Lock()
		r.goldCorrect += correct
		r.goldTotal += total
		r.checked++
		mu.Unlock()
	}

	if !c.fixed {
		// Every delta the writer applied added deltaEntities; an id below
		// the final size is the most that can be asked without knowing
		// which generation served a response.
		numEntities := in.world.KB.NumEntities() + (in.wl.journal+in.wl.liveDeltas)*deltaEntities
		pool.ForEach(len(c.log), nproc, func(i int) {
			var doc wireDocument
			d := &in.docs[in.reqs[c.log[i].req].first]
			if err := json.Unmarshal(c.log[i].body, &doc); err != nil {
				fail(1, fmt.Errorf("request %d: %w", c.log[i].req, err))
				return
			}
			if err := wellFormed(d.text, doc.Annotations, numEntities); err != nil {
				fail(1, fmt.Errorf("request %d: %w", c.log[i].req, err))
				return
			}
			hit(goldHits(d, doc.Annotations))
		})
		return r.sawGold()
	}

	sys, err := in.referenceSystem()
	if err != nil {
		return err
	}
	numEntities := sys.Store().NumEntities()
	pool.ForEach(len(in.reqs), nproc, func(ri int) {
		rq := &in.reqs[ri]
		first := c.canon[ri].Load()
		if first == nil {
			if in.wl.docs > 0 {
				fail(1, fmt.Errorf("request %d was never served", ri))
			}
			return // a never-repeated pool need not be exhausted
		}
		served := int(c.served[ri].Load())
		if in.wl.batch == 0 {
			var doc wireDocument
			if err := json.Unmarshal(*first, &doc); err != nil {
				fail(served, fmt.Errorf("request %d: %w", ri, err))
				return
			}
			want, err := in.referenceDoc(sys, rq.first)
			if err == nil {
				err = sameDocument(&doc, want)
			}
			if err != nil {
				fail(served, fmt.Errorf("request %d: %w", ri, err))
				return
			}
			hit(goldHits(&in.docs[rq.first], doc.Annotations))
			return
		}
		lines, err := parseBatchLines(*first, rq.n)
		if err != nil {
			fail(served, fmt.Errorf("request %d: %w", ri, err))
			return
		}
		for j, line := range lines {
			di := rq.first + j
			err := wellFormed(in.docs[di].text, line.Annotations, numEntities)
			if err == nil && di%referenceStride == 0 {
				ref, rerr := in.referenceDoc(sys, di)
				if rerr != nil {
					err = rerr
				} else {
					err = sameAnnotations(line.Annotations, ref.Annotations)
				}
			}
			if err != nil {
				fail(served, fmt.Errorf("request %d document %d: %w", ri, j, err))
				return
			}
			if di < accuracyDocs {
				hit(goldHits(&in.docs[di], line.Annotations))
			}
		}
	})
	return r.sawGold()
}

func (r *httpRun) sawGold() error {
	if r.goldTotal == 0 {
		return errors.New("output check saw no gold mention: nothing was served")
	}
	return nil
}

func fmtFloats(xs []float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", x)
	}
	return b.String()
}
