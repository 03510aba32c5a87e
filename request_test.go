package aida

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aida/internal/disambig"
	"aida/internal/emerge"
	"aida/internal/kb"
)

// TestAnnotateCanceledBeforeStart checks that an already-canceled context
// annotates nothing: every entry point returns ctx.Err() and the engine
// shows no scoring work.
func TestAnnotateCanceledBeforeStart(t *testing.T) {
	k, docs := batchWorld(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, parallelism := range []int{1, 4} {
		sys := New(k, WithMaxCandidates(10))
		if _, err := sys.AnnotateDoc(ctx, docs[0]); !errors.Is(err, context.Canceled) {
			t.Fatalf("AnnotateDoc err = %v, want context.Canceled", err)
		}
		if got, err := sys.AnnotateCorpus(ctx, docs, WithParallelism(parallelism)); !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("parallelism=%d: AnnotateCorpus = (%v, %v), want (nil, context.Canceled)", parallelism, got, err)
		}
		yields := 0
		for doc, err := range sys.AnnotateStream(ctx, slices.Values(docs), WithParallelism(parallelism)) {
			yields++
			if doc != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("parallelism=%d: stream yielded (%v, %v), want (nil, context.Canceled)", parallelism, doc, err)
			}
		}
		if yields != 1 {
			t.Fatalf("parallelism=%d: canceled stream yielded %d times, want exactly the error", parallelism, yields)
		}
		if st := sys.Live().Engine.Stats(); st.Hits+st.Misses != 0 {
			t.Fatalf("parallelism=%d: engine did %d pair computations after cancellation", parallelism, st.Hits+st.Misses)
		}
	}
}

// TestAnnotateStreamMidwayCancel cancels after the first yielded document
// and checks the stream (a) ends with ctx.Err() and (b) stops pulling
// input instead of draining the whole feed.
func TestAnnotateStreamMidwayCancel(t *testing.T) {
	k, docs := batchWorld(t, 4)
	// A long feed that cycles the corpus; pulls are counted atomically
	// because the stream's producer goroutine runs the feed.
	const feedLen = 10_000
	var pulled atomic.Int64
	feed := func(yield func(string) bool) {
		for i := 0; i < feedLen; i++ {
			pulled.Add(1)
			if !yield(docs[i%len(docs)]) {
				return
			}
		}
	}

	for _, parallelism := range []int{1, 4} {
		sys := New(k, WithMaxCandidates(10))
		ctx, cancel := context.WithCancel(context.Background())
		pulled.Store(0)
		var sawErr error
		yielded := 0
		for doc, err := range sys.AnnotateStream(ctx, feed, WithParallelism(parallelism)) {
			if err != nil {
				sawErr = err
				break
			}
			_ = doc
			yielded++
			cancel()
		}
		cancel()
		if !errors.Is(sawErr, context.Canceled) {
			t.Fatalf("parallelism=%d: stream ended with %v after %d docs, want context.Canceled", parallelism, sawErr, yielded)
		}
		if n := pulled.Load(); n >= feedLen {
			t.Fatalf("parallelism=%d: canceled stream drained the whole %d-document feed", parallelism, feedLen)
		}
	}
}

// methodFunc adapts a function to Method: the tests' window into which
// documents are inside annotateOne.
type methodFunc func(*disambig.Problem) *disambig.Output

func (methodFunc) Name() string { return "test" }

func (f methodFunc) Disambiguate(p *disambig.Problem) *disambig.Output { return f(p) }

// waitGoroutines fails the test unless the goroutine count falls back to
// before: in-flight documents wind down asynchronously after a stream ends
// early, so give them a moment.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after the stream ended", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAnnotateStreamEarlyBreakLeaksNoGoroutines pins the stream's cleanup:
// breaking out of the range loop must wind down the producer and the
// in-flight documents.
func TestAnnotateStreamEarlyBreakLeaksNoGoroutines(t *testing.T) {
	k, docs := batchWorld(t, 10)
	sys := New(k, WithMaxCandidates(10))
	before := runtime.NumGoroutine()

	for round := 0; round < 3; round++ {
		n := 0
		for doc, err := range sys.AnnotateStream(context.Background(), slices.Values(docs), WithParallelism(4)) {
			if err != nil {
				t.Fatal(err)
			}
			_ = doc
			n++
			if n == 2 {
				break
			}
		}
		if n != 2 {
			t.Fatalf("round %d: early break consumed %d docs", round, n)
		}
	}
	waitGoroutines(t, before)
}

// TestAnnotateStreamFailingDocument fails document k through the channel a
// remote store uses (a *kb.RemoteError panic inside the method): the stream
// yields documents 0..k-1 in order, then exactly one (nil, err), and leaves
// no goroutine behind; AnnotateCorpus returns (nil, err).
func TestAnnotateStreamFailingDocument(t *testing.T) {
	kbase, docs := batchWorld(t, 10)
	const k = 6
	words := func(p *disambig.Problem) string { return strings.Join(p.ContextWords, " ") }
	inner := disambig.NewAIDA()
	var bad string
	annotateDoc(t, New(kbase, WithMaxCandidates(10), WithMethod(methodFunc(func(p *disambig.Problem) *disambig.Output {
		bad = words(p)
		return inner.Disambiguate(p)
	}))), docs[k])
	sys := New(kbase, WithMaxCandidates(10), WithMethod(methodFunc(func(p *disambig.Problem) *disambig.Output {
		if words(p) == bad {
			panic(&kb.RemoteError{Op: "candidates", Shard: 1, Errs: []error{errors.New("down")}})
		}
		return inner.Disambiguate(p)
	})))
	before := runtime.NumGoroutine()

	for _, parallelism := range []int{1, 4} {
		var remote *kb.RemoteError
		n := 0
		for doc, err := range sys.AnnotateStream(context.Background(), slices.Values(docs), WithParallelism(parallelism)) {
			if remote != nil {
				t.Fatalf("parallelism=%d: stream went on after its error with (%v, %v)", parallelism, doc, err)
			}
			if err != nil {
				if doc != nil || !errors.As(err, &remote) {
					t.Fatalf("parallelism=%d: stream yielded (%v, %v), want (nil, *kb.RemoteError)", parallelism, doc, err)
				}
				continue
			}
			if doc.Index != n {
				t.Fatalf("parallelism=%d: yielded index %d at position %d", parallelism, doc.Index, n)
			}
			n++
		}
		if remote == nil || n != k {
			t.Fatalf("parallelism=%d: %d documents then error %v, want %d then the remote error", parallelism, n, remote, k)
		}
		if got, err := sys.AnnotateCorpus(context.Background(), docs, WithParallelism(parallelism)); got != nil || !errors.As(err, &remote) {
			t.Fatalf("parallelism=%d: AnnotateCorpus = (%v, %v), want (nil, *kb.RemoteError)", parallelism, got, err)
		}
	}
	waitGoroutines(t, before)
}

// TestAnnotateStreamRunAheadBounded puts one slow document at the head of
// a long feed of trivial ones: when its result is finally yielded, the
// stream must have pulled only its run-ahead window, not the feed.
func TestAnnotateStreamRunAheadBounded(t *testing.T) {
	k, docs := batchWorld(t, 12)
	sys := New(k, WithMaxCandidates(10))
	head := strings.Join(docs, " ")
	const tail = 5000
	var pulled atomic.Int64
	feed := func(yield func(string) bool) {
		pulled.Add(1)
		if !yield(head) {
			return
		}
		for i := 0; i < tail; i++ {
			pulled.Add(1)
			if !yield("word") {
				return
			}
		}
	}
	for _, p := range []int{1, 2, 4} {
		pulled.Store(0)
		n := 0
		for doc, err := range sys.AnnotateStream(context.Background(), feed, WithParallelism(p)) {
			if err != nil {
				t.Fatal(err)
			}
			if doc.Index == 0 {
				if got := pulled.Load(); got > int64(1+3*p) {
					t.Fatalf("parallelism=%d: %d documents pulled when the first was yielded, want at most %d", p, got, 1+3*p)
				}
			}
			n++
		}
		if n != 1+tail {
			t.Fatalf("parallelism=%d: stream yielded %d documents, want %d", p, n, 1+tail)
		}
	}
}

// TestAnnotateStreamSlotBound counts the documents inside the method at
// once: never more than the stream's parallelism, each with its coherence
// pool pinned to its own goroutine.
func TestAnnotateStreamSlotBound(t *testing.T) {
	k, docs := batchWorld(t, 12)
	inner := disambig.NewAIDA()
	for _, p := range []int{1, 2, 4} {
		var mu sync.Mutex
		inside, peak, pinned := 0, 0, true
		counting := WithMethod(methodFunc(func(pr *disambig.Problem) *disambig.Output {
			mu.Lock()
			inside++
			peak = max(peak, inside)
			pinned = pinned && pr.CoherenceWorkers == 1
			mu.Unlock()
			time.Sleep(time.Millisecond) // let the other slots fill
			out := inner.Disambiguate(pr)
			mu.Lock()
			inside--
			mu.Unlock()
			return out
		}))
		annotateCorpus(t, New(k, WithMaxCandidates(10), counting), docs, WithParallelism(p))
		if peak > p {
			t.Fatalf("parallelism=%d: %d documents were annotating at once", p, peak)
		}
		if !pinned {
			t.Fatalf("parallelism=%d: a batch document ran with its own coherence pool", p)
		}
	}
}

// TestAnnotateOptionsPerRequest checks that options change one request
// without touching the System, and that the opt-in extras are populated.
func TestAnnotateOptionsPerRequest(t *testing.T) {
	k, docs := batchWorld(t, 2)
	ctx := context.Background()
	sys := New(k, WithMaxCandidates(10))

	def, err := sys.AnnotateDoc(ctx, docs[0])
	if err != nil {
		t.Fatal(err)
	}
	if def.Candidates != nil || def.Confidence != nil || def.Stats != nil {
		t.Fatalf("extras must be opt-in; got %+v", def)
	}

	// Per-request method matches a System constructed with that method.
	prior, _ := MethodByName("prior")
	want := annotateDoc(t, New(k, WithMethod(prior), WithMaxCandidates(10)), docs[0])
	got, err := sys.AnnotateDoc(ctx, docs[0], UseMethodNamed("prior"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Annotations, want) {
		t.Fatal("UseMethodNamed(prior) diverges from a prior-method System")
	}
	// ... and the System's own method is untouched.
	after, err := sys.AnnotateDoc(ctx, docs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Annotations, def.Annotations) {
		t.Fatal("a per-request method leaked into the System")
	}

	if _, err := sys.AnnotateDoc(ctx, docs[0], UseMethodNamed("bogus")); err == nil ||
		!strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("unknown method name: err = %v", err)
	}

	// Candidate cap: matches a System with that cap.
	one := 1
	capped, err := sys.AnnotateDoc(ctx, docs[0], (&RequestSpec{MaxCandidates: &one}).Options()...)
	if err != nil {
		t.Fatal(err)
	}
	if want := annotateDoc(t, New(k, WithMaxCandidates(1)), docs[0]); !reflect.DeepEqual(capped.Annotations, want) {
		t.Fatal("max_candidates 1 diverges from a MaxCandidates(1) System")
	}

	// Extras: candidates, confidence and stats ride along on request.
	rich, err := sys.AnnotateDoc(ctx, docs[0], IncludeCandidates(), IncludeConfidence(5, 42), IncludeStats())
	if err != nil {
		t.Fatal(err)
	}
	if len(rich.Annotations) == 0 {
		t.Fatal("test document produced no annotations")
	}
	if len(rich.Candidates) != len(rich.Annotations) || len(rich.Confidence) != len(rich.Annotations) {
		t.Fatalf("extras misaligned: %d mentions, %d candidate lists, %d confidences",
			len(rich.Annotations), len(rich.Candidates), len(rich.Confidence))
	}
	if rich.Stats == nil || rich.Stats.Comparisons == 0 {
		t.Fatalf("Stats = %+v, want populated comparison counter", rich.Stats)
	}
	for i, conf := range rich.Confidence {
		if conf < 0 || conf > 1 {
			t.Fatalf("confidence[%d] = %v out of [0,1]", i, conf)
		}
	}
	anyCand := false
	for i, cands := range rich.Candidates {
		for _, c := range cands {
			anyCand = true
			if c.Label == "" {
				t.Fatalf("mention %d: candidate with empty label: %+v", i, c)
			}
		}
	}
	if !anyCand {
		t.Fatal("no candidates reported for any mention")
	}
	// The extras never change the annotations themselves.
	if !reflect.DeepEqual(rich.Annotations, def.Annotations) {
		t.Fatal("opt-in extras changed the annotations")
	}

	// IncludeConfidence matches CONF run on the same problem by hand.
	p := disambig.NewProblem(k, docs[0], surfacesOf(rich.Annotations), 10)
	out := sys.Method.Disambiguate(p)
	if want := emerge.CONF(sys.Method, p, out, emerge.PerturbConfig{Iterations: 5, Seed: 42}); !reflect.DeepEqual(rich.Confidence, want) {
		t.Fatalf("IncludeConfidence = %v, want %v", rich.Confidence, want)
	}
}

// TestWithRequestID checks the trace-id thread into Document.Stats: the
// id rides along only with IncludeStats, and an absent id leaves the
// field empty (so the JSON stays byte-identical for untraced callers).
func TestWithRequestID(t *testing.T) {
	k, docs := batchWorld(t, 1)
	ctx := context.Background()
	sys := New(k, WithMaxCandidates(10))

	doc, err := sys.AnnotateDoc(ctx, docs[0], IncludeStats(), WithRequestID("req-42"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Stats == nil || doc.Stats.RequestID != "req-42" {
		t.Fatalf("Stats = %+v, want RequestID %q", doc.Stats, "req-42")
	}

	plain, err := sys.AnnotateDoc(ctx, docs[0], IncludeStats())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats == nil || plain.Stats.RequestID != "" {
		t.Fatalf("Stats = %+v, want empty RequestID without the option", plain.Stats)
	}

	// Without IncludeStats the id has nowhere to land and must not force
	// the stats on.
	bare, err := sys.AnnotateDoc(ctx, docs[0], WithRequestID("req-43"))
	if err != nil {
		t.Fatal(err)
	}
	if bare.Stats != nil {
		t.Fatalf("WithRequestID alone materialized Stats: %+v", bare.Stats)
	}
}

func surfacesOf(anns []Annotation) []string {
	out := make([]string, len(anns))
	for i, a := range anns {
		out[i] = a.Mention.Text
	}
	return out
}

// TestMethodTable enumerates every selector MethodByName accepts: each
// must resolve case-insensitively, the empty string must mean "aida", and
// the baseline-backed selectors must name methods of the baseline suite.
func TestMethodTable(t *testing.T) {
	names := MethodNames()
	if len(names) == 0 {
		t.Fatal("MethodNames is empty")
	}
	want := []string{"aida", "cuc", "iw", "kul-ci", "prior", "sim", "tagme"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("MethodNames() = %v, want %v", names, want)
	}

	baselineNames := make(map[string]bool)
	for _, m := range disambig.Methods() {
		baselineNames[m.Name()] = true
	}

	for _, sel := range names {
		lower, err := MethodByName(sel)
		if err != nil {
			t.Fatalf("MethodByName(%q): %v", sel, err)
		}
		for _, variant := range []string{strings.ToUpper(sel), strings.ToUpper(sel[:1]) + sel[1:]} {
			m, err := MethodByName(variant)
			if err != nil {
				t.Fatalf("MethodByName(%q): %v", variant, err)
			}
			if m.Name() != lower.Name() {
				t.Fatalf("MethodByName(%q) = %q, want %q", variant, m.Name(), lower.Name())
			}
		}
		// The shorthand selectors that defer to the baseline suite must
		// resolve to members of it.
		switch sel {
		case "prior", "sim", "cuc", "kul-ci":
			if !baselineNames[lower.Name()] {
				t.Fatalf("selector %q resolves to %q, which the baseline suite does not contain", sel, lower.Name())
			}
		}
	}

	def, err := MethodByName("")
	if err != nil {
		t.Fatalf("MethodByName(\"\"): %v", err)
	}
	aidaM, _ := MethodByName("aida")
	if def.Name() != aidaM.Name() {
		t.Fatalf("empty selector = %q, want the aida default %q", def.Name(), aidaM.Name())
	}

	if _, err := MethodByName("no-such-method"); err == nil {
		t.Fatal("unknown selector must error, never fall back")
	}
}
