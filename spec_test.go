package aida

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"aida/internal/kb"
)

// The request-validation error contract: every client mistake is an
// *InvalidRequestError with stable, descriptive text, and the text is
// identical whether the request came through the option constructors, a
// literal RequestSpec, or (see internal/server's mirror test, which pins
// the same strings against HTTP 400 bodies) the JSON API.

// specWorld builds a small System for validation tests.
func specWorld(t *testing.T) (*System, string) {
	t.Helper()
	k, docs := batchWorld(t, 1)
	return New(k, WithMaxCandidates(10)), docs[0]
}

func TestRequestValidationErrors(t *testing.T) {
	sys, doc := specWorld(t)
	ctx := context.Background()

	manyKeyphrases := make([]string, MaxContextKeyphrases+1)
	for i := range manyKeyphrases {
		manyKeyphrases[i] = "quantum chromodynamics"
	}
	manyEntities := make([]EntityID, MaxContextEntities+1)

	cases := []struct {
		name string
		opts []AnnotateOption
		want string
	}{
		{
			name: "unknown method",
			opts: []AnnotateOption{UseMethodNamed("bogus")},
			want: `unknown method "bogus" (want aida, cuc, iw, kul-ci, prior, sim, tagme)`,
		},
		{
			name: "negative parallelism",
			opts: []AnnotateOption{WithParallelism(-2)},
			want: "invalid parallelism -2: must be >= 0 (0 means the default)",
		},
		{
			name: "parallelism above the limit",
			opts: []AnnotateOption{WithParallelism(MaxParallelism + 1)},
			want: "too much parallelism: 1025 exceeds the limit of 1024",
		},
		{
			// Sizing the stream's buffers from this would panic in makechan.
			name: "huge parallelism",
			opts: []AnnotateOption{WithParallelism(1 << 60)},
			want: "too much parallelism: 1152921504606846976 exceeds the limit of 1024",
		},
		{
			name: "unknown domain",
			opts: []AnnotateOption{WithDomain("medicine")},
			want: `unknown domain "medicine" (no domains registered)`,
		},
		{
			name: "oversized context keyphrases",
			opts: []AnnotateOption{WithContext(manyKeyphrases...)},
			want: "context too large: 65 keyphrases exceed the limit of 64",
		},
		{
			name: "oversized context entities",
			opts: []AnnotateOption{WithContextEntities(manyEntities...)},
			want: "context too large: 257 entities exceed the limit of 256",
		},
		{
			name: "context weight out of range",
			opts: []AnnotateOption{WithContext("physics"), WithContextWeight(1.5)},
			want: "invalid context weight 1.5: must be in [0, 1]",
		},
		{
			name: "too many confidence iterations",
			opts: []AnnotateOption{IncludeConfidence(MaxConfidenceIterations+1, 7)},
			want: "too many confidence iterations: 501 exceeds the limit of 500",
		},
		{
			name: "duplicate method options",
			opts: []AnnotateOption{UseMethodNamed("prior"), UseMethodNamed("sim")},
			want: "conflicting annotate options: method given more than once",
		},
		{
			name: "duplicate parallelism options",
			opts: []AnnotateOption{WithParallelism(2), WithParallelism(4)},
			want: "conflicting annotate options: parallelism given more than once",
		},
		{
			name: "user profile conflicts with context",
			opts: append(
				(&RequestSpec{Context: &ContextSpec{Keyphrases: []string{"chemistry"}}}).Options(),
				WithContext("physics"),
			),
			want: "conflicting annotate options: context.keyphrases given more than once",
		},
		{
			name: "duplicate mentions options",
			opts: []AnnotateOption{WithMentions("Page"), WithMentions("Plant")},
			want: "conflicting annotate options: mentions given more than once",
		},
		{
			name: "empty mention surface",
			opts: []AnnotateOption{WithMentions("Page", "")},
			want: "invalid mentions: surface 1 is empty",
		},
		{
			name: "spec options conflict with explicit option",
			opts: append(
				(&RequestSpec{Domain: "news"}).Options(),
				WithDomain("sports"),
			),
			want: "conflicting annotate options: domain given more than once",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sys.AnnotateDoc(ctx, doc, tc.opts...)
			if err == nil {
				t.Fatalf("AnnotateDoc accepted the request, want %q", tc.want)
			}
			if err.Error() != tc.want {
				t.Errorf("error = %q, want %q", err.Error(), tc.want)
			}
			var ire *InvalidRequestError
			if !errors.As(err, &ire) {
				t.Errorf("error is %T, want *InvalidRequestError", err)
			}
			// The corpus and stream entry points and the dry run resolve
			// through the same funnel and must reject identically.
			if _, cerr := sys.AnnotateCorpus(ctx, []string{doc}, tc.opts...); cerr == nil || cerr.Error() != tc.want {
				t.Errorf("AnnotateCorpus error = %v, want %q", cerr, tc.want)
			}
			var serr error
			for _, err := range sys.AnnotateStream(ctx, slices.Values([]string{doc}), tc.opts...) {
				serr = err
				break
			}
			if serr == nil || serr.Error() != tc.want {
				t.Errorf("AnnotateStream error = %v, want %q", serr, tc.want)
			}
			var spec RequestSpec
			for _, opt := range tc.opts {
				opt(&spec)
			}
			if verr := sys.ValidateRequest(&spec); verr == nil || verr.Error() != tc.want {
				t.Errorf("ValidateRequest error = %v, want %q", verr, tc.want)
			}
		})
	}
}

// TestValidateRequestMatchesAnnotate pins ValidateRequest as a dry run: it
// must reproduce exactly the error AnnotateDoc would return for the same
// spec — including acceptance.
func TestValidateRequestMatchesAnnotate(t *testing.T) {
	sys, doc := specWorld(t)
	ctx := context.Background()

	specs := []*RequestSpec{
		{},
		{Method: "prior", Parallelism: 2},
		{Method: "bogus"},
		{Parallelism: -1},
		{Domain: "nope"},
		{Context: &ContextSpec{Keyphrases: []string{"jazz"}, Weight: 2}},
		{Context: &ContextSpec{Entities: make([]EntityID, MaxContextEntities+1)}},
		{Confidence: &ConfidenceSpec{Iterations: MaxConfidenceIterations}},
		{Confidence: &ConfidenceSpec{Iterations: MaxConfidenceIterations + 1}},
		{Mentions: []string{""}},
	}
	for _, spec := range specs {
		verr := sys.ValidateRequest(spec)
		_, aerr := sys.AnnotateDoc(ctx, doc, spec.Options()...)
		switch {
		case verr == nil && aerr == nil:
		case verr == nil || aerr == nil:
			t.Errorf("spec %+v: ValidateRequest = %v but AnnotateDoc = %v", spec, verr, aerr)
		case verr.Error() != aerr.Error():
			t.Errorf("spec %+v: ValidateRequest %q != AnnotateDoc %q", spec, verr, aerr)
		}
	}
}

// TestUnknownDomainListsRegistered checks the error text upgrades to the
// sorted available-domain list once domains exist.
func TestUnknownDomainListsRegistered(t *testing.T) {
	k, docs := batchWorld(t, 1)
	sys, doc := New(k, WithMaxCandidates(10)), docs[0]
	surface := k.Names()[0]
	entity := k.Entity(k.Candidates(surface)[0].Entity).Name
	for _, name := range []string{"zoology", "astronomy"} {
		dict := DomainDictionary{Name: name, Rows: []kb.DomainRow{{
			Surface: surface, Entity: entity, Count: 1,
		}}}
		if err := sys.RegisterDomain(dict); err != nil {
			t.Fatalf("RegisterDomain(%s): %v", name, err)
		}
	}
	_, err := sys.AnnotateDoc(context.Background(), doc, WithDomain("medicine"))
	want := `unknown domain "medicine" (available: astronomy, zoology)`
	if err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %q", err, want)
	}
	if got := sys.DomainNames(); len(got) != 2 || got[0] != "astronomy" || got[1] != "zoology" {
		t.Fatalf("DomainNames() = %v, want sorted [astronomy zoology]", got)
	}
}

// TestRequestSpecOptionsEquivalence: a literal spec resolved via Options()
// behaves exactly like the equivalent constructor options.
func TestRequestSpecOptionsEquivalence(t *testing.T) {
	sys, doc := specWorld(t)
	ctx := context.Background()

	spec := &RequestSpec{
		Method:      "prior",
		Parallelism: 2,
		Candidates:  true,
		Context:     &ContextSpec{Keyphrases: []string{"championship"}, Weight: 0.5},
	}
	fromSpec, err := sys.AnnotateDoc(ctx, doc, spec.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	fromOpts, err := sys.AnnotateDoc(ctx, doc,
		UseMethodNamed("prior"), WithParallelism(2), IncludeCandidates(),
		WithContext("championship"), WithContextWeight(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromSpec.Annotations) == 0 {
		t.Fatal("spec request annotated nothing")
	}
	if a, b := fromSpec.Annotations, fromOpts.Annotations; len(a) != len(b) {
		t.Fatalf("spec path found %d annotations, options path %d", len(a), len(b))
	} else {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("annotation %d diverges: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
	if len(fromSpec.Candidates) != len(fromSpec.Annotations) {
		t.Fatalf("spec path ignored Candidates: %d lists for %d mentions",
			len(fromSpec.Candidates), len(fromSpec.Annotations))
	}

	// Options() must not mutate the source spec (it is reused per document
	// by the HTTP batch handler).
	if spec.set != 0 || spec.err != nil {
		t.Fatalf("Options() mutated the source spec: set=%b err=%v", spec.set, spec.err)
	}
	if _, err := sys.AnnotateDoc(ctx, doc, spec.Options()...); err != nil {
		t.Fatalf("spec not reusable: %v", err)
	}
}

// TestNilAndZeroOptionsAreDefaults: nil options are skipped, and a zero
// spec resolves to the System defaults (same annotations as no options).
func TestNilAndZeroOptionsAreDefaults(t *testing.T) {
	sys, doc := specWorld(t)
	ctx := context.Background()

	base, err := sys.AnnotateDoc(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	var zero RequestSpec
	got, err := sys.AnnotateDoc(ctx, doc, nil, zero.Options()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Annotations) != len(base.Annotations) {
		t.Fatalf("zero spec changed the output: %d vs %d annotations",
			len(got.Annotations), len(base.Annotations))
	}
	for i := range base.Annotations {
		if got.Annotations[i] != base.Annotations[i] {
			t.Fatalf("annotation %d diverges under zero spec", i)
		}
	}
}

// TestWithMentions pins the given-mentions mode: the recognized surfaces
// given back as mentions reproduce the recognized document exactly, a
// surface the text does not hold is an InvalidRequestError, no surfaces
// link nothing, and the multi-document entry points reject the option.
func TestWithMentions(t *testing.T) {
	sys, doc := specWorld(t)
	ctx := context.Background()
	extras := []AnnotateOption{IncludeCandidates(), IncludeConfidence(5, 42), IncludeStats()}

	rec, err := sys.AnnotateDoc(ctx, doc, extras...)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Annotations) == 0 {
		t.Fatal("test document produced no annotations")
	}
	given, err := sys.AnnotateDoc(ctx, doc, append(extras, WithMentions(surfacesOf(rec.Annotations)...))...)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range rec.Annotations {
		g := given.Annotations[i]
		if g.Mention != a.Mention || g.Entity != a.Entity || g.Label != a.Label || g.Score != a.Score {
			t.Fatalf("given mention %d = %+v, recognized %+v", i, g, a)
		}
	}
	if !reflect.DeepEqual(given.Candidates, rec.Candidates) || !reflect.DeepEqual(given.Confidence, rec.Confidence) ||
		!reflect.DeepEqual(given.Stats, rec.Stats) {
		t.Fatal("given mentions changed the extras of the recognized document")
	}

	_, err = sys.AnnotateDoc(ctx, doc, WithMentions("Zzyzx"))
	var ire *InvalidRequestError
	if want := `invalid mentions: surface 0 ("Zzyzx") not found as whole tokens in the text at or after byte 0`; err == nil || err.Error() != want || !errors.As(err, &ire) {
		t.Fatalf("unknown surface: err = %v, want InvalidRequestError %q", err, want)
	}
	if none, err := sys.AnnotateDoc(ctx, doc, WithMentions()); err != nil || len(none.Annotations) != 0 {
		t.Fatalf("no given mentions = (%v, %v), want a document without annotations", none, err)
	}

	const one = "mentions belong to one document: annotate it with AnnotateDoc"
	if _, err := sys.AnnotateCorpus(ctx, []string{doc}, WithMentions("Zzyzx")); err == nil || err.Error() != one || !errors.As(err, &ire) {
		t.Fatalf("AnnotateCorpus err = %v, want InvalidRequestError %q", err, one)
	}
	for d, err := range sys.AnnotateStream(ctx, slices.Values([]string{doc}), WithMentions()) {
		if d != nil || err == nil || err.Error() != one {
			t.Fatalf("AnnotateStream yielded (%v, %v), want (nil, %q)", d, err, one)
		}
	}
}
