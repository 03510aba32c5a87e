package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"aida"
	"aida/internal/kb"
	"aida/internal/kb/live"
	"aida/internal/server"
	"aida/internal/wiki"
)

// goldSpan is one gold in-KB mention located in its document's text.
type goldSpan struct {
	start, end int
	entity     kb.EntityID
}

// document is one generated document with the generator's ground truth.
type document struct {
	text string
	gold []goldSpan
	// context is a keyphrase context describing the document's first gold
	// entity: what a caller who knows the page around a short text would
	// send as "context.keyphrases".
	context []string
}

// request is one HTTP request body of the workload, ready to send.
type request struct {
	body  []byte
	key   string // API key; empty on an open server
	first int    // index of the request's first document
	n     int    // documents in the request
}

// httpRequest builds the POST for a request against base ("" for a handler
// called without a network): path and Accept by request kind, the tenant's
// API key where there is one.
func (in *inputs) httpRequest(base string, rq *request) (*http.Request, error) {
	path := "/v1/annotate"
	if in.wl.batch > 0 {
		path = "/v1/annotate/batch"
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(rq.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if in.wl.batch > 0 {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	if rq.key != "" {
		req.Header.Set("X-API-Key", rq.key)
	}
	return req, nil
}

// annotateBody and batchBody mirror the server's request shapes: the text
// (or texts) next to an embedded RequestSpec. The generator encodes with
// them and the output check decodes with them, so the in-process reference
// resolves exactly the spec the server was sent.
type annotateBody struct {
	Text string `json:"text"`
	aida.RequestSpec
}

type batchBody struct {
	Docs []string `json:"docs"`
	aida.RequestSpec
}

// inputs is everything a run feeds the server, all derived from the seed.
// The server sees only the files below and the request bodies.
type inputs struct {
	wl    *workload
	world *wiki.World
	docs  []document
	reqs  []request

	tenants []server.TenantConfig
	domains []kb.DomainDictionary
	// journaled are the deltas the server replays from its journal at
	// boot; delta(g) continues the chain after them.
	journaled []*kb.Delta

	dir         string
	kbPath      string
	tenantsPath string
	domainsPath string
	journalPath string // pristine journal; each boot replays a copy

	ambiguous []string                 // dictionary names with ≥ 2 candidates, sorted
	hot       map[string][]kb.EntityID // domain → its most popular entities
	deltas    map[int]*kb.Delta        // generation → delta, built on demand
}

// generate builds a workload's inputs from the seed and writes the files
// the server reads into dir. The same (workload, seed, seconds) always
// yields the same documents, request bodies, tenant, domain and delta
// content; the KB file holds the same knowledge base (its gob encoding
// orders maps freely, so identity is by content fingerprint, not by byte).
func generate(wl *workload, seed int64, seconds float64, dir string) (*inputs, error) {
	in := &inputs{wl: wl, dir: dir, deltas: map[int]*kb.Delta{}, hot: map[string][]kb.EntityID{}}
	in.world = wiki.Generate(wiki.Config{Seed: seed, Entities: wl.entities})
	k := in.world.KB
	for _, name := range k.Names() {
		if len(k.Candidates(name)) >= 2 {
			in.ambiguous = append(in.ambiguous, name)
		}
	}

	in.kbPath = filepath.Join(dir, "kb.gob")
	f, err := os.Create(in.kbPath)
	if err != nil {
		return nil, err
	}
	if err := k.Save(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("save KB: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	// The corpus seed is offset from the world seed so documents are not
	// drawn from the very random stream that laid out the world.
	for _, d := range in.world.GenerateCorpus(wl.corpus(wl.numDocs(seconds), seed+1_000_003)) {
		in.docs = append(in.docs, in.located(d))
	}

	if wl.journal > 0 {
		in.journalPath = filepath.Join(dir, "journal.pristine")
		j, err := live.OpenJournal(in.journalPath)
		if err != nil {
			return nil, err
		}
		for g := 0; g < wl.journal; g++ {
			d := in.delta(g)
			in.journaled = append(in.journaled, d)
			if err := j.Append(d); err != nil {
				j.Close()
				return nil, err
			}
		}
		if err := j.Close(); err != nil {
			return nil, err
		}
	}

	// Domain dictionaries exist for every workload (the layer probes compose
	// one over each KB); only a tenanted server is handed the file.
	in.domains = in.domainDictionaries()
	if wl.tenanted {
		for _, t := range []string{"a", "b", "c"} {
			// Quotas far above any offered load: the admission path runs on
			// every request and never rejects one.
			in.tenants = append(in.tenants, server.TenantConfig{
				Name: "tenant-" + t, Key: fmt.Sprintf("key-%d-%s", seed, t),
				RatePerSec: 1e6, Burst: 1e6, MaxConcurrent: 256,
			})
		}
		in.tenantsPath = filepath.Join(dir, "tenants.json")
		if err := writeJSON(in.tenantsPath, map[string]any{"tenants": in.tenants}); err != nil {
			return nil, err
		}
		in.domainsPath = filepath.Join(dir, "domains.json")
		if err := writeJSON(in.domainsPath, in.domains); err != nil {
			return nil, err
		}
	}

	if err := in.buildRequests(); err != nil {
		return nil, err
	}
	return in, nil
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// located finds each gold in-KB mention's byte span. The generator writes
// sentences in mention order, so a forward scan for each surface after the
// previous one finds it; out-of-KB gold mentions are skipped but still
// advance the scan.
func (in *inputs) located(d wiki.Document) document {
	out := document{text: d.Text}
	pos := 0
	for _, m := range d.Mentions {
		i := strings.Index(d.Text[pos:], m.Surface)
		if i < 0 {
			continue
		}
		start := pos + i
		pos = start + len(m.Surface)
		if m.Entity == kb.NoEntity {
			continue
		}
		out.gold = append(out.gold, goldSpan{start: start, end: pos, entity: m.Entity})
		if out.context == nil {
			for _, kp := range in.world.KB.Entity(m.Entity).Keyphrases {
				if len(out.context) == 2 {
					break
				}
				out.context = append(out.context, kp.Phrase)
			}
		}
	}
	return out
}

// buildRequests renders the request bodies. On a tenanted workload every
// request carries one of the three API keys and asks for candidates, half
// carry a keyphrase context, a quarter name a domain and one in ten asks
// for confidence — all by document index, so the mix is the same for
// every seed.
func (in *inputs) buildRequests() error {
	wl := in.wl
	if wl.batch > 0 {
		for first := 0; first+wl.batch <= len(in.docs); first += wl.batch {
			b := batchBody{}
			for _, d := range in.docs[first : first+wl.batch] {
				b.Docs = append(b.Docs, d.text)
			}
			body, err := json.Marshal(b)
			if err != nil {
				return err
			}
			in.reqs = append(in.reqs, request{body: body, first: first, n: wl.batch})
		}
		return nil
	}
	for i, d := range in.docs {
		b := annotateBody{Text: d.text}
		key := ""
		if wl.tenanted {
			key = in.tenants[i%len(in.tenants)].Key
			b.Candidates = true
			if i%2 == 0 && len(d.context) > 0 {
				b.Context = &aida.ContextSpec{Keyphrases: d.context}
			}
			if i%4 == 1 {
				b.Domain = in.domains[(i/4)%len(in.domains)].Name
			}
			if i%10 == 3 {
				b.Confidence = &aida.ConfidenceSpec{Iterations: 10, Seed: int64(i)}
			}
		}
		body, err := json.Marshal(b)
		if err != nil {
			return err
		}
		in.reqs = append(in.reqs, request{body: body, key: key, first: i, n: 1})
	}
	return nil
}

// domainDictionaries builds two per-domain dictionaries over the world's
// first two domains: each promotes that domain's non-dominant senses of
// ambiguous surfaces, the re-weighting a vertical's dictionary exists for.
func (in *inputs) domainDictionaries() []kb.DomainDictionary {
	k := in.world.KB
	var dicts []kb.DomainDictionary
	for _, domain := range wiki.Domains()[:2] {
		dict := kb.DomainDictionary{Name: domain}
		for _, name := range in.ambiguous {
			cands := k.Candidates(name)
			for _, c := range cands[1:] {
				if e := k.Entity(c.Entity); e.Domain == domain {
					dict.Rows = append(dict.Rows, kb.DomainRow{Surface: name, Entity: e.Name, Count: cands[0].Count + 1})
					break
				}
			}
			if len(dict.Rows) == 40 {
				break
			}
		}
		dicts = append(dicts, dict)
	}
	return dicts
}

// deltaEntities is how many entities each generated delta adds.
const deltaEntities = 5

// delta returns generation g of the workload's delta chain, built against
// the entity count generation g-1 produced: five new entities named after
// the world's out-of-KB population (features borrowed from a popular
// entity of their domain, so all vocabulary already has base IDF weights),
// a dictionary row for the ambiguous surface each appears under, links to
// and from that popular entity, and one prior re-weight of an existing
// ambiguous surface.
func (in *inputs) delta(g int) *kb.Delta {
	if d, ok := in.deltas[g]; ok {
		return d
	}
	k := in.world.KB
	base := k.NumEntities() + g*deltaEntities
	d := &kb.Delta{BaseEntities: base}
	for i := 0; i < deltaEntities; i++ {
		ooe := in.world.OOE[(g*deltaEntities+i)%len(in.world.OOE)]
		hot := in.hotEntities(ooe.Domain)
		src := k.Entity(hot[(g+i)%len(hot)])
		ne := kb.NewEntity{
			// The generation suffix keeps names unique should the chain ever
			// wrap around the out-of-KB population.
			Name:   fmt.Sprintf("%s g%d", ooe.Name, g),
			Domain: ooe.Domain, Types: []string{"emerging"},
			Keyphrases:  slices.Clone(src.Keyphrases[:min(4, len(src.Keyphrases))]),
			KeywordNPMI: map[string]float64{},
		}
		words := slices.Sorted(maps.Keys(src.KeywordNPMI))
		for _, w := range words[:min(6, len(words))] {
			ne.KeywordNPMI[w] = src.KeywordNPMI[w]
		}
		id := kb.EntityID(base + i)
		d.Entities = append(d.Entities, ne)
		d.Rows = append(d.Rows, kb.RowAddition{Surface: ooe.Surface, Entity: id, Count: 3})
		d.Links = append(d.Links, kb.LinkAddition{Src: id, Dst: src.ID}, kb.LinkAddition{Src: src.ID, Dst: id})
	}
	if len(in.ambiguous) > 0 {
		name := in.ambiguous[g%len(in.ambiguous)]
		d.Rows = append(d.Rows, kb.RowAddition{Surface: name, Entity: k.Candidates(name)[1].Entity, Count: 1 + g%3})
	}
	in.deltas[g] = d
	return d
}

func (in *inputs) hotEntities(domain string) []kb.EntityID {
	if ids, ok := in.hot[domain]; ok {
		return ids
	}
	ids := in.world.PopularEntities(domain, 8)
	if len(ids) == 0 {
		ids = []kb.EntityID{0}
	}
	in.hot[domain] = ids
	return ids
}

// serverArgs is the aidaserver command line for the workload, reading the
// generated files. journalCopy is this boot's private copy of the journal.
func (in *inputs) serverArgs(journalCopy string) []string {
	args := []string{"-kb", in.kbPath, "-max-candidates", fmt.Sprint(maxCandidates), "-shards", fmt.Sprint(in.wl.shards)}
	if in.wl.journal > 0 {
		args = append(args, "-delta-journal", journalCopy)
	}
	if in.wl.tenanted {
		args = append(args, "-tenants", in.tenantsPath, "-domains", in.domainsPath)
	}
	return args
}

// freshJournal copies the pristine journal for one boot, so every boot
// replays exactly the generated deltas however many the last one appended.
func (in *inputs) freshJournal(boot int) (string, error) {
	if in.journalPath == "" {
		return "", nil
	}
	data, err := os.ReadFile(in.journalPath)
	if err != nil {
		return "", err
	}
	path := filepath.Join(in.dir, fmt.Sprintf("journal.%d", boot))
	return path, os.WriteFile(path, data, 0o644)
}
