package kb

import (
	"encoding/json"
	"fmt"
	"os"
)

// Per-domain dictionary layers (ProtagonistTagger-style): NewDomainLayer
// composes a domain-specific surface→entity dictionary over any base
// Store, so a request annotated "in" a domain (literary texts, sports
// wires, a tenant's vertical) sees domain-appropriate priors — "The Bulls"
// meaning the team, not the animal — without rebuilding or forking the
// knowledge base. The layer is a copy-on-write Overlay: a dictionary is
// lowered to a rows-only Delta, so every conformance guarantee the
// live-update suite pins (priors rematerialized through candidatesFrom,
// byte-identical to a full rebuild) carries over for free.

// DomainRow is one surface→entity count assertion of a domain dictionary.
// Entity names the target by its canonical KB name — dictionaries are
// authored against names, not generation-specific ids.
type DomainRow struct {
	Surface string `json:"surface"`
	Entity  string `json:"entity"`
	// Count is the anchor-count mass added to the row; it folds into the
	// base counts, so a large count makes the entity the domain's dominant
	// sense of the surface. Must be positive.
	Count int `json:"count"`
}

// DomainDictionary is one named per-domain surface→entity dictionary, the
// unit of the server's -domains domains.json file.
type DomainDictionary struct {
	Name string      `json:"name"`
	Rows []DomainRow `json:"rows"`
}

// NewDomainLayer resolves a domain dictionary against the base store and
// composes it as a copy-on-write layer: an Overlay built from a rows-only
// Delta, so dictionary rows the domain touches carry merged counts with
// priors recomputed exactly as a rebuild would, and every other read
// passes through to the base. Rows must name existing entities (a domain
// dictionary re-weights senses, it does not create entities) and carry
// positive counts.
func NewDomainLayer(base Store, dict DomainDictionary) (*Overlay, error) {
	if dict.Name == "" {
		return nil, fmt.Errorf("kb: domain dictionary has no name")
	}
	if len(dict.Rows) == 0 {
		return nil, fmt.Errorf("kb: domain %q has no rows", dict.Name)
	}
	d := &Delta{BaseEntities: base.NumEntities(), Rows: make([]RowAddition, len(dict.Rows))}
	for i, r := range dict.Rows {
		id, ok := base.EntityByName(r.Entity)
		if !ok {
			return nil, fmt.Errorf("kb: domain %q row %d: unknown entity %q", dict.Name, i, r.Entity)
		}
		d.Rows[i] = RowAddition{Surface: r.Surface, Entity: id, Count: r.Count}
	}
	ov, err := NewOverlay(base, d)
	if err != nil {
		return nil, fmt.Errorf("kb: domain %q: %w", dict.Name, err)
	}
	return ov, nil
}

// domainsFile is the JSON shape of a -domains file: either a bare array of
// dictionaries or an object with a "domains" key.
type domainsFile struct {
	Domains []DomainDictionary `json:"domains"`
}

// ParseDomainDictionaries decodes a domains.json payload: a bare array
// `[{"name": ..., "rows": [...]}, ...]` or an object `{"domains": [...]}`.
// Names must be non-empty and unique; row validation against a store
// happens in NewDomainLayer.
func ParseDomainDictionaries(data []byte) ([]DomainDictionary, error) {
	var dicts []DomainDictionary
	if err := json.Unmarshal(data, &dicts); err != nil {
		var f domainsFile
		if err2 := json.Unmarshal(data, &f); err2 != nil {
			return nil, fmt.Errorf("kb: parse domains: %w", err)
		}
		dicts = f.Domains
	}
	if len(dicts) == 0 {
		return nil, fmt.Errorf("kb: domains file defines no domains")
	}
	seen := make(map[string]bool, len(dicts))
	for i, d := range dicts {
		if d.Name == "" {
			return nil, fmt.Errorf("kb: domain %d has no name", i)
		}
		if seen[d.Name] {
			return nil, fmt.Errorf("kb: domain %q defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	return dicts, nil
}

// LoadDomainDictionaries reads and validates a domains.json file (the
// -domains flag of cmd/aidaserver and cmd/aida).
func LoadDomainDictionaries(path string) ([]DomainDictionary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dicts, err := ParseDomainDictionaries(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return dicts, nil
}
