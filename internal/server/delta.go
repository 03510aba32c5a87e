package server

import (
	"net/http"

	"aida/internal/kb"
)

// deltaResponse is the body of a successful POST /v1/admin/kb/delta.
type deltaResponse struct {
	// Generation is the KB generation now serving.
	Generation uint64 `json:"generation"`
	// Entities/Rows/Links count the delta's additions; Touched is how
	// many pre-existing entities had their link sets extended.
	Entities int `json:"entities"`
	Rows     int `json:"rows"`
	Links    int `json:"links"`
	Touched  int `json:"touched"`
	// KBEntities is the repository size after the apply.
	KBEntities int `json:"kb_entities"`
	// Journaled reports whether the delta was durably recorded (always
	// false when the server runs without -delta-journal; false with a
	// logged error when the append failed — the apply itself stands).
	Journaled bool `json:"journaled"`
}

// handleDeltaApply installs a live KB delta into the serving system: the
// body is the kb.Delta wire form, validation failures are 400s, and a
// successful apply swaps the serving generation atomically — the very next
// annotation request can link the new entities by name. The journal pairs
// the apply with its append (live.Journal.Apply), so concurrent admin
// requests are recorded in the order they were applied.
func (s *Server) handleDeltaApply(w http.ResponseWriter, r *http.Request) {
	if s.clientGone(w, r) {
		return
	}
	var d kb.Delta
	if !s.decodeBody(w, r, &d) {
		return
	}
	receipt, jerr, err := s.cfg.DeltaJournal.Apply(s.sys, &d)
	if err != nil {
		writeError(w, http.StatusBadRequest, "delta rejected: "+err.Error())
		return
	}
	journaled := s.cfg.DeltaJournal != nil && jerr == nil
	if jerr != nil {
		// The generation already swapped; losing the journal entry costs
		// replay durability, not serving correctness. Surface it loudly.
		s.log.Error("delta journal append failed", "err", jerr)
	}
	s.log.Info("kb delta applied",
		"generation", receipt.Generation,
		"entities", receipt.Entities,
		"rows", receipt.Rows,
		"links", receipt.Links,
		"touched", receipt.Touched,
		"kb_entities", receipt.KBEntities,
		"journaled", journaled,
	)
	writeJSON(w, http.StatusOK, deltaResponse{
		Generation: receipt.Generation,
		Entities:   receipt.Entities,
		Rows:       receipt.Rows,
		Links:      receipt.Links,
		Touched:    receipt.Touched,
		KBEntities: receipt.KBEntities,
		Journaled:  journaled,
	})
}
