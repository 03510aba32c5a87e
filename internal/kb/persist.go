package kb

import (
	"encoding/gob"
	"io"
)

// snapshot is the serialized form of a KB. All derived statistics are
// persisted so a loaded KB is byte-for-byte equivalent to the built one.
type snapshot struct {
	Entities  []Entity
	Dict      map[string][]nameEntry
	PhraseIDF map[string]float64
	WordIDF   map[string]float64
}

// Save writes the KB to w in gob format.
func (k *KB) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(snapshot{
		Entities:  k.entities,
		Dict:      k.dict,
		PhraseIDF: k.phraseIDF,
		WordIDF:   k.wordIDF,
	})
}

// Load reads a KB previously written with Save.
func Load(r io.Reader) (*KB, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	k := &KB{
		entities:  s.Entities,
		dict:      s.Dict,
		phraseIDF: s.PhraseIDF,
		wordIDF:   s.WordIDF,
		byName:    make(map[string]EntityID, len(s.Entities)),
	}
	for i := range k.entities {
		k.byName[k.entities[i].Name] = k.entities[i].ID
	}
	return k.finish(), nil
}
