package relatedness

import (
	"fmt"
	"strings"
)

// Kind selects one of the implemented relatedness measures.
type Kind int

// The measures evaluated in Chapter 4 (Tables 4.2/4.3).
const (
	KindMW       Kind = iota // Milne–Witten in-link overlap
	KindKWCS                 // keyword cosine
	KindKPCS                 // keyphrase cosine
	KindKORE                 // exact keyphrase overlap relatedness
	KindKORELSHG             // KORE with recall-oriented LSH pre-clustering
	KindKORELSHF             // KORE with precision-oriented LSH pre-clustering
)

// String returns the measure name as used in the dissertation's tables.
func (k Kind) String() string {
	switch k {
	case KindMW:
		return "MW"
	case KindKWCS:
		return "KWCS"
	case KindKPCS:
		return "KPCS"
	case KindKORE:
		return "KORE"
	case KindKORELSHG:
		return "KORE-LSH-G"
	case KindKORELSHF:
		return "KORE-LSH-F"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// numKinds is the number of defined measure kinds (per-kind stats arrays
// are indexed by Kind).
const numKinds = int(KindKORELSHF) + 1

// IsLSH reports whether the measure pre-filters pairs with LSH.
func (k Kind) IsLSH() bool { return k == KindKORELSHG || k == KindKORELSHF }

// Valid reports whether k is one of the defined measure kinds.
func (k Kind) Valid() bool { return k >= 0 && int(k) < numKinds }

// ParseKind resolves a measure name as printed by Kind.String ("MW",
// "KWCS", "KPCS", "KORE", "KORE-LSH-G", "KORE-LSH-F"), case-insensitively.
func ParseKind(name string) (Kind, error) {
	for k := Kind(0); int(k) < numKinds; k++ {
		if strings.EqualFold(name, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown relatedness kind %q", name)
}
