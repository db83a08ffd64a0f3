// Package label implements the Asbestos label algebra (paper §5).
//
// A label is a total function from handles to levels, represented as a
// finite set of (handle, level) entries plus a default level that applies to
// every handle not mentioned. Levels form the ordered set [⋆, 0, 1, 2, 3]
// where ⋆ is the lowest (most privileged) level: a process with level ⋆ for
// handle h controls compartment h and can declassify data in it.
//
// Labels form a lattice under the pointwise order ⊑ (Leq), with pointwise
// max as least upper bound ⊔ (Lub) and pointwise min as greatest lower bound
// ⊓ (Glb).
//
// Two implementations are provided. Label is the optimized representation
// from paper §5.6: a sorted array of chunks, each a sorted array of packed
// 64-bit entries, with cached min/max levels enabling fast-path comparisons,
// shared structurally between labels (copy-on-write). Simple is a map-based
// reference implementation used by property tests to validate Label.
//
// Next to the paper's bounds, every chunk and every label caches its level
// set: the levels its explicit entries take. The lattice operations take
// their pointwise predicate or operation as a 5×5 table over levels, so a
// chunk that lies wholly between two entries of the other operand is
// judged, shared or mapped as one unit, and a label pair whose level sets
// and defaults already decide a predicate is not walked at all. An
// operation costs time in proportion to where its operands interleave,
// not to their size, and a result shares every chunk it leaves unchanged.
package label

import "strconv"

// Level is one of the five Asbestos privilege levels.
//
// In send labels, ⋆ marks declassification privilege, 1 is the default
// ("untainted"), 2 is partial taint and 3 full taint; 0 carries integrity
// privilege that is lost on contact with ordinary processes (§5.4). In
// receive labels, 3 grants the right to be tainted arbitrarily, 2 is the
// default, and lower levels refuse taint.
type Level uint8

const (
	// Star (⋆) is the lowest, most privileged level: declassification
	// privilege with respect to a handle.
	Star Level = iota
	// L0 supports integrity policies and capabilities.
	L0
	// L1 is the default level for send labels.
	L1
	// L2 is the default level for receive labels.
	L2
	// L3 is the highest (least privileged) level: full taint in send
	// labels, full clearance in receive labels.
	L3

	numLevels = 5
)

// DefaultSend and DefaultRecv are the label defaults for freshly created
// processes (paper §5.1): send labels default to 1, receive labels to 2.
// The gap between the two defaults is what lets Asbestos express both
// "deny by default" (taint at 3) and "allow by default" (taint at 2)
// policies without relabeling the whole system.
const (
	DefaultSend = L1
	DefaultRecv = L2
)

// Valid reports whether l is one of the five defined levels.
func (l Level) Valid() bool { return l < numLevels }

func (l Level) String() string {
	switch l {
	case Star:
		return "*"
	case L0, L1, L2, L3:
		return strconv.Itoa(int(l) - 1)
	default:
		return "invalid(" + strconv.Itoa(int(l)) + ")"
	}
}

// ParseLevel parses "*", "0", "1", "2" or "3".
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "*":
		return Star, true
	case "0":
		return L0, true
	case "1":
		return L1, true
	case "2":
		return L2, true
	case "3":
		return L3, true
	}
	return 0, false
}

func maxLevel(a, b Level) Level {
	if a > b {
		return a
	}
	return b
}

func minLevel(a, b Level) Level {
	if a < b {
		return a
	}
	return b
}

// starProject is the per-handle form of the L⋆ operator (paper Figure 3):
// ⋆ stays ⋆, everything else becomes 3.
func starProject(l Level) Level {
	if l == Star {
		return Star
	}
	return L3
}
