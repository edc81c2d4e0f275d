package specio

import (
	"sort"

	"momosyn/internal/model"
)

// Canonical renders the system in its canonical byte form, the basis of
// content-addressed result keys (internal/cas): two specification texts
// that parse to the same model — reordered independent declarations,
// comment and whitespace differences, attribute-order permutations,
// unnormalised probabilities — canonicalise to identical bytes, and two
// texts that parse to different models canonicalise to different bytes,
// because the form reads back to exactly the model it renders, every float
// bit for bit (FuzzCanonical and TestCanonicalExactModel pin this).
//
// The canonical form is the Write emission of the parsed model (probability
// normalisation and unit resolution already happened in the reader), with
// the one model-order-insensitive section — the transition set, which the
// engine treats as an unordered constraint set — sorted by (from, to) mode
// index. Everything else keeps model order deliberately: PE, implementation,
// mode and task declaration order all shape the genome encoding and hence
// the deterministic search trajectory, so specs that differ there must key
// differently. Canonical is idempotent: parsing its output and
// canonicalising again reproduces the same bytes (FuzzCanonical pins this).
func Canonical(sys *model.System) ([]byte, error) {
	return appendSpec(nil, sortTransitions(sys)), nil
}

// sortTransitions returns sys with its transitions in model.TransitionLess
// order, the one order Canonical emits.
func sortTransitions(sys *model.System) *model.System {
	app := sys.App
	if len(app.Transitions) < 2 {
		return sys
	}
	trans := make([]model.Transition, len(app.Transitions))
	copy(trans, app.Transitions)
	// Duplicate (from,to) pairs are legal (tightest max wins in the
	// engine); MaxTime makes the order total so sorting is stable under
	// input permutation.
	sort.SliceStable(trans, func(i, j int) bool { return model.TransitionLess(trans[i], trans[j]) })
	return sys.WithApp(&model.OMSM{Name: app.Name, Modes: app.Modes, Transitions: trans})
}

// CanonicalBytes parses a specification text and returns its canonical
// byte form (reader warnings, e.g. probability normalisation, are applied
// silently — the canonical form is the normalised system).
func CanonicalBytes(spec []byte) ([]byte, error) {
	sys, _, err := ReadWarnString(string(spec))
	if err != nil {
		return nil, err
	}
	return Canonical(sys)
}
