// Package conformance turns the paper's theorems into executable
// oracles and runs them over a versioned golden trace corpus, giving
// the repository a machine-checkable answer to "does the learner still
// implement Feng et al. (DATE 2007)?" that goes beyond the pinned
// Figure-2 derivations.
//
// # Oracles
//
// Each oracle is a pure function from inputs to a list of Violations;
// an empty list means the property held. The properties checked are
//
//   - Theorem 2 soundness (oracle "thm2"): in exact mode, after every
//     processed period some live hypothesis is generalized by the true
//     dependency function (∃h : h ⊑ d_true). The true function is
//     computed from the generating design model by exhaustively
//     enumerating disjunction resolutions (see TruthFromModel).
//   - Theorem 3 completeness (oracle "thm3", corpus-independent): on
//     seeded three-task designs (thm3Trace) every one of the 7⁶
//     dependency functions is run through depfunc.MatchTrace, and the
//     exact result must equal the ⊑-minimal elements of the
//     consistent set; every hypothesis the bounded heuristic returns
//     at bounds 1, 2 and 4 must dominate some exact result.
//   - Bound monotonicity (oracle "bound"): the bounded heuristic's
//     recommended answer generalizes the exact answer
//     (LUB_exact ⊑ LUB_bound for every configured bound), and larger
//     search budgets never produce answers the exact result does not
//     generalize into.
//   - Lattice laws (oracle "lattice"): LUB/GLB commutativity,
//     associativity, idempotence, absorption, agreement with an
//     independent Leq-based recomputation, and consistency of the
//     Figure-3 weight metric (Distance ∈ {0,1,4,9}, strictly monotone
//     on the order) — checked exhaustively over all 7×7(×7) value
//     combinations.
//   - Merge weight monotonicity (part of "lattice"): the weight of a
//     least-upper-bound merge never undercuts either operand,
//     w(a ⊔ b) ≥ max(w(a), w(b)).
//   - Fingerprint/Key agreement (oracle "fingerprint"): over
//     deterministic random mutation walks, two dependency functions
//     have equal canonical Keys iff Equal reports them equal, equal
//     Keys imply equal Zobrist fingerprints, and the incrementally
//     maintained fingerprint never drifts from a from-scratch
//     recomputation (witnessed through a rebuilt clone).
//   - Metamorphic invariances (oracle "metamorphic"): the learned
//     result is invariant under uniform message relabeling, uniform
//     time translation, and — in exact mode, where the model of
//     computation makes the hypothesis space order-independent —
//     permutation of the period sequence.
//
// # Corpus
//
// The golden corpus lives under testdata/corpus/ at the repository
// root: one directory per entry holding a trace in the text format, an
// optional ground-truth dependency table, and a JSON manifest naming
// the oracles that apply. The corpus is versioned by a VERSION file;
// see TESTING.md for the layout and versioning rules. Sim-generated
// entries are reproducible: the manifest records the generator name
// and seed, and `bbconform -gen` rewrites the whole corpus
// deterministically.
//
// # Runner
//
// Run executes every applicable oracle over every corpus entry plus
// the corpus-independent oracles, producing a Report that serializes
// to JSON (the conformance report emitted by cmd/bbconform). Smoke
// injects deliberate faults — a demoted ground-truth entry, a
// non-least upper bound — and fails unless the oracles catch them,
// guarding the harness itself against rot.
package conformance
