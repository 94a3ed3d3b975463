//===- Crf.h - Conditional random field over program elements ---*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conditional random field over program elements, used exactly as
/// Raychev et al. [40] use Nice2Predict but with AST paths as factors
/// (§3.1, §5.1). Differences from stock Nice2Predict are the paper's two
/// extensions: unary factors (paths between occurrences of the same
/// element, worth ~1.5% accuracy) and a top-k candidates API.
///
/// Nodes are program elements: *unknown* nodes carry the labels to
/// predict (merged across all their occurrences), *known* nodes carry
/// fixed labels (literals, API names, ancestor kinds of semi-paths).
/// Pairwise factors are abstract path-contexts between two elements;
/// unary factors are paths between two occurrences of one element.
///
/// Training is an averaged structured perceptron (a max-margin flavoured
/// online learner); MAP inference is iterated conditional ascent over
/// candidate labels, with candidates proposed from per-context tables
/// learned during training — the same regime Nice2Predict uses.
///
/// Feature reads are hashed: the perceptron's live WeightTable and the
/// trained model's frozen weight and candidate tables (FrozenCrf, stored
/// as-is in a bundle and read in place from a mapping) are open-addressed
/// linear-probe tables sharing one probe(), so training, prediction,
/// top-k, explain and eval look up a feature in one probe sequence.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_ML_CRF_CRF_H
#define PIGEON_ML_CRF_CRF_H

#include "ast/Ast.h"
#include "paths/Paths.h"
#include "support/StringInterner.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace pigeon {
namespace crf {

/// One CRF node: a program element (unknown, label to be predicted) or a
/// fixed-context value (known).
struct GraphNode {
  /// Ground-truth label (element name / type / fixed context value).
  Symbol Gold;
  /// Known nodes keep their label during inference.
  bool Known = true;
  /// Originating program element, when the node stems from one.
  ast::ElementId Element = ast::InvalidElement;
};

/// A factor connecting one or two nodes through an abstracted AST path.
struct Factor {
  uint32_t A = 0;
  uint32_t B = 0;
  paths::PathId Path = paths::InvalidPath;
  /// Unary factors (A == B) connect two occurrences of the same element.
  bool Unary = false;
};

struct Incidence;

/// The CRF for one program.
struct CrfGraph {
  std::vector<GraphNode> Nodes;
  std::vector<Factor> Factors;
  /// Indices of unknown nodes, in deterministic order.
  std::vector<uint32_t> Unknowns;

  /// Factor indices incident to each node.
  Incidence incidence() const;
};

/// Node-to-factor incidence in compressed sparse row form: node N's
/// factors are Index[Offsets[N], Offsets[N + 1]), in ascending factor
/// order (the order every score sums its terms in). A unary factor, or
/// any factor with A == B, is listed once.
struct Incidence {
  std::vector<uint32_t> Offsets; ///< Nodes.size() + 1 entries, [0] == 0.
  std::vector<uint32_t> Index;   ///< Factor indices, grouped by node.

  std::span<const uint32_t> of(uint32_t Node) const {
    return {Index.data() + Offsets[Node], Index.data() + Offsets[Node + 1]};
  }
};

/// Candidate labels with their scores, strongest first (ties by label
/// index): what CrfModel::topK() returns for one unknown.
using Ranking = std::vector<std::pair<Symbol, double>>;

/// What inference leaves of one graph (CrfModel::predictBatch()). Asked
/// for labels only (K <= 0), it holds just the Assignment.
struct Inference {
  /// One label per node: exactly CrfModel::predict()'s.
  std::vector<Symbol> Assignment;
  /// Per entry of Graph.Unknowns, its top-K candidates scored under
  /// Assignment: exactly CrfModel::topK(Graph, N, Assignment, K), bit for
  /// bit.
  std::vector<Ranking> Ranked;
  /// The graph's incidence, built once for inference and ranking;
  /// explain() reads it too.
  Incidence Inc;
};

/// Selects which elements a task predicts (unknown nodes). Everything
/// else becomes known context.
using ElementSelector = std::function<bool(const ast::ElementInfo &)>;

/// One path-context with its ends resolved to what graph assembly reads:
/// an end's element id (if any) and its value symbol. For semi-paths
/// EndElem is invalid and EndValue is the ancestor's *kind* symbol (the
/// known pseudo-node label); otherwise EndValue is the terminal's value,
/// used only when the end has no element. Records need no tree, so the
/// contexts artifact stores them and graphs assemble without an AST.
struct ContextRecord {
  paths::PathId Path = paths::InvalidPath;
  ast::ElementId StartElem = ast::InvalidElement;
  Symbol StartValue;
  ast::ElementId EndElem = ast::InvalidElement;
  Symbol EndValue;
  bool Semi = false;
};

/// One 3-wise context: the path plus each end's element and value.
struct TriRecord {
  paths::PathId Path = paths::InvalidPath;
  ast::ElementId Elem[3] = {ast::InvalidElement, ast::InvalidElement,
                            ast::InvalidElement};
  Symbol Value[3];
};

/// Resolves \p Contexts, extracted from \p Tree, into records.
std::vector<ContextRecord>
contextRecords(const ast::Tree &Tree,
               const std::vector<paths::PathContext> &Contexts);

/// Resolves \p Contexts, extracted from \p Tree, into records.
std::vector<TriRecord>
triRecords(const ast::Tree &Tree,
           const std::vector<paths::TriContext> &Contexts);

/// Builds the CRF of one program from its element table and its context
/// records: the one graph builder. Ends of selected elements merge into
/// one unknown node per element; other ends merge into known nodes by
/// element or by value (a semi-path's ancestor end by its kind). Factors
/// between two known nodes are dropped; a context between two
/// occurrences of one element becomes a unary factor.
CrfGraph buildGraph(std::span<const ast::ElementInfo> Elements,
                    std::span<const ContextRecord> Contexts,
                    const ElementSelector &Selector);

/// buildGraph() over a tree and its extracted path-contexts.
CrfGraph buildGraph(const ast::Tree &Tree,
                    const std::vector<paths::PathContext> &Contexts,
                    const ElementSelector &Selector);

/// Builds a single-unknown CRF for the full-type task: \p Target is the
/// expression node whose type (its tree annotation) is the label, and
/// \p Contexts are leaf-to-target paths.
CrfGraph buildTypeGraph(const ast::Tree &Tree, ast::NodeId Target,
                        const std::vector<paths::PathContext> &Contexts);

/// Appends factors for 3-wise path-contexts (§4's n-wise generalization)
/// to \p Graph, built by buildGraph() over the same \p Elements. A triple
/// with exactly one unknown end becomes a factor between the unknown and
/// a composite known node labelled by the two known end values joined
/// with "+" (interned into \p Interner, the records' symbol space); other
/// triples carry no usable signal for the pairwise CRF and are skipped.
void addTriFactors(CrfGraph &Graph, std::span<const ast::ElementInfo> Elements,
                   std::span<const TriRecord> Contexts,
                   const ElementSelector &Selector, StringInterner &Interner);

/// addTriFactors() over a tree whose symbols live in \p Interner.
void addTriFactors(CrfGraph &Graph, const ast::Tree &Tree,
                   const std::vector<paths::TriContext> &Contexts,
                   const ElementSelector &Selector,
                   StringInterner &Interner);

/// Training/inference configuration.
struct CrfConfig {
  int Epochs = 4;
  int InferencePasses = 3;
  /// Candidate labels retained per (path, direction, neighbour) context.
  int CandidatesPerContext = 12;
  /// Global most-frequent-label fallback candidates.
  int GlobalCandidates = 8;
  double LearningRate = 1.0;
  /// Include pairwise factors between two unknown nodes (joint
  /// inference). Ablatable; unary factors are controlled separately.
  bool UnknownUnknownFactors = true;
  /// Include unary factors (the paper's §5.1 extension). Ablatable.
  bool UnaryFactors = true;
  /// Per-epoch multiplicative L2 shrinkage (0 disables). Regularizes the
  /// perceptron so high-degree noisy features cannot accumulate.
  double L2Shrink = 0.0;
  /// Weight of the empirical candidate vote P(label | contexts) added to
  /// the factor score. Acts as a generative prior that stabilizes
  /// synonym choice; the perceptron weights learn the correction.
  double VotePrior = 1.0;
  /// Additive pseudo-count in the vote denominator: a context seen once
  /// votes 1/(1+smoothing) rather than 1.0, so rare highly-specific paths
  /// cannot cast confident arbitrary votes.
  double VoteSmoothing = 3.0;
  /// Minimum *lift* of a path: the average max-label share of its
  /// training contexts divided by the marginal max-label share. Paths
  /// whose contexts are no more concentrated than the label marginal
  /// (typically long-distance cross-unit paths) carry no naming signal
  /// and are pruned — the feature-selection analogue of the
  /// regularization a batch-trained CRF applies. 0 disables.
  double MinPathLift = 0.0;
};

/// One AST path's contribution to a label's score: the factor-weight part
/// plus the empirical-vote part, aggregated over every incident factor
/// sharing (Path, Unary, Neighbor). This is the provenance unit — the
/// per-path evidence the path-based representation makes inspectable by
/// construction.
struct Attribution {
  paths::PathId Path = paths::InvalidPath;
  /// Total contribution: VotePrior × Vote + Weight.
  double Score = 0;
  /// Learned factor-weight part (pair or unary feature weights).
  double Weight = 0;
  /// Empirical candidate-vote part, P(label | context) mass.
  double Vote = 0;
  bool Unary = false;
  /// Label at the factor's other end (invalid for unary factors).
  Symbol Neighbor;
};

/// Full decomposition of one node/label score. The invariant
/// Total == Bias + Σ Paths[i].Score == the topK() score of (Node, Label)
/// is what makes the report trustworthy (pinned by provenance_test).
struct NodeExplanation {
  Symbol Label;
  double Total = 0;
  double Bias = 0;
  /// Strongest contributions first (by |Score|, ties by Path id). When
  /// truncated to k entries, Total still reflects *all* paths.
  std::vector<Attribution> Paths;
};

//===----------------------------------------------------------------------===//
// Hashed tables
//===----------------------------------------------------------------------===//

/// The one probe every hashed feature table of the model uses: open
/// addressing with linear probing over the Mask + 1 slots at \p Slots
/// (Mask + 1 a power of two), starting at Key & Mask. Key 0 marks an
/// empty slot, so \p Key must be nonzero; every table keeps key 0 in a
/// slot of its own. The probe visits at most Mask + 1 slots, so even a
/// table with no empty slot (a hostile mapped one) terminates.
/// \returns the slot holding \p Key, else the empty slot that ends its
/// probe sequence (where an insertion puts it), else nullptr.
template <typename Slot>
Slot *probe(Slot *Slots, uint64_t Mask, uint64_t Key) {
  uint64_t I = Key & Mask;
  for (uint64_t Step = 0; Step <= Mask; ++Step, I = (I + 1) & Mask)
    if (Slots[I].Key == Key || Slots[I].Key == 0)
      return Slots + I;
  return nullptr;
}

/// One slot of a frozen weight table.
struct WeightSlot {
  uint64_t Key = 0;
  double Weight = 0;
};

/// One slot of a frozen candidate table: the context's (label, count)
/// list is pairs [First, First + Count) of the pair array.
struct CandSlot {
  uint64_t Key = 0;
  uint32_t First = 0;
  uint32_t Count = 0;
};

/// A read-only hashed table laid out as train() freezes it and bundle v4
/// stores it: Mask + 1 probed slots (a power of two, at most 3/4 full),
/// then one more slot for key 0 whose Key field is 1 when key 0 is
/// stored and 0 when it is not.
template <typename Slot> struct FrozenTable {
  const Slot *Slots = nullptr; ///< Mask + 2 slots.
  uint64_t Mask = 0;

  uint64_t numSlots() const { return Mask + 2; }

  /// \returns the slot of \p Key, nullptr when absent.
  const Slot *find(uint64_t Key) const {
    if (Key == 0)
      return Slots[Mask + 1].Key != 0 ? Slots + Mask + 1 : nullptr;
    const Slot *S = probe(Slots, Mask, Key);
    return S && S->Key == Key ? S : nullptr;
  }
};

/// Lays \p Entries (distinct keys, any order) out as a FrozenTable's
/// slots: the keys go in ascending order into the smallest power-of-two
/// table at most 3/4 full. The bytes are thus a function of the entry set
/// alone, whatever order it was gathered in.
template <typename Slot>
std::vector<Slot> freezeTable(std::vector<Slot> Entries) {
  std::sort(Entries.begin(), Entries.end(),
            [](const Slot &A, const Slot &B) { return A.Key < B.Key; });
  bool HasZero = !Entries.empty() && Entries.front().Key == 0;
  size_t Probed = Entries.size() - (HasZero ? 1 : 0);
  size_t Cap = 1;
  while (Probed * 4 > Cap * 3)
    Cap *= 2;
  std::vector<Slot> Slots(Cap + 1);
  for (const Slot &E : Entries) {
    if (E.Key == 0) {
      Slots[Cap] = E;
      Slots[Cap].Key = 1; // Key 0 is stored.
      continue;
    }
    *probe(Slots.data(), Cap - 1, E.Key) = E;
  }
  return Slots;
}

/// Flat, position-independent image of a model's learned state: the
/// hashed weight and candidate tables, each context's (label, count)
/// pairs, and the sorted pruned paths and global labels. It is the
/// model's only representation. train() builds one into an owned
/// FlatCrf, and bundle format v4 lays the same arrays into the file, so a
/// mapped bundle hands the section pointers to CrfModel::adoptFrozen()
/// and serves without deserializing anything.
struct FrozenCrf {
  FrozenTable<WeightSlot> Weights;
  uint64_t NumWeights = 0; ///< Stored weights, key 0 included.
  FrozenTable<CandSlot> Cands;
  uint64_t NumCands = 0;                ///< Stored contexts.
  const uint32_t *CandPairs = nullptr;  ///< (label index, count) uint32
                                        ///< pairs: lists in ascending
                                        ///< context-key order, each in
                                        ///< trained rank order (vote order
                                        ///< matters).
  uint64_t NumCandPairs = 0;            ///< Pairs, not uint32s.
  const uint64_t *PrunedKeys = nullptr; ///< Pruned path ids, sorted.
  uint64_t NumPruned = 0;
  const uint32_t *GlobalTop = nullptr;  ///< Label indices, rank order.
  uint32_t NumGlobal = 0;
};

/// Owning storage for a FrozenCrf: the arrays train() fills. An empty
/// image still holds two empty one-slot tables (plus their key-0 slots).
struct FlatCrf {
  std::vector<WeightSlot> Weights = freezeTable<WeightSlot>({});
  uint64_t NumWeights = 0;
  std::vector<CandSlot> Cands = freezeTable<CandSlot>({});
  uint64_t NumCands = 0;
  std::vector<uint32_t> CandPairs;
  std::vector<uint64_t> PrunedKeys;
  std::vector<uint32_t> GlobalTop;

  /// A view of these arrays, valid until one of them changes.
  FrozenCrf view() const;
};

/// The feature weights the perceptron updates while train() runs: an
/// open-addressed table keyed by the (already finalized, well-mixed)
/// feature hash and read through the same probe() as the frozen tables,
/// each slot carrying the weight and the perceptron's averaging total.
/// Capacity is a power of two kept at most 3/4 full; key 0 marks an
/// empty slot, so a real key 0 lives in a slot of its own.
class WeightTable {
public:
  struct Entry {
    uint64_t Key = 0;
    double Weight = 0;
    double Total = 0; ///< Σ time × update, for averaging.
  };

  size_t size() const { return Count + (HasZero ? 1 : 0); }

  /// \returns the weight of \p Key, 0.0 when absent.
  double weight(uint64_t Key) const {
    if (Key == 0)
      return HasZero ? Zero.Weight : 0.0;
    if (Slots.empty())
      return 0.0;
    const Entry *E = probe(Slots.data(), Mask, Key);
    return E && E->Key == Key ? E->Weight : 0.0;
  }

  /// \returns the entry of \p Key, inserting a zeroed one when absent
  /// (\p Inserted tells which). The reference is valid until the next
  /// insertion.
  Entry &findOrInsert(uint64_t Key, bool &Inserted);
  Entry &findOrInsert(uint64_t Key) {
    bool Inserted;
    return findOrInsert(Key, Inserted);
  }

  /// Calls \p F on every entry exactly once, in unspecified order.
  template <typename Fn> void forEach(Fn &&F) { visit(*this, F); }
  template <typename Fn> void forEach(Fn &&F) const { visit(*this, F); }

private:
  template <typename Self, typename Fn> static void visit(Self &T, Fn &F) {
    if (T.HasZero)
      F(T.Zero);
    for (auto &E : T.Slots)
      if (E.Key != 0)
        F(E);
  }

  std::vector<Entry> Slots;
  size_t Mask = 0;
  size_t Count = 0; ///< Occupied slots (key 0 excluded).
  Entry Zero;
  bool HasZero = false;

  void grow();
};

/// The learned model. Every read goes through its flat image: the one
/// train() built, or the mapped sections adoptFrozen() was handed.
class CrfModel {
public:
  explicit CrfModel(CrfConfig Config = CrfConfig());

  /// Trains on \p Graphs (gold labels in GraphNode::Gold) and replaces
  /// the image with an owned one holding the result.
  void train(const std::vector<CrfGraph> &Graphs);

  /// MAP assignment: one label per node (known nodes keep Gold; unknown
  /// nodes that end with no candidates get an invalid symbol).
  std::vector<Symbol> predict(const CrfGraph &Graph) const;

  /// predict() for every graph, sharded over \p Threads workers (0 = the
  /// process default), ranking each unknown's top-\p K candidates on the
  /// way (K <= 0: labels only, predict() itself). Inference per graph is
  /// independent and the model is read-only here, so result I equals
  /// predict(Graphs[I]) and topK() over it exactly at any thread count.
  /// The ranking is no second inference: a pass that changes no label has
  /// just scored every candidate under the final assignment, and only
  /// when the passes run out first does one more pass score them.
  std::vector<Inference> predictBatch(const std::vector<CrfGraph> &Graphs,
                                      int K, size_t Threads = 0) const;

  /// Top-\p K candidate labels with scores for unknown node \p Node,
  /// holding the rest of \p Assignment fixed (the paper's top-k
  /// suggestion API, §5.1).
  std::vector<std::pair<Symbol, double>>
  topK(const CrfGraph &Graph, uint32_t Node,
       const std::vector<Symbol> &Assignment, int K) const;

  /// Decomposes the score of labelling \p Node with \p Label (under
  /// \p Assignment) into per-path attributions, keeping the \p K
  /// strongest (K <= 0 keeps all). The returned Total equals the score
  /// topK() would assign to (Node, Label) exactly — same gates, same
  /// vote smoothing — so the explanation *is* the score, not an
  /// approximation of it.
  NodeExplanation explain(const CrfGraph &Graph, uint32_t Node,
                          Symbol Label,
                          const std::vector<Symbol> &Assignment,
                          int K) const;

  /// explain() reading \p Inc, the incidence of \p Graph (an Inference's),
  /// so explaining many nodes of one graph builds it once.
  NodeExplanation explain(const CrfGraph &Graph, const Incidence &Inc,
                          uint32_t Node, Symbol Label,
                          const std::vector<Symbol> &Assignment,
                          int K) const;

  /// Serves the model in place from \p View (typically sections of an
  /// mmap'ed bundle), whose memory the caller keeps alive for the
  /// model's lifetime; a later train() replaces it with an owned image.
  void adoptFrozen(const FrozenCrf &View);

  /// The image every read goes through; the bundle writer serializes it.
  /// Feature keys are hashes over PathIds and Symbol indices, so it is
  /// only meaningful together with the StringInterner and PathTable the
  /// model was trained against.
  const FrozenCrf &image() const { return FC; }

  /// True when the model reads an image it does not own (adoptFrozen),
  /// as a mapped bundle's model does.
  bool frozen() const { return !Owned; }

  /// Number of stored feature weights (model size).
  size_t numFeatures() const { return FC.NumWeights; }

  /// Number of stored candidate contexts (diagnostics).
  size_t candidateTableSize() const { return FC.NumCands; }

private:
  CrfConfig Config;
  /// Storage behind FC when the model built its image itself. Shared and
  /// immutable, so copies and moves of a trained model keep FC valid.
  std::shared_ptr<const FlatCrf> Owned;
  FrozenCrf FC;

  /// Makes \p Image the model's owned image.
  void own(std::shared_ptr<const FlatCrf> Image);

  /// One context's candidate list: (label index, count) pairs.
  struct CandRef {
    const uint32_t *Pairs = nullptr;
    size_t N = 0;
    size_t size() const { return N; }
    Symbol label(size_t I) const { return Symbol::fromIndex(Pairs[2 * I]); }
    uint32_t count(size_t I) const { return Pairs[2 * I + 1]; }
  };
  /// \returns the candidate list of \p Ctx, empty on a miss.
  CandRef findCandidates(uint64_t Ctx) const;

  bool pathPruned(paths::PathId Path) const;
  double weight(uint64_t Key) const;

  /// Candidate labels for one unknown node with their empirical vote
  /// masses, strongest first.
  std::vector<std::pair<Symbol, double>>
  candidatesFor(const CrfGraph &Graph, uint32_t Node,
                std::span<const uint32_t> Incident) const;

  /// Score of labelling \p Node with \p Label under \p Assignment.
  double scoreLabel(const CrfGraph &Graph, uint32_t Node, Symbol Label,
                    const std::vector<Symbol> &Assignment,
                    std::span<const uint32_t> Incident) const;

  /// MAP inference reading feature weights through \p Weight (a key ->
  /// weight callable): the image's on predict(), the perceptron's live
  /// table during train(). A ranking instance (\p Rank, predictBatch's)
  /// also leaves in \p Ranked each unknown's top-\p K candidates scored
  /// under the returned assignment; the perceptron's instance compiles
  /// without any of that work.
  template <bool Rank = false, typename WeightFn>
  std::vector<Symbol> infer(const CrfGraph &Graph, const Incidence &Inc,
                            const WeightFn &Weight, int K = 0,
                            std::vector<Ranking> *Ranked = nullptr) const;
};

//===----------------------------------------------------------------------===//
// Feature hashing
//===----------------------------------------------------------------------===//

/// Feature key for a pairwise factor (order-sensitive: A precedes B in
/// source order).
uint64_t pairKey(paths::PathId Path, Symbol LabelA, Symbol LabelB);

/// Feature key for a unary factor.
uint64_t unaryKey(paths::PathId Path, Symbol Label);

/// Candidate-table context key: the path, which side the unknown is on,
/// and the neighbour's (known) label.
uint64_t contextKey(paths::PathId Path, bool UnknownIsA, Symbol Other);

/// Per-label bias feature key. The learned bias encodes each label's
/// marginal frequency, breaking ties between role-synonyms toward the
/// modal name.
uint64_t biasKey(Symbol Label);

} // namespace crf
} // namespace pigeon

#endif // PIGEON_ML_CRF_CRF_H
