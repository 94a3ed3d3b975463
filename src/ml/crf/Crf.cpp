//===- Crf.cpp - Conditional random field over program elements ------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ml/crf/Crf.h"

#include "support/Hashing.h"
#include "support/Parallel.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::crf;
using namespace pigeon::paths;

//===----------------------------------------------------------------------===//
// Feature hashing
//===----------------------------------------------------------------------===//

uint64_t crf::pairKey(PathId Path, Symbol LabelA, Symbol LabelB) {
  uint64_t H = hashCombine(0x5041u, Path); // "PA"
  H = hashCombine(H, LabelA.index());
  H = hashCombine(H, LabelB.index());
  return hashFinalize(H);
}

uint64_t crf::unaryKey(PathId Path, Symbol Label) {
  uint64_t H = hashCombine(0x554eu, Path); // "UN"
  H = hashCombine(H, Label.index());
  return hashFinalize(H);
}

uint64_t crf::contextKey(PathId Path, bool UnknownIsA, Symbol Other) {
  uint64_t H = hashCombine(0x4358u, Path); // "CX"
  H = hashCombine(H, UnknownIsA ? 1 : 2);
  H = hashCombine(H, Other.index());
  return hashFinalize(H);
}

uint64_t crf::biasKey(Symbol Label) {
  return hashFinalize(hashCombine(0x4249u, Label.index())); // "BI"
}

//===----------------------------------------------------------------------===//
// Graph construction
//===----------------------------------------------------------------------===//

Incidence CrfGraph::incidence() const {
  Incidence Inc;
  Inc.Offsets.assign(Nodes.size() + 1, 0);
  auto Listed = [](const Factor &F) { return !F.Unary && F.B != F.A; };
  for (const Factor &F : Factors) {
    ++Inc.Offsets[F.A + 1];
    if (Listed(F))
      ++Inc.Offsets[F.B + 1];
  }
  for (size_t N = 1; N < Inc.Offsets.size(); ++N)
    Inc.Offsets[N] += Inc.Offsets[N - 1];
  // Filling in factor order keeps each node's list ascending.
  Inc.Index.resize(Inc.Offsets.back());
  std::vector<uint32_t> Next(Inc.Offsets.begin(), Inc.Offsets.end() - 1);
  for (uint32_t F = 0; F < Factors.size(); ++F) {
    Inc.Index[Next[Factors[F].A]++] = F;
    if (Listed(Factors[F]))
      Inc.Index[Next[Factors[F].B]++] = F;
  }
  return Inc;
}

std::vector<ContextRecord>
crf::contextRecords(const Tree &Tree,
                    const std::vector<PathContext> &Contexts) {
  std::vector<ContextRecord> Out;
  Out.reserve(Contexts.size());
  for (const PathContext &Ctx : Contexts) {
    ContextRecord R;
    R.Path = Ctx.Path;
    const Node &Start = Tree.node(Ctx.Start);
    R.StartElem = Start.Element;
    R.StartValue = Start.Value;
    const Node &End = Tree.node(Ctx.End);
    R.Semi = Ctx.Semi;
    if (Ctx.Semi) {
      // The graph labels a semi-path's ancestor end by its kind.
      R.EndValue = End.Kind;
    } else {
      R.EndElem = End.Element;
      R.EndValue = End.Value;
    }
    Out.push_back(R);
  }
  return Out;
}

std::vector<TriRecord>
crf::triRecords(const Tree &Tree, const std::vector<TriContext> &Contexts) {
  std::vector<TriRecord> Out;
  Out.reserve(Contexts.size());
  for (const TriContext &Tri : Contexts) {
    TriRecord R;
    R.Path = Tri.Path;
    NodeId Ends[3] = {Tri.A, Tri.B, Tri.C};
    for (int I = 0; I < 3; ++I) {
      R.Elem[I] = Tree.node(Ends[I]).Element;
      R.Value[I] = Tree.node(Ends[I]).Value;
    }
    Out.push_back(R);
  }
  return Out;
}

namespace {

/// Node merging for graph assembly: one node per element (unknown when
/// the selector picks it), one known node per value otherwise. Node ids
/// follow first request order.
class NodeMerger {
public:
  NodeMerger(std::span<const ElementInfo> Elements,
             const ElementSelector &Selector, CrfGraph &G)
      : Elements(Elements), Selector(Selector), G(G) {
    // Adopt the nodes already in the graph (addTriFactors extends one).
    for (uint32_t N = 0; N < G.Nodes.size(); ++N) {
      const GraphNode &Node = G.Nodes[N];
      if (Node.Element != InvalidElement)
        ElementNodes.emplace(Node.Element, N);
      else
        ValueNodes.emplace(Node.Gold, N);
    }
  }

  /// The node of a context end: its element's, else the known node of
  /// its value.
  uint32_t end(ElementId E, Symbol Value) {
    return E != InvalidElement ? elementNode(E) : knownNode(Value);
  }

  uint32_t elementNode(ElementId E) {
    auto It = ElementNodes.find(E);
    if (It != ElementNodes.end())
      return It->second;
    const ElementInfo &Info = Elements[E];
    uint32_t Id = static_cast<uint32_t>(G.Nodes.size());
    bool Unknown = Selector(Info);
    G.Nodes.push_back({Info.Name, /*Known=*/!Unknown, E});
    if (Unknown)
      G.Unknowns.push_back(Id);
    ElementNodes.emplace(E, Id);
    return Id;
  }

  uint32_t knownNode(Symbol Value) {
    auto It = ValueNodes.find(Value);
    if (It != ValueNodes.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(G.Nodes.size());
    G.Nodes.push_back({Value, /*Known=*/true, InvalidElement});
    ValueNodes.emplace(Value, Id);
    return Id;
  }

  /// The unknown node of \p E, or UINT32_MAX when \p E is not a selected
  /// element already in the graph.
  uint32_t unknownOf(ElementId E) const {
    if (E == InvalidElement || !Selector(Elements[E]))
      return UINT32_MAX;
    auto It = ElementNodes.find(E);
    return It == ElementNodes.end() ? UINT32_MAX : It->second;
  }

private:
  std::span<const ElementInfo> Elements;
  const ElementSelector &Selector;
  CrfGraph &G;
  std::unordered_map<ElementId, uint32_t> ElementNodes;
  std::unordered_map<Symbol, uint32_t> ValueNodes;
};

} // namespace

CrfGraph crf::buildGraph(std::span<const ElementInfo> Elements,
                         std::span<const ContextRecord> Contexts,
                         const ElementSelector &Selector) {
  CrfGraph G;
  NodeMerger Nodes(Elements, Selector, G);
  for (const ContextRecord &Ctx : Contexts) {
    uint32_t A = Nodes.end(Ctx.StartElem, Ctx.StartValue);
    uint32_t B = Ctx.Semi ? Nodes.knownNode(Ctx.EndValue)
                          : Nodes.end(Ctx.EndElem, Ctx.EndValue);
    bool AKnown = G.Nodes[A].Known;
    bool BKnown = G.Nodes[B].Known;
    if (AKnown && BKnown)
      continue; // Constant factor: no influence on any prediction.
    if (A == B) {
      // Two occurrences of the same element: the paper's unary factor.
      G.Factors.push_back({A, A, Ctx.Path, /*Unary=*/true});
      continue;
    }
    G.Factors.push_back({A, B, Ctx.Path, /*Unary=*/false});
  }
  return G;
}

CrfGraph crf::buildGraph(const Tree &Tree,
                         const std::vector<PathContext> &Contexts,
                         const ElementSelector &Selector) {
  return buildGraph(Tree.elements(), contextRecords(Tree, Contexts),
                    Selector);
}

CrfGraph crf::buildTypeGraph(const Tree &Tree, NodeId Target,
                             const std::vector<PathContext> &Contexts) {
  CrfGraph G;
  ElementSelector NeverUnknown = [](const ElementInfo &) { return false; };
  NodeMerger Nodes(Tree.elements(), NeverUnknown, G);
  Symbol Type = Tree.typeOf(Target);
  assert(Type.isValid() && "type target must be annotated");
  // The single unknown node: the expression whose type we predict. It is
  // no value node, so a leaf spelling the type gets a known node of its
  // own.
  uint32_t TargetNode = static_cast<uint32_t>(G.Nodes.size());
  G.Nodes.push_back({Type, /*Known=*/false, InvalidElement});
  G.Unknowns.push_back(TargetNode);
  for (const PathContext &Ctx : Contexts) {
    if (Ctx.End != Target)
      continue;
    const Node &Start = Tree.node(Ctx.Start);
    uint32_t A = Nodes.end(Start.Element, Start.Value);
    G.Factors.push_back({A, TargetNode, Ctx.Path, /*Unary=*/false});
  }
  return G;
}

void crf::addTriFactors(CrfGraph &Graph, std::span<const ElementInfo> Elements,
                        std::span<const TriRecord> Contexts,
                        const ElementSelector &Selector,
                        StringInterner &Interner) {
  NodeMerger Nodes(Elements, Selector, Graph);
  for (const TriRecord &Ctx : Contexts) {
    uint32_t Unknown = UINT32_MAX;
    int UnknownCount = 0;
    for (int I = 0; I < 3; ++I) {
      uint32_t U = Nodes.unknownOf(Ctx.Elem[I]);
      if (U != UINT32_MAX) {
        Unknown = U;
        ++UnknownCount;
      }
    }
    if (UnknownCount != 1)
      continue;
    // Composite label of the two known ends, in source order.
    std::string Composite;
    for (int I = 0; I < 3; ++I) {
      if (Nodes.unknownOf(Ctx.Elem[I]) != UINT32_MAX)
        continue;
      if (!Composite.empty())
        Composite += '+';
      Composite += Interner.str(Ctx.Value[I]);
    }
    uint32_t Known = Nodes.knownNode(Interner.intern(Composite));
    // Order: unknown on the A side if it is the triple's first end.
    if (Nodes.unknownOf(Ctx.Elem[0]) != UINT32_MAX)
      Graph.Factors.push_back({Unknown, Known, Ctx.Path, /*Unary=*/false});
    else
      Graph.Factors.push_back({Known, Unknown, Ctx.Path, /*Unary=*/false});
  }
}

void crf::addTriFactors(CrfGraph &Graph, const Tree &Tree,
                        const std::vector<TriContext> &Contexts,
                        const ElementSelector &Selector,
                        StringInterner &Interner) {
  addTriFactors(Graph, Tree.elements(), triRecords(Tree, Contexts), Selector,
                Interner);
}

//===----------------------------------------------------------------------===//
// Weight table
//===----------------------------------------------------------------------===//

WeightTable::Entry &WeightTable::findOrInsert(uint64_t Key, bool &Inserted) {
  Inserted = false;
  if (Key == 0) {
    Inserted = !HasZero;
    HasZero = true;
    return Zero;
  }
  if ((Count + 1) * 4 > Slots.size() * 3)
    grow();
  Entry *E = probe(Slots.data(), Mask, Key);
  if (E->Key == 0) {
    E->Key = Key;
    ++Count;
    Inserted = true;
  }
  return *E;
}

void WeightTable::grow() {
  std::vector<Entry> Old = std::move(Slots);
  Slots.assign(Old.empty() ? 64 : 2 * Old.size(), Entry());
  Mask = Slots.size() - 1;
  for (const Entry &E : Old)
    if (E.Key != 0)
      *probe(Slots.data(), Mask, E.Key) = E;
}

//===----------------------------------------------------------------------===//
// Model
//===----------------------------------------------------------------------===//

FrozenCrf FlatCrf::view() const {
  FrozenCrf V;
  V.Weights = {Weights.data(), Weights.size() - 2};
  V.NumWeights = NumWeights;
  V.Cands = {Cands.data(), Cands.size() - 2};
  V.NumCands = NumCands;
  V.CandPairs = CandPairs.data();
  V.NumCandPairs = CandPairs.size() / 2;
  V.PrunedKeys = PrunedKeys.data();
  V.NumPruned = PrunedKeys.size();
  V.GlobalTop = GlobalTop.data();
  V.NumGlobal = static_cast<uint32_t>(GlobalTop.size());
  return V;
}

CrfModel::CrfModel(CrfConfig Config) : Config(Config) {
  static const auto Untrained = std::make_shared<const FlatCrf>();
  own(Untrained);
}

void CrfModel::own(std::shared_ptr<const FlatCrf> Image) {
  Owned = std::move(Image);
  FC = Owned->view();
}

void CrfModel::adoptFrozen(const FrozenCrf &View) {
  Owned.reset();
  FC = View;
}

double CrfModel::weight(uint64_t Key) const {
  const WeightSlot *S = FC.Weights.find(Key);
  return S ? S->Weight : 0.0;
}

bool CrfModel::pathPruned(paths::PathId Path) const {
  return std::binary_search(FC.PrunedKeys, FC.PrunedKeys + FC.NumPruned,
                            static_cast<uint64_t>(Path));
}

CrfModel::CandRef CrfModel::findCandidates(uint64_t Ctx) const {
  const CandSlot *S = FC.Cands.find(Ctx);
  if (!S)
    return {};
  return {FC.CandPairs + 2 * size_t(S->First), S->Count};
}

namespace {

/// Orders (label, count or score) pairs strongest first, ties by label
/// index.
struct StrongestFirst {
  template <typename T>
  bool operator()(const std::pair<Symbol, T> &A,
                  const std::pair<Symbol, T> &B) const {
    if (A.second != B.second)
      return A.second > B.second;
    return A.first.index() < B.first.index();
  }
};

/// Per-label vote sums for one node, in first-vote order: a flat list
/// plus a small open-addressed index from label to list position. Each
/// label's mass is summed in the order its votes arrive.
class VoteTally {
public:
  void add(Symbol Label, double Vote) {
    if (2 * (Votes.size() + 1) > Index.size())
      grow();
    size_t I = slotOf(Label);
    if (Index[I] == Empty) {
      Index[I] = static_cast<uint32_t>(Votes.size());
      Votes.emplace_back(Label, 0.0);
    }
    Votes[Index[I]].second += Vote;
  }

  bool contains(Symbol Label) const {
    return !Index.empty() && Index[slotOf(Label)] != Empty;
  }

  std::vector<std::pair<Symbol, double>> take() { return std::move(Votes); }

private:
  static constexpr uint32_t Empty = UINT32_MAX;
  std::vector<std::pair<Symbol, double>> Votes;
  std::vector<uint32_t> Index; ///< Power-of-two size, at most half full.

  /// The slot holding \p Label, or the empty slot where it would go.
  size_t slotOf(Symbol Label) const {
    size_t Mask = Index.size() - 1;
    size_t I = hashFinalize(Label.index()) & Mask;
    while (Index[I] != Empty && Votes[Index[I]].first != Label)
      I = (I + 1) & Mask;
    return I;
  }

  void grow() {
    Index.assign(std::max<size_t>(32, 2 * Index.size()), Empty);
    for (uint32_t P = 0; P < Votes.size(); ++P)
      Index[slotOf(Votes[P].first)] = P;
  }
};

} // namespace

std::vector<std::pair<Symbol, double>>
CrfModel::candidatesFor(const CrfGraph &Graph, uint32_t Node,
                        std::span<const uint32_t> Incident) const {
  // Each context votes with its empirical label distribution P(label |
  // context): informative contexts concentrate their vote, noisy
  // (e.g. long-distance) contexts spread it thinly. The resulting list is
  // vote-ordered, so the first candidate is a good empirical argmax and a
  // good inference initialisation.
  VoteTally Tally;
  for (uint32_t F : Incident) {
    const Factor &Fac = Graph.Factors[F];
    if (pathPruned(Fac.Path))
      continue;
    uint64_t Ctx;
    if (Fac.Unary) {
      // Unary factors (paths between occurrences of one element) carry
      // exactly the long-range signal single-statement models lack; they
      // vote for candidates through their own context table.
      Ctx = unaryKey(Fac.Path, Symbol());
    } else {
      uint32_t Other = Fac.A == Node ? Fac.B : Fac.A;
      if (!Graph.Nodes[Other].Known)
        continue;
      Ctx = contextKey(Fac.Path, Fac.A == Node, Graph.Nodes[Other].Gold);
    }
    CandRef Cand = findCandidates(Ctx);
    double Total = Config.VoteSmoothing;
    for (size_t I = 0; I < Cand.size(); ++I)
      Total += static_cast<double>(Cand.count(I));
    for (size_t I = 0; I < Cand.size(); ++I)
      Tally.add(Cand.label(I), static_cast<double>(Cand.count(I)) / Total);
  }
  std::vector<Symbol> Fallback;
  for (uint32_t I = 0; I < FC.NumGlobal; ++I)
    if (Symbol S = Symbol::fromIndex(FC.GlobalTop[I]); !Tally.contains(S))
      Fallback.push_back(S);
  std::vector<std::pair<Symbol, double>> Votes = Tally.take();
  std::sort(Votes.begin(), Votes.end(), StrongestFirst());
  for (Symbol S : Fallback)
    Votes.emplace_back(S, 0.0);
  return Votes;
}

double CrfModel::scoreLabel(const CrfGraph &Graph, uint32_t Node,
                            Symbol Label,
                            const std::vector<Symbol> &Assignment,
                            std::span<const uint32_t> Incident) const {
  double Score = weight(biasKey(Label));
  for (uint32_t F : Incident) {
    const Factor &Fac = Graph.Factors[F];
    if (pathPruned(Fac.Path))
      continue;
    if (Fac.Unary) {
      if (Config.UnaryFactors)
        Score += weight(unaryKey(Fac.Path, Label));
      continue;
    }
    uint32_t Other = Fac.A == Node ? Fac.B : Fac.A;
    if (!Config.UnknownUnknownFactors && !Graph.Nodes[Other].Known)
      continue;
    if (Fac.A == Node)
      Score += weight(pairKey(Fac.Path, Label, Assignment[Fac.B]));
    else
      Score += weight(pairKey(Fac.Path, Assignment[Fac.A], Label));
  }
  return Score;
}

namespace {

/// One scoreLabel term of an unknown node: a factor whose weight is the
/// same on every pass (unary, or pair with a known neighbour), or a
/// *dynamic* unknown-unknown pair whose weight follows the neighbour's
/// current label.
struct ScoreTerm {
  uint32_t Factor = 0;
  bool Dynamic = false;
};

/// Where one unknown node's memo lives. Per candidate, Stride doubles:
/// the running score up to the first dynamic term (the head), then the
/// weights of the later static terms. Steps [StepBegin, StepEnd) are the
/// terms after the head, replayed on every pass.
struct NodeMemo {
  size_t Base = 0;
  size_t Stride = 1;
  size_t StepBegin = 0, StepEnd = 0;
};

} // namespace

template <typename WeightFn>
std::vector<Symbol> CrfModel::infer(const CrfGraph &Graph,
                                    const Incidence &Inc,
                                    const WeightFn &Weight) const {
  std::vector<Symbol> Assignment(Graph.Nodes.size());
  for (uint32_t N = 0; N < Graph.Nodes.size(); ++N)
    Assignment[N] = Graph.Nodes[N].Gold;
  // Initialise unknowns with their strongest candidate (vote-ordered, so
  // this is the empirical argmax given contexts).
  std::vector<std::vector<std::pair<Symbol, double>>> Cands(
      Graph.Unknowns.size());
  for (size_t I = 0; I < Graph.Unknowns.size(); ++I) {
    uint32_t N = Graph.Unknowns[I];
    Cands[I] = candidatesFor(Graph, N, Inc.of(N));
    Assignment[N] = Cands[I].empty() ? Symbol() : Cands[I].front().first;
  }

  // Only unknown nodes change label, so of scoreLabel's terms the bias,
  // unary and known-neighbour pair weights are the same on every pass.
  // The first pass looks them up once per (unknown, candidate); later
  // passes replay them in factor order and look up only the
  // unknown-unknown pairs again. Each score is therefore the same
  // sequence of double additions scoreLabel makes: the leading run of
  // invariant terms is summed once into the head, and every later term
  // is added one at a time, memoized or freshly looked up.
  std::vector<NodeMemo> Memos(Graph.Unknowns.size());
  std::vector<double> Memo;
  std::vector<ScoreTerm> Terms, Steps;
  auto BuildMemo = [&](size_t I) {
    uint32_t N = Graph.Unknowns[I];
    Terms.clear();
    for (uint32_t F : Inc.of(N)) {
      const Factor &Fac = Graph.Factors[F];
      if (pathPruned(Fac.Path))
        continue;
      bool Dynamic = false;
      if (Fac.Unary) {
        if (!Config.UnaryFactors)
          continue;
      } else {
        Dynamic = !Graph.Nodes[Fac.A == N ? Fac.B : Fac.A].Known;
        if (Dynamic && !Config.UnknownUnknownFactors)
          continue;
      }
      Terms.push_back({F, Dynamic});
    }
    auto Tail = std::find_if(Terms.begin(), Terms.end(),
                             [](const ScoreTerm &T) { return T.Dynamic; });
    NodeMemo &M = Memos[I];
    M.Base = Memo.size();
    M.Stride = 1 + std::count_if(Tail, Terms.end(), [](const ScoreTerm &T) {
                 return !T.Dynamic;
               });
    M.StepBegin = Steps.size();
    Steps.insert(Steps.end(), Tail, Terms.end());
    M.StepEnd = Steps.size();
    auto StaticWeight = [&](const ScoreTerm &T, Symbol Label) {
      const Factor &Fac = Graph.Factors[T.Factor];
      if (Fac.Unary)
        return Weight(unaryKey(Fac.Path, Label));
      return Fac.A == N ? Weight(pairKey(Fac.Path, Label, Assignment[Fac.B]))
                        : Weight(pairKey(Fac.Path, Assignment[Fac.A], Label));
    };
    for (const auto &[C, Vote] : Cands[I]) {
      double Head = Weight(biasKey(C));
      for (auto T = Terms.begin(); T != Tail; ++T)
        Head += StaticWeight(*T, C);
      Memo.push_back(Head);
      for (auto T = Tail; T != Terms.end(); ++T)
        if (!T->Dynamic)
          Memo.push_back(StaticWeight(*T, C));
    }
  };

  // Iterated conditional ascent over score = vote prior + factor weights.
  for (int Pass = 0; Pass < Config.InferencePasses; ++Pass) {
    bool Changed = false;
    for (size_t I = 0; I < Graph.Unknowns.size(); ++I) {
      uint32_t N = Graph.Unknowns[I];
      if (Cands[I].empty())
        continue;
      if (Pass == 0)
        BuildMemo(I);
      const NodeMemo &M = Memos[I];
      const double *Row = Memo.data() + M.Base;
      Symbol Best;
      double BestScore = 0;
      bool First = true;
      for (const auto &[C, Vote] : Cands[I]) {
        const double *Memoized = Row;
        double Score = *Memoized++;
        for (size_t St = M.StepBegin; St < M.StepEnd; ++St) {
          if (!Steps[St].Dynamic) {
            Score += *Memoized++;
            continue;
          }
          const Factor &Fac = Graph.Factors[Steps[St].Factor];
          Score += Fac.A == N
                       ? Weight(pairKey(Fac.Path, C, Assignment[Fac.B]))
                       : Weight(pairKey(Fac.Path, Assignment[Fac.A], C));
        }
        Row += M.Stride;
        double S = Config.VotePrior * Vote + Score;
        if (First || S > BestScore) {
          BestScore = S;
          Best = C;
          First = false;
        }
      }
      if (Best != Assignment[N]) {
        Assignment[N] = Best;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }
  return Assignment;
}

void CrfModel::train(const std::vector<CrfGraph> &Graphs) {
  telemetry::TraceScope TrainPhase("crf.train");
  auto &Reg = telemetry::MetricsRegistry::global();
  Reg.counter("crf.train.calls").inc();
  Reg.counter("crf.train.graphs").add(Graphs.size());

  std::optional<telemetry::TraceScope> Pass;
  Pass.emplace("candidates");
  // Pass 1: candidate tables, pruned paths and the global fallback list,
  // written straight into the flat image the model will keep.
  FlatCrf Image;
  {
    std::unordered_map<uint64_t, std::unordered_map<Symbol, uint32_t>>
        RawCandidates;
    std::unordered_map<Symbol, uint64_t> LabelCounts;
    std::unordered_map<uint64_t, uint64_t> CtxToPath;
    for (const CrfGraph &G : Graphs) {
      for (uint32_t N : G.Unknowns)
        ++LabelCounts[G.Nodes[N].Gold];
      for (const Factor &F : G.Factors) {
        if (F.Unary) {
          if (!G.Nodes[F.A].Known) {
            uint64_t Ctx = unaryKey(F.Path, Symbol());
            ++RawCandidates[Ctx][G.Nodes[F.A].Gold];
            CtxToPath[Ctx] = F.Path;
          }
          continue;
        }
        bool AKnown = G.Nodes[F.A].Known;
        bool BKnown = G.Nodes[F.B].Known;
        if (AKnown == BKnown)
          continue; // Candidate proposal needs exactly one known side.
        uint32_t Unknown = AKnown ? F.B : F.A;
        uint32_t Known = AKnown ? F.A : F.B;
        uint64_t Ctx =
            contextKey(F.Path, Unknown == F.A, G.Nodes[Known].Gold);
        ++RawCandidates[Ctx][G.Nodes[Unknown].Gold];
        CtxToPath[Ctx] = F.Path;
      }
    }
    // Path purity: how concentrated the label distributions of a path's
    // contexts are. Near-uniform paths carry no naming signal (they are
    // typically long-distance cross-unit paths) and are pruned.
    if (Config.MinPathLift > 0) {
      // The label marginal's own concentration is the baseline: a path
      // is informative only if its contexts concentrate labels beyond it.
      uint64_t MarginalMax = 0, MarginalTotal = 0;
      for (const auto &[Label, Count] : LabelCounts) {
        MarginalMax = std::max(MarginalMax, Count);
        MarginalTotal += Count;
      }
      double MarginalShare =
          MarginalTotal == 0 ? 1.0
                             : static_cast<double>(MarginalMax) /
                                   static_cast<double>(MarginalTotal);
      std::unordered_map<uint64_t, std::pair<double, double>> PathStats;
      for (const auto &[Ctx, Map] : RawCandidates) {
        uint32_t Max = 0, Total = 0;
        for (const auto &[Label, Count] : Map) {
          Max = std::max(Max, Count);
          Total += Count;
        }
        auto &[SumMax, SumTotal] = PathStats[CtxToPath.at(Ctx)];
        SumMax += Max;
        SumTotal += Total;
      }
      for (const auto &[Path, Stats] : PathStats) {
        if (Stats.second <= 0)
          continue;
        double Lift = (Stats.first / Stats.second) / MarginalShare;
        if (Lift < Config.MinPathLift)
          Image.PrunedKeys.push_back(Path);
      }
      std::sort(Image.PrunedKeys.begin(), Image.PrunedKeys.end());
    }
    // Each context keeps its strongest labels in rank order: votes
    // accumulate in list order, so that order is part of the model. The
    // lists are laid out in ascending context-key order.
    std::vector<uint64_t> CtxKeys;
    CtxKeys.reserve(RawCandidates.size());
    for (const auto &[Ctx, Map] : RawCandidates)
      CtxKeys.push_back(Ctx);
    std::sort(CtxKeys.begin(), CtxKeys.end());
    std::vector<CandSlot> Cands;
    Cands.reserve(CtxKeys.size());
    std::vector<std::pair<Symbol, uint32_t>> Sorted;
    for (uint64_t Ctx : CtxKeys) {
      const auto &Map = RawCandidates.at(Ctx);
      Sorted.assign(Map.begin(), Map.end());
      std::sort(Sorted.begin(), Sorted.end(), StrongestFirst());
      if (Sorted.size() > static_cast<size_t>(Config.CandidatesPerContext))
        Sorted.resize(static_cast<size_t>(Config.CandidatesPerContext));
      assert(Image.CandPairs.size() / 2 + Sorted.size() <= UINT32_MAX &&
             "candidate pairs overflow the u32 slot fields");
      Cands.push_back({Ctx, static_cast<uint32_t>(Image.CandPairs.size() / 2),
                       static_cast<uint32_t>(Sorted.size())});
      for (const auto &[Label, Count] : Sorted) {
        Image.CandPairs.push_back(Label.index());
        Image.CandPairs.push_back(Count);
      }
    }
    Image.NumCands = Cands.size();
    Image.Cands = freezeTable(std::move(Cands));
    std::vector<std::pair<Symbol, uint64_t>> Labels(LabelCounts.begin(),
                                                    LabelCounts.end());
    std::sort(Labels.begin(), Labels.end(), StrongestFirst());
    for (size_t I = 0;
         I < Labels.size() && I < static_cast<size_t>(Config.GlobalCandidates);
         ++I)
      Image.GlobalTop.push_back(Labels[I].first.index());
  }
  // Inference during training reads candidates and pruning through the
  // image, exactly as predict() will; only the weights still change.
  Owned.reset();
  FC = Image.view();

  // Pass 2: averaged structured perceptron.
  Pass.emplace("perceptron");
  telemetry::Counter &EpochsCounter = Reg.counter("crf.epochs");
  telemetry::Counter &ViolationsCounter = Reg.counter("crf.violations");
  telemetry::Counter &UpdatesCounter = Reg.counter("crf.updates");
  telemetry::Histogram &EpochSeconds =
      Reg.histogram("crf.epoch.seconds", telemetry::timeBounds());
  WeightTable Weights;
  uint64_t Time = 1;
  auto Bump = [&Weights, &Time](uint64_t Key, double Delta) {
    WeightTable::Entry &E = Weights.findOrInsert(Key);
    E.Weight += Delta;
    E.Total += static_cast<double>(Time) * Delta;
  };
  auto LiveWeight = [&Weights](uint64_t Key) { return Weights.weight(Key); };
  std::vector<Incidence> Incidences;
  Incidences.reserve(Graphs.size());
  for (const CrfGraph &G : Graphs)
    Incidences.push_back(G.incidence());

  for (int Epoch = 0; Epoch < Config.Epochs; ++Epoch) {
    telemetry::TraceScope EpochScope("epoch");
    uint64_t Violations = 0, Updates = 0;
    for (size_t GI = 0; GI < Graphs.size(); ++GI) {
      const CrfGraph &G = Graphs[GI];
      if (G.Unknowns.empty())
        continue;
      std::vector<Symbol> Pred = infer(G, Incidences[GI], LiveWeight);
      // Gold assignment is just the Gold labels.
      bool AnyMistake = false;
      for (uint32_t N : G.Unknowns)
        AnyMistake |= (Pred[N] != G.Nodes[N].Gold);
      if (AnyMistake) {
        ++Violations;
        for (uint32_t N : G.Unknowns) {
          if (Pred[N] == G.Nodes[N].Gold)
            continue;
          ++Updates;
          Bump(biasKey(G.Nodes[N].Gold), Config.LearningRate);
          Bump(biasKey(Pred[N]), -Config.LearningRate);
        }
        for (const Factor &F : G.Factors) {
          if (pathPruned(F.Path))
            continue;
          if (F.Unary) {
            if (!Config.UnaryFactors)
              continue;
            Symbol GoldL = G.Nodes[F.A].Gold;
            Symbol PredL = Pred[F.A];
            if (GoldL != PredL) {
              Bump(unaryKey(F.Path, GoldL), Config.LearningRate);
              Bump(unaryKey(F.Path, PredL), -Config.LearningRate);
            }
            continue;
          }
          if (!Config.UnknownUnknownFactors && !G.Nodes[F.A].Known &&
              !G.Nodes[F.B].Known)
            continue;
          Symbol GoldA = G.Nodes[F.A].Gold, GoldB = G.Nodes[F.B].Gold;
          Symbol PredA = Pred[F.A], PredB = Pred[F.B];
          if (GoldA == PredA && GoldB == PredB)
            continue;
          Bump(pairKey(F.Path, GoldA, GoldB), Config.LearningRate);
          Bump(pairKey(F.Path, PredA, PredB), -Config.LearningRate);
        }
      }
      ++Time;
    }
    EpochsCounter.inc();
    ViolationsCounter.add(Violations);
    UpdatesCounter.add(Updates);
    if (Config.L2Shrink > 0) {
      // Multiplicative shrinkage keeps noisy high-degree features from
      // accumulating; consistently-pushed informative weights survive.
      double Keep = 1.0 - Config.L2Shrink;
      Weights.forEach([Keep](WeightTable::Entry &E) {
        E.Weight *= Keep;
        E.Total *= Keep;
      });
    }
    EpochSeconds.observe(EpochScope.seconds());
  }
  // Finalize averaging (w_avg = w - totals / T) and freeze the weights
  // into the image.
  std::vector<WeightSlot> Averaged;
  Averaged.reserve(Weights.size());
  Weights.forEach([&](const WeightTable::Entry &E) {
    Averaged.push_back({E.Key, E.Weight - E.Total / static_cast<double>(Time)});
  });
  // Release the live table and the incidences before the frozen table is
  // allocated, so peak memory stays that of the perceptron pass.
  Weights = WeightTable();
  Incidences = std::vector<Incidence>();
  Image.NumWeights = Averaged.size();
  Image.Weights = freezeTable(std::move(Averaged));
  own(std::make_shared<const FlatCrf>(std::move(Image)));
  Reg.gauge("crf.features").set(static_cast<double>(FC.NumWeights));
  Reg.gauge("crf.candidate_table").set(static_cast<double>(FC.NumCands));
  Reg.gauge("crf.pruned_paths").set(static_cast<double>(FC.NumPruned));
}

std::vector<Symbol> CrfModel::predict(const CrfGraph &Graph) const {
  return infer(Graph, Graph.incidence(),
               [this](uint64_t Key) { return weight(Key); });
}

std::vector<std::vector<Symbol>>
CrfModel::predictBatch(const std::vector<CrfGraph> &Graphs,
                       size_t Threads) const {
  static const telemetry::Stage PredictStage("crf.predict");
  static telemetry::Counter &PredictedGraphs =
      telemetry::MetricsRegistry::global().counter("crf.predict.graphs");
  telemetry::TraceScope Phase(PredictStage);
  PredictedGraphs.add(Graphs.size());
  std::vector<std::vector<Symbol>> Out(Graphs.size());
  parallel::parallelFor(Graphs.size(), Threads,
                        [&](size_t I) { Out[I] = predict(Graphs[I]); });
  return Out;
}

std::vector<std::pair<Symbol, double>>
CrfModel::topK(const CrfGraph &Graph, uint32_t Node,
               const std::vector<Symbol> &Assignment, int K) const {
  Incidence Inc = Graph.incidence();
  auto Cands = candidatesFor(Graph, Node, Inc.of(Node));
  std::vector<std::pair<Symbol, double>> Scored;
  Scored.reserve(Cands.size());
  for (const auto &[C, Vote] : Cands)
    Scored.emplace_back(
        C, Config.VotePrior * Vote +
               scoreLabel(Graph, Node, C, Assignment, Inc.of(Node)));
  std::sort(Scored.begin(), Scored.end(), StrongestFirst());
  if (Scored.size() > static_cast<size_t>(K))
    Scored.resize(static_cast<size_t>(K));
  return Scored;
}

NodeExplanation CrfModel::explain(const CrfGraph &Graph, uint32_t Node,
                                  Symbol Label,
                                  const std::vector<Symbol> &Assignment,
                                  int K) const {
  NodeExplanation Ex;
  Ex.Label = Label;
  Ex.Bias = weight(biasKey(Label));

  // This label's share of one context's (smoothed) vote mass — the exact
  // per-context term candidatesFor() accumulates.
  auto VoteOf = [this, Label](uint64_t Ctx) {
    CandRef Cand = findCandidates(Ctx);
    double Total = Config.VoteSmoothing;
    uint32_t Mine = 0;
    for (size_t I = 0; I < Cand.size(); ++I) {
      Total += static_cast<double>(Cand.count(I));
      if (Cand.label(I) == Label)
        Mine = Cand.count(I);
    }
    return static_cast<double>(Mine) / Total;
  };

  // Aggregate factor contributions by (path, unary, neighbour): a path
  // occurring twice between the same pair is one line in the report.
  std::map<std::tuple<paths::PathId, bool, uint32_t>, Attribution> Agg;
  Incidence Inc = Graph.incidence();
  for (uint32_t F : Inc.of(Node)) {
    const Factor &Fac = Graph.Factors[F];
    if (pathPruned(Fac.Path))
      continue;
    double Weight = 0, Vote = 0;
    Symbol Neighbor;
    if (Fac.Unary) {
      if (Config.UnaryFactors)
        Weight = weight(unaryKey(Fac.Path, Label));
      Vote = VoteOf(unaryKey(Fac.Path, Symbol()));
    } else {
      uint32_t Other = Fac.A == Node ? Fac.B : Fac.A;
      bool OtherKnown = Graph.Nodes[Other].Known;
      if (Config.UnknownUnknownFactors || OtherKnown) {
        if (Fac.A == Node)
          Weight = weight(pairKey(Fac.Path, Label, Assignment[Fac.B]));
        else
          Weight = weight(pairKey(Fac.Path, Assignment[Fac.A], Label));
      }
      // Only known neighbours vote (candidatesFor skips the rest).
      if (OtherKnown)
        Vote = VoteOf(
            contextKey(Fac.Path, Fac.A == Node, Graph.Nodes[Other].Gold));
      Neighbor = Assignment[Other];
    }
    Attribution &A =
        Agg[std::make_tuple(Fac.Path, Fac.Unary, Neighbor.index())];
    A.Path = Fac.Path;
    A.Unary = Fac.Unary;
    A.Neighbor = Neighbor;
    A.Weight += Weight;
    A.Vote += Vote;
  }

  Ex.Total = Ex.Bias;
  Ex.Paths.reserve(Agg.size());
  for (auto &[Key, A] : Agg) {
    A.Score = Config.VotePrior * A.Vote + A.Weight;
    Ex.Total += A.Score;
    Ex.Paths.push_back(A);
  }
  std::sort(Ex.Paths.begin(), Ex.Paths.end(),
            [](const Attribution &A, const Attribution &B) {
              double MagA = std::abs(A.Score), MagB = std::abs(B.Score);
              if (MagA != MagB)
                return MagA > MagB;
              if (A.Path != B.Path)
                return A.Path < B.Path;
              return A.Neighbor.index() < B.Neighbor.index();
            });
  if (K > 0 && Ex.Paths.size() > static_cast<size_t>(K))
    Ex.Paths.resize(static_cast<size_t>(K));
  return Ex;
}
