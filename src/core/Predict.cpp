//===- Predict.cpp - The one prediction path ------------------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/Predict.h"

#include <algorithm>

using namespace pigeon;
using namespace pigeon::core;

Prediction core::parsePrediction(const ModelBundle &Bundle,
                                 std::string_view Source) {
  Prediction P;
  P.Interner = std::make_unique<StringInterner>(StringInterner::Delta,
                                                *Bundle.Interner);
  P.Parse = parseSource(Bundle.Lang, Source, *P.Interner);
  return P;
}

void core::assemblePrediction(const ModelBundle &Bundle, Prediction &P) {
  P.Table = std::make_unique<paths::PathTable>(paths::PathTable::Delta,
                                               Bundle.Table);
  auto Contexts = paths::extractPathContexts(*P.Parse.Tree, Bundle.Extraction,
                                             *P.Table);
  P.Graph = crf::buildGraph(*P.Parse.Tree, Contexts,
                            selectorFor(Bundle.TaskKind));
}

void core::inferPredictions(const ModelBundle &Bundle,
                            std::span<Prediction *const> Batch, int K) {
  // predictBatch reads a vector of graphs: move them in and back out.
  std::vector<crf::CrfGraph> Graphs;
  Graphs.reserve(Batch.size());
  for (Prediction *P : Batch)
    Graphs.push_back(std::move(P->Graph));
  // Ranking at least one candidate keeps the incidence explain() reads.
  std::vector<crf::Inference> Inferred =
      Bundle.Model.predictBatch(Graphs, std::max(K, 1));
  for (size_t I = 0; I < Batch.size(); ++I) {
    Batch[I]->Graph = std::move(Graphs[I]);
    Batch[I]->Inferred = std::move(Inferred[I]);
  }
}

void core::rankPrediction(const ModelBundle &Bundle, Prediction &P, int K,
                          std::optional<int> ExplainPaths) {
  const crf::CrfGraph &G = P.Graph;
  crf::Inference &Inf = P.Inferred;
  P.Elements.clear();
  P.Elements.reserve(G.Unknowns.size());
  for (size_t I = 0; I < G.Unknowns.size(); ++I) {
    uint32_t N = G.Unknowns[I];
    const crf::GraphNode &Node = G.Nodes[N];
    ElementPrediction E;
    E.Element = Node.Element;
    E.Name = Node.Gold;
    if (Node.Element != ast::InvalidElement)
      E.Kind = ast::elementKindName(P.Parse.Tree->element(Node.Element).Kind);
    E.Label = Inf.Assignment[N];
    // Each list is sorted by a strict order, so its first K entries are
    // exactly the top K.
    E.Candidates = std::move(Inf.Ranked[I]);
    if (E.Candidates.size() > static_cast<size_t>(K))
      E.Candidates.resize(static_cast<size_t>(K));
    if (ExplainPaths && E.Label.isValid())
      E.Explanation = Bundle.Model.explain(G, Inf.Inc, N, E.Label,
                                           Inf.Assignment, *ExplainPaths);
    P.Elements.push_back(std::move(E));
  }
}

void core::completePrediction(const ModelBundle &Bundle, Prediction &P,
                              int K, std::optional<int> ExplainPaths) {
  assemblePrediction(Bundle, P);
  Prediction *One = &P;
  inferPredictions(Bundle, {&One, 1}, K);
  rankPrediction(Bundle, P, K, ExplainPaths);
}

Prediction core::predictSource(const ModelBundle &Bundle,
                               std::string_view Source, int K,
                               std::optional<int> ExplainPaths) {
  Prediction P = parsePrediction(Bundle, Source);
  if (P.parsed())
    completePrediction(Bundle, P, K, ExplainPaths);
  return P;
}
