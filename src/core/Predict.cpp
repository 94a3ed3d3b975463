//===- Predict.cpp - The one prediction path ------------------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/Predict.h"

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
                            std::span<Prediction *const> Batch) {
  // predictBatch reads a vector of graphs: move them in and back out.
  std::vector<crf::CrfGraph> Graphs;
  Graphs.reserve(Batch.size());
  for (Prediction *P : Batch)
    Graphs.push_back(std::move(P->Graph));
  std::vector<std::vector<Symbol>> Labels =
      Bundle.Model.predictBatch(Graphs);
  for (size_t I = 0; I < Batch.size(); ++I) {
    Batch[I]->Graph = std::move(Graphs[I]);
    Batch[I]->Assignment = std::move(Labels[I]);
  }
}

void core::rankPrediction(const ModelBundle &Bundle, Prediction &P, int K,
                          std::optional<int> ExplainPaths) {
  const crf::CrfGraph &G = P.Graph;
  P.Elements.clear();
  P.Elements.reserve(G.Unknowns.size());
  for (uint32_t N : G.Unknowns) {
    const crf::GraphNode &Node = G.Nodes[N];
    ElementPrediction E;
    E.Element = Node.Element;
    E.Name = Node.Gold;
    if (Node.Element != ast::InvalidElement)
      E.Kind = ast::elementKindName(P.Parse.Tree->element(Node.Element).Kind);
    E.Label = P.Assignment[N];
    E.Candidates = Bundle.Model.topK(G, N, P.Assignment, K);
    if (ExplainPaths && E.Label.isValid())
      E.Explanation =
          Bundle.Model.explain(G, N, E.Label, P.Assignment, *ExplainPaths);
    P.Elements.push_back(std::move(E));
  }
}

void core::completePrediction(const ModelBundle &Bundle, Prediction &P,
                              int K, std::optional<int> ExplainPaths) {
  assemblePrediction(Bundle, P);
  Prediction *One = &P;
  inferPredictions(Bundle, {&One, 1});
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
