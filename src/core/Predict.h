//===- Predict.h - The one prediction path ----------------------*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PIGEON's prediction sequence (§5.1), written once: source text → AST →
/// path-contexts → CRF graph with its unary factors → MAP assignment with
/// the ranked top-k candidates per unknown element, plus an optional
/// per-path explanation, all against a trained ModelBundle. `pigeon serve`,
/// `pigeon predict`, `pigeon demo`, the examples and the benches predict
/// through it.
///
/// A Prediction never writes the bundle. It parses into a private delta
/// overlay of the bundle's interner and extracts into a private delta
/// overlay of the bundle's path table: strings and paths the bundle knows
/// resolve to their trained ids, novel ones get provisional ids in
/// first-encounter order and die with the Prediction. Any number of
/// threads may predict over one bundle at once, and no prediction depends
/// on what was predicted before it — which is why a served response is
/// byte-identical to `pigeon predict` on the same source.
///
/// The steps are separate calls so that a batching caller can run each
/// over a whole batch between its own stage barriers, as serve does:
/// parsePrediction(), assemblePrediction(), inferPredictions() (one
/// CrfModel::predictBatch over the batch, which ranks the candidates
/// inside inference) and rankPrediction() (which hands each element its
/// ranked list and explains it over the incidence inference built).
/// completePrediction() runs steps 2 to 4 on one parsed source and
/// predictSource() all four.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_CORE_PREDICT_H
#define PIGEON_CORE_PREDICT_H

#include "core/ModelIO.h"
#include "lang/common/Frontend.h"
#include "ml/crf/Crf.h"
#include "paths/Paths.h"

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace pigeon {
namespace core {

/// One unknown element of a prediction, ranked.
struct ElementPrediction {
  ast::ElementId Element = ast::InvalidElement; ///< Its element in the tree.
  Symbol Name;            ///< The name the source gives it.
  const char *Kind = "?"; ///< ast::elementKindName() of the element.
  Symbol Label;           ///< The MAP label; invalid without candidates.
  /// The top-k candidate labels with their scores, best first.
  crf::Ranking Candidates;
  /// The decomposition of Label's score, when requested and Label is valid.
  std::optional<crf::NodeExplanation> Explanation;
};

/// One source on its way through the prediction sequence. Its symbols and
/// paths resolve through Interner and Table, which defer to the bundle's
/// for everything the bundle knows.
struct Prediction {
  std::unique_ptr<StringInterner> Interner; ///< Overlay of the bundle's.
  std::unique_ptr<paths::PathTable> Table;  ///< Overlay of the bundle's.
  lang::ParseResult Parse;                  ///< The tree and every diagnostic.
  crf::CrfGraph Graph;
  /// Step 3's output: one label per graph node, each unknown's ranked
  /// candidates (until step 4 moves them into Elements) and the graph's
  /// incidence.
  crf::Inference Inferred;
  std::vector<ElementPrediction> Elements; ///< In Graph.Unknowns order.

  /// True when the frontend built a tree, with or without diagnostics.
  bool parsed() const { return Parse.Tree.has_value(); }

  std::string_view str(Symbol S) const { return Interner->str(S); }
};

/// Step 1: parses \p Source with the bundle's frontend into a fresh
/// overlay of its interner.
Prediction parsePrediction(const ModelBundle &Bundle, std::string_view Source);

/// Step 2, on a parsed \p P: extracts its path-contexts with the bundle's
/// extraction configuration into a fresh overlay of its path table and
/// builds the CRF graph for the bundle's task.
void assemblePrediction(const ModelBundle &Bundle, Prediction &P);

/// Step 3, on assembled predictions: MAP inference over the whole batch
/// in one CrfModel::predictBatch, sharded over the process-default
/// workers, ranking each unknown's top-\p K candidates on the way; pass
/// the largest k that step 4 will rank any of them with. Each
/// prediction's Inferred equals what CrfModel::predict and topK give its
/// graph alone, whatever else is in the batch.
void inferPredictions(const ModelBundle &Bundle,
                      std::span<Prediction *const> Batch, int K);

/// Step 4, on an inferred \p P: fills P.Elements with each unknown
/// element's MAP label and top-\p K candidates (a prefix of what step 3
/// ranked, so K must not exceed its k; the lists move out of P.Inferred)
/// and, when \p ExplainPaths is set, the explanation of its label keeping
/// that many attributions (0 keeps all). It scores nothing itself.
void rankPrediction(const ModelBundle &Bundle, Prediction &P, int K,
                    std::optional<int> ExplainPaths = std::nullopt);

/// Steps 2 to 4 on a parsed \p P, as a batch of one.
void completePrediction(const ModelBundle &Bundle, Prediction &P, int K,
                        std::optional<int> ExplainPaths = std::nullopt);

/// Runs every step on \p Source. A source the frontend builds no tree for
/// comes back unparsed, with its diagnostics and nothing else.
Prediction predictSource(const ModelBundle &Bundle, std::string_view Source,
                         int K,
                         std::optional<int> ExplainPaths = std::nullopt);

} // namespace core
} // namespace pigeon

#endif // PIGEON_CORE_PREDICT_H
