//===- Experiments.h - Experiment runners for the evaluation ----*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reusable experiment drivers behind every table and figure of §5:
/// CRF name prediction under interchangeable representations (AST paths,
/// no-paths, single-statement relations, token n-grams), full-type
/// prediction, the rule-based and sub-token baselines, and the three
/// word2vec context encodings of Table 3. Each driver returns the metrics
/// the paper reports (accuracy, sub-token F1, training time, model size).
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_CORE_EXPERIMENTS_H
#define PIGEON_CORE_EXPERIMENTS_H

#include "core/Pipeline.h"
#include "ml/crf/Crf.h"
#include "ml/word2vec/Sgns.h"
#include "paths/Paths.h"

#include <string>

namespace pigeon {
namespace core {

/// The input representation fed to the (unchanged) CRF learner — the
/// paper's central variable.
enum class Representation {
  AstPaths,       ///< PIGEON: abstract AST path-contexts.
  NoPaths,        ///< "bag of near identifiers" (α = no-path).
  IntraStatement, ///< UnuglifyJS-style single-statement relations.
  Ngrams,         ///< Sequential token n-gram factors.
};

const char *representationName(Representation R);

/// Options shared by the CRF experiments.
struct CrfExperimentOptions {
  paths::ExtractionConfig Extraction;
  crf::CrfConfig Crf;
  Representation Repr = Representation::AstPaths;
  /// n for Representation::Ngrams (the paper's Java baseline uses 4).
  int NgramN = 4;
  /// Keep-probability p for training path-context downsampling (Fig. 11).
  double DownsampleP = 1.0;
  /// Also add 3-wise path-context factors (§4's n-wise generalization).
  bool TriContexts = false;
  double TestFraction = 0.25;
  uint64_t Seed = 42;
  /// Worker threads for the extraction and inference stages (0 = process
  /// default; see parallel::resolveThreads). Results are identical at any
  /// thread count.
  size_t Threads = 0;
};

/// Metrics every experiment reports.
struct ExperimentResult {
  double Accuracy = 0;
  double SubtokenF1 = 0;
  double TrainSeconds = 0;
  size_t NumFeatures = 0;
  size_t TrainContexts = 0;
  size_t Predictions = 0;
  size_t DistinctPaths = 0;
};

/// Path-contexts (and optional 3-wise contexts) of one corpus file, as
/// produced by the sharded extraction stage.
struct FileContexts {
  std::vector<paths::PathContext> Contexts;
  std::vector<paths::TriContext> Tris;
};

/// Extracts the representation contexts of Corpus.Files[Indices[I]] for
/// every I, sharded over Options.Threads workers with a private PathTable
/// per shard. Shard tables are merged into \p Table in file order, so the
/// PathIds in the result (and the contents of \p Table) are bit-identical
/// to a serial extraction — the determinism contract the parallel
/// pipeline is built on (DESIGN.md §Parallelism).
std::vector<FileContexts>
extractCorpusContexts(const Corpus &Corpus,
                      const std::vector<size_t> &Indices,
                      const CrfExperimentOptions &Options,
                      paths::PathTable &Table);

/// Trains and evaluates a CRF for variable- or method-name prediction.
ExperimentResult runCrfNameExperiment(const Corpus &Corpus, Task Task,
                                      const CrfExperimentOptions &Options);

/// Trains and evaluates the full-type CRF (paths from leaves to the
/// expression nonterminal, §5.3.3). Types are compared by exact string.
ExperimentResult runCrfTypeExperiment(const Corpus &Corpus,
                                      const CrfExperimentOptions &Options);

/// Builds the single-unknown full-type graphs of Corpus.Files[I] for
/// every I in \p Indices — one graph per API-shaped typed expression —
/// sharded like extractCorpusContexts with the same bit-identical merge.
/// Factored out of runCrfTypeExperiment so `pigeon explain` builds the
/// exact graphs the type experiment evaluates. \p ContextCount, when
/// non-null, accumulates the number of extracted leaf-to-target paths.
std::vector<crf::CrfGraph>
buildTypeGraphs(const Corpus &Corpus, const std::vector<size_t> &Indices,
                const CrfExperimentOptions &Options, paths::PathTable &Table,
                size_t *ContextCount);

//===----------------------------------------------------------------------===//
// Prediction provenance
//===----------------------------------------------------------------------===//

/// One explained prediction for the `pigeon explain` report: gold and
/// predicted labels plus the strongest contributing AST paths, with all
/// symbols/paths rendered to strings so callers only need TablePrinter.
struct ExplainedPrediction {
  std::string Gold;
  std::string Predicted;
  bool Correct = false;
  double Score = 0; ///< Total score of the predicted label (= Bias + Σ).
  double Bias = 0;
  struct PathLine {
    std::string Path;     ///< Rendered abstract path.
    std::string Neighbor; ///< Other-end label (empty for unary factors).
    bool Unary = false;
    double Score = 0;  ///< VotePrior × Vote + Weight.
    double Weight = 0; ///< Learned factor-weight part.
    double Vote = 0;   ///< Empirical candidate-vote part.
  };
  std::vector<PathLine> Paths;
};

/// Writes one `prediction` record plus one `attribution` record per path
/// of \p Ex into the global event log (no-op when the log is closed).
/// \p Task tags the records ("vars", "methods", "types"); \p Ex carries
/// the decomposition of the *predicted* label's score.
void logPredictionProvenance(std::string_view Task, const StringInterner &SI,
                             const paths::PathTable &Table,
                             std::string_view Gold,
                             std::string_view Predicted,
                             const crf::NodeExplanation &Ex);

/// The `pigeon explain` driver: trains a CRF on the train split of
/// \p Corpus (any task, including FullTypes) and explains the first
/// \p MaxNodes test-split predictions — each with its top-\p TopK
/// contributing paths. Every explained prediction is also written into
/// the event log via logPredictionProvenance.
std::vector<ExplainedPrediction>
explainCrfPredictions(const Corpus &Corpus, Task Task,
                      const CrfExperimentOptions &Options, int TopK,
                      size_t MaxNodes);

/// The rule-based Java namer on the test split (no training involved).
ExperimentResult runRuleBasedJava(const Corpus &Corpus, double TestFraction,
                                  uint64_t Seed);

/// The sub-token bag method namer (the Allamanis et al. stand-in).
ExperimentResult runSubtokenMethodNamer(const Corpus &Corpus,
                                        double TestFraction, uint64_t Seed);

/// The naive java.lang.String type baseline (§5.3.3).
ExperimentResult runStringTypeBaseline(const Corpus &Corpus,
                                       double TestFraction, uint64_t Seed);

//===----------------------------------------------------------------------===//
// word2vec experiments (Table 3)
//===----------------------------------------------------------------------===//

/// Context encodings compared in Table 3.
enum class W2vContexts {
  AstPaths,      ///< (path, other-end value) pairs — PIGEON.
  TokenStream,   ///< Surrounding tokens with relative offsets.
  PathNeighbors, ///< Path-context neighbours without the path itself.
};

const char *w2vContextsName(W2vContexts C);

struct W2vExperimentOptions {
  paths::ExtractionConfig Extraction;
  w2v::SgnsConfig Sgns;
  W2vContexts Contexts = W2vContexts::AstPaths;
  double TestFraction = 0.25;
  uint64_t Seed = 42;
};

/// Variable-name prediction with SGNS + Eq. 4 under the chosen context
/// encoding.
ExperimentResult runW2vNameExperiment(const Corpus &Corpus,
                                      const W2vExperimentOptions &Options);

} // namespace core
} // namespace pigeon

#endif // PIGEON_CORE_EXPERIMENTS_H
