//===- ContextsIO.h - The train/eval route over context records -*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PIGEON's one train/eval route, and the extracted-contexts artifact
/// (format `pigeon.contexts.v1`) it runs over: every piece of a corpus the
/// learners consume after extraction — interner, packed path table, and
/// per-file context records — decoupled from the trees that produced it.
/// `pigeon extract --out` writes one; `pigeon train/eval --from-contexts`
/// stream it back, so the expensive parse+extract front half of the
/// pipeline runs once per corpus instead of once per training run.
///
/// A context record (crf::ContextRecord) resolves each path-context end
/// to exactly what CRF graph assembly reads off the tree — the element
/// id (if any), the end's value symbol, and for semi-paths the ancestor
/// kind. crf::buildGraph() takes records as its input, whether they come
/// from an artifact or were just resolved from a tree, so the same corpus
/// yields bit-identical models through either route, at any thread count
/// (the determinism contract extended to disk).
///
/// The route: buildFileRecords() (the records half of
/// buildContextsArtifact()) → assembleGraphs() → train → evalGraphs().
/// `pigeon train` and `pigeon eval` run it through trainBundle() and
/// evalArtifact(); the paper's CRF experiments (Experiments.h) run the
/// same steps over a corpus split, keeping an artifact whose Interner is
/// left unset — the corpus keeps its symbols, so one corpus serves many
/// runs — and passing the corpus interner to assembleGraphs().
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_CORE_CONTEXTSIO_H
#define PIGEON_CORE_CONTEXTSIO_H

#include "core/ModelIO.h"
#include "core/Pipeline.h"
#include "ml/crf/Crf.h"
#include "paths/Paths.h"

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pigeon {
namespace core {

//===----------------------------------------------------------------------===//
// Extraction
//===----------------------------------------------------------------------===//

/// The input representation fed to the (unchanged) CRF learner — the
/// paper's central variable.
enum class Representation {
  AstPaths,       ///< PIGEON: abstract AST path-contexts.
  NoPaths,        ///< "bag of near identifiers" (α = no-path).
  IntraStatement, ///< UnuglifyJS-style single-statement relations.
  Ngrams,         ///< Sequential token n-gram factors.
};

/// Options shared by the CRF experiments; the route's extraction reads
/// Extraction, Repr, NgramN, TriContexts and Threads.
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

/// \p Id with a provisional delta-overlay id replaced by its final id
/// under \p Map (the overlay's PathTable::absorb() result); final ids and
/// InvalidPath pass through.
inline paths::PathId finalPathId(paths::PathId Id,
                                 const std::vector<paths::PathId> &Map) {
  constexpr paths::PathId Bit = paths::PathTable::ProvisionalBit;
  return Id != paths::InvalidPath && (Id & Bit) ? Map[Id & ~Bit] : Id;
}

/// The one deterministic sharded-intern routine of the extraction stages.
/// Runs \p Extract(I, Into) for every item I in [0, Costs.size()), cut
/// into cost-balanced chunks over \p Threads workers (0 = process
/// default): chunk 0 extracts serially into \p Table, warming it with the
/// common paths, and the other chunks extract in parallel into delta
/// overlays over the then-frozen table, which hand out provisional ids for
/// novel paths. Absorbing the overlays in chunk order replays the serial
/// first-encounter order; \p Remap(I, Map) then rewrites item I's
/// provisional ids through finalPathId(), in parallel again. The ids, and
/// \p Table itself, are bit-identical to a serial run — the determinism
/// contract the parallel pipeline is built on (DESIGN.md §Parallelism).
void extractSharded(
    const std::vector<uint64_t> &Costs, size_t Threads,
    paths::PathTable &Table,
    const std::function<void(size_t I, paths::PathTable &Into)> &Extract,
    const std::function<void(size_t I, const std::vector<paths::PathId> &Map)>
        &Remap);

/// Path-contexts (and optional 3-wise contexts) of one corpus file, as
/// produced by the sharded extraction stage.
struct FileContexts {
  std::vector<paths::PathContext> Contexts;
  std::vector<paths::TriContext> Tris;
};

/// Extracts the representation contexts of Corpus.Files[Indices[I]] for
/// every I through extractSharded(), cost-balanced by tree size: per
/// file, pairwise contexts intern first, then (when enabled) 3-wise ones.
std::vector<FileContexts>
extractCorpusContexts(const Corpus &Corpus,
                      const std::vector<size_t> &Indices,
                      const CrfExperimentOptions &Options,
                      paths::PathTable &Table);

//===----------------------------------------------------------------------===//
// Records and the artifact
//===----------------------------------------------------------------------===//

/// All contexts of one corpus file, with the element table graph
/// assembly selects unknowns from.
struct FileRecord {
  std::string Project;
  std::string FileName;
  std::vector<ast::ElementInfo> Elements;
  std::vector<crf::ContextRecord> Contexts;
  std::vector<crf::TriRecord> Tris;
};

/// A complete extracted corpus: the `pigeon.contexts.v1` artifact. An
/// experiment's artifact leaves Interner unset: its records speak the
/// symbol space of the corpus they were built from.
struct ContextsArtifact {
  lang::Language Lang = lang::Language::JavaScript;
  Task TaskKind = Task::VariableNames;
  paths::ExtractionConfig Extraction;
  Representation Repr = Representation::AstPaths;
  bool TriContexts = false;
  std::unique_ptr<StringInterner> Interner;
  paths::PathTable Table;
  std::vector<FileRecord> Files;
};

/// The records half of buildContextsArtifact(): extracts
/// Corpus.Files[Indices[I]] for every I (extractCorpusContexts, interning
/// into \p Table) and resolves the contexts into records, one per file in
/// \p Indices order. Leaves the corpus interner with the corpus.
std::vector<FileRecord> buildFileRecords(const Corpus &Corpus,
                                         const std::vector<size_t> &Indices,
                                         const CrfExperimentOptions &Options,
                                         paths::PathTable &Table);

/// buildFileRecords() over every file of \p Corpus, packaged with the
/// task and extraction settings. CONSUMES the corpus interner: the
/// artifact takes ownership, so \p Corpus must not be used for symbol
/// lookups afterwards (its trees stay readable structurally).
ContextsArtifact buildContextsArtifact(Corpus &Corpus, Task TaskKind,
                                       const CrfExperimentOptions &Options);

/// Writes \p Artifact in the versioned `pigeon.contexts.v1` binary format.
void saveContexts(std::ostream &OS, const ContextsArtifact &Artifact);

/// Restores an artifact written by saveContexts(). \returns nullptr on a
/// malformed or version-mismatched stream.
std::unique_ptr<ContextsArtifact> loadContexts(std::istream &IS);

/// crf::buildGraph() over one file's records.
crf::CrfGraph buildGraphFromRecord(const FileRecord &File,
                                   const crf::ElementSelector &Selector);

/// The CRF graph of every file of \p Artifact, in file order, with 3-wise
/// factors when the artifact carries them: the one records-to-graphs
/// loop. Composite labels intern into \p Interner, which must be the
/// symbol space of the artifact's records (its own interner, a bundle's
/// after rebaseArtifact, or the corpus' for an experiment's artifact).
std::vector<crf::CrfGraph> assembleGraphs(const ContextsArtifact &Artifact,
                                          StringInterner &Interner);

/// Trains a bundle on every file of \p Artifact: the bundle takes over
/// the artifact's interner, path table, language, task and extraction
/// configuration, and its CRF (default configuration, as a saved bundle
/// serves it) learns from assembleGraphs(). `pigeon train` saves the
/// result; both of its routes converge here, which is what makes them
/// produce byte-identical bundles for the same corpus.
ModelBundle trainBundle(ContextsArtifact &&Artifact);

/// Accuracy tally of one evaluation run. Total == 0 means the corpus had
/// nothing to evaluate (no predictable elements) — callers must surface
/// that explicitly instead of presenting a 0-of-0 run as a real score
/// (the CLI prints an "n=0, no elements" note and exits nonzero; a
/// previous version fed the degenerate 0.0 straight into the trajectory).
struct EvalStats {
  size_t Total = 0;
  size_t Correct = 0;
  /// Micro-averaged sub-token F1 (§5.2) for method names, the task the
  /// paper scores with it; 0 for the other tasks.
  double SubtokenF1 = 0;
  /// Correct / Total; NaN when Total == 0 — there is no meaningful
  /// accuracy of nothing (mirrors Histogram::percentile's empty
  /// contract; NaN serializes as `null`, never as a fake score).
  double accuracy() const;
};

/// The one scorer: batch-predicts \p Graphs with \p Model over \p Threads
/// workers (0 = process default) and tallies every unknown under the
/// paper's §5.2 metric for \p TaskKind — names match case-insensitively,
/// ignoring non-alphanumerics (namesMatch: totalCount == total_count);
/// types match exactly ("int[]" is not "int"); an absent prediction is
/// wrong. With the event log open, every misprediction leaves its
/// evidence through logPredictionProvenance(). \p Interner and \p Table
/// are the symbol and path spaces of the graphs.
EvalStats evalGraphs(const crf::CrfModel &Model,
                     const std::vector<crf::CrfGraph> &Graphs,
                     const StringInterner &Interner,
                     const paths::PathTable &Table, Task TaskKind,
                     size_t Threads = 0);

/// Scores \p Bundle on \p Artifact, which must already be rebased onto
/// the bundle's interner and path table (see rebaseArtifact):
/// evalGraphs() over assembleGraphs(). Takes the bundle mutably because
/// composite tri-factor labels intern into its symbol space.
EvalStats evalArtifact(ModelBundle &Bundle, const ContextsArtifact &Artifact);

/// Rebases \p Artifact onto an existing symbol/path space (a loaded model
/// bundle's): interns every artifact string into \p TargetSI, rewrites
/// every record symbol through the resulting map, and re-interns every
/// packed path into \p TargetTable (re-encoding symbol payloads via
/// remapPackedPath). After this the artifact's records speak the target
/// space directly. \returns false if the artifact references symbols or
/// paths out of range (corrupt artifact).
bool rebaseArtifact(ContextsArtifact &Artifact, StringInterner &TargetSI,
                    paths::PathTable &TargetTable);

/// Writes one `prediction` record plus one `attribution` record per path
/// of \p Ex into the global event log (no-op when the log is closed).
/// \p Task tags the records ("vars", "methods", "types"); \p Ex carries
/// the decomposition of the *predicted* label's score.
void logPredictionProvenance(std::string_view Task, const StringInterner &SI,
                             const paths::PathTable &Table,
                             std::string_view Gold,
                             std::string_view Predicted,
                             const crf::NodeExplanation &Ex);

} // namespace core
} // namespace pigeon

#endif // PIGEON_CORE_CONTEXTSIO_H
