//===- ContextsIO.h - On-disk extracted path-contexts -----------*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The extracted-contexts artifact (format `pigeon.contexts.v1`): every
/// piece of a corpus the learners consume after extraction — interner,
/// packed path table, and per-file context records — decoupled from the
/// trees that produced it. `pigeon extract --out` writes one; `pigeon
/// train/eval --from-contexts` stream it back, so the expensive
/// parse+extract front half of the pipeline runs once per corpus instead
/// of once per training run.
///
/// A context record (crf::ContextRecord) resolves each path-context end
/// to exactly what CRF graph assembly reads off the tree — the element
/// id (if any), the end's value symbol, and for semi-paths the ancestor
/// kind. crf::buildGraph() takes records as its input, whether they come
/// from an artifact or were just resolved from a tree, so the same corpus
/// yields bit-identical models through either route, at any thread count
/// (the determinism contract extended to disk).
///
/// trainBundle() is `pigeon train` without its file I/O: the artifact's
/// graphs assembled (assembleGraphs(), shared with evalArtifact()) and a
/// CRF trained into a ModelBundle that takes over the artifact's symbol
/// and path space.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_CORE_CONTEXTSIO_H
#define PIGEON_CORE_CONTEXTSIO_H

#include "core/Experiments.h"
#include "core/ModelIO.h"
#include "core/Pipeline.h"
#include "ml/crf/Crf.h"
#include "paths/Paths.h"

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace pigeon {
namespace core {

/// All contexts of one corpus file, with the element table graph
/// assembly selects unknowns from.
struct FileRecord {
  std::string Project;
  std::string FileName;
  std::vector<ast::ElementInfo> Elements;
  std::vector<crf::ContextRecord> Contexts;
  std::vector<crf::TriRecord> Tris;
};

/// A complete extracted corpus: the `pigeon.contexts.v1` artifact.
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

/// Extracts every file of \p Corpus (sharded over Options.Threads, same
/// bit-identical merge as extractCorpusContexts) and resolves the results
/// into records. CONSUMES the corpus interner: the artifact takes
/// ownership, so \p Corpus must not be used for symbol lookups afterwards
/// (its trees stay readable structurally).
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
/// factors when the artifact carries them. Their composite labels intern
/// into \p Interner, which must be the symbol space of the artifact's
/// records (its own interner, or a bundle's after rebaseArtifact).
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
  /// Correct / Total; NaN when Total == 0 — there is no meaningful
  /// accuracy of nothing (mirrors Histogram::percentile's empty
  /// contract; NaN serializes as `null`, never as a fake score).
  double accuracy() const;
};

/// Scores \p Bundle on \p Artifact, which must already be rebased onto
/// the bundle's interner and path table (see rebaseArtifact): assembles
/// the CRF graphs (assembleGraphs), batch-predicts sharded over the
/// process-default workers, and tallies unknown-element accuracy. Takes
/// the bundle mutably because composite tri-factor labels intern into
/// its symbol space.
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

} // namespace core
} // namespace pigeon

#endif // PIGEON_CORE_CONTEXTSIO_H
