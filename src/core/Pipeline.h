//===- Pipeline.h - Corpus parsing, splitting, task selectors ---*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PIGEON's plumbing: parse sources with the right frontend, split
/// corpora by project (no train/test leakage, as in the paper's
/// per-project GitHub splits), define which program elements each
/// prediction task targets, and name languages and tasks with the short
/// tokens every surface shares (CLI flags, serve requests, metric names).
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_CORE_PIPELINE_H
#define PIGEON_CORE_PIPELINE_H

#include "ast/Ast.h"
#include "datagen/Sketch.h"
#include "lang/common/Frontend.h"
#include "ml/crf/Crf.h"
#include "paths/Paths.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pigeon {
namespace core {

/// One parsed file of a corpus.
struct ParsedFile {
  std::string Project;
  std::string FileName;
  ast::Tree Tree;
};

/// One dropped file: which file, and the first diagnostic that killed it
/// ("no tree" when the frontend produced no AST at all).
struct ParseFailureRecord {
  std::string FileName;
  std::string Reason;
};

/// A parsed corpus. Owns the interner all its trees point into.
struct Corpus {
  lang::Language Lang = lang::Language::JavaScript;
  std::unique_ptr<StringInterner> Interner;
  std::vector<ParsedFile> Files;
  /// Total source bytes (Table 1's size column).
  size_t SourceBytes = 0;
  /// Number of files that failed to parse (dropped).
  size_t ParseFailures = 0;
  /// The first MaxFailureRecords dropped files with their first
  /// diagnostic, for triage; ParseFailures is the authoritative count.
  static constexpr size_t MaxFailureRecords = 32;
  std::vector<ParseFailureRecord> FailureRecords;

  size_t numProjects() const;
};

/// Parses \p Source with the frontend for \p Lang, interning into \p SI.
lang::ParseResult parseSource(lang::Language Lang, std::string_view Source,
                              StringInterner &SI);

/// Parses every file of \p Sources with the frontend for \p Lang. Files
/// with diagnostics are dropped (and counted), like unparsable GitHub
/// files. For Java, expression types are annotated with the type oracle.
///
/// The parse is sharded over \p Threads workers (0 = the process default,
/// see parallel::resolveThreads), each with a private StringInterner;
/// shards are merged in file order through a symbol-remap pass, so the
/// returned Corpus — interner contents *and* symbol ids — is bit-identical
/// to a serial parse at any thread count.
Corpus parseCorpus(const std::vector<datagen::SourceFile> &Sources,
                   lang::Language Lang, size_t Threads = 0);

/// Sanitizes raw diagnostic text into a metric-name component: lowercased,
/// runs of characters outside [a-z0-9_.-] collapsed to '_', truncated.
/// Keeps free-form parse errors from leaking spaces/quotes into
/// `parse.fail.reason.*` counter names (and thus JSON keys).
std::string metricSafeReason(std::string_view Raw);

/// Counts one parse failure under `parse.fail.reason.<sanitized>`. The
/// number of distinct reason counters is capped per *process* (not per
/// call); reasons past the cap fold into `parse.fail.reason.other`, so a
/// pathological corpus or repeated parses cannot flood the registry.
void recordParseFailureReason(std::string_view RawReason);

/// Train/test file index split, grouped by project so no project spans
/// the boundary.
struct Split {
  std::vector<size_t> Train;
  std::vector<size_t> Test;
};
/// A \p TestFraction <= 0 yields an empty test split (train on
/// everything); a positive fraction reserves at least one project for
/// test, but never the only project of a multi-project corpus.
Split splitByProject(const Corpus &Corpus, double TestFraction,
                     uint64_t Seed);

/// The paper's three prediction tasks (§5.3).
enum class Task {
  VariableNames, ///< Locals and parameters (§5.3.1).
  MethodNames,   ///< Methods defined in the file (§5.3.2).
  FullTypes,     ///< Fully-qualified expression types, Java (§5.3.3).
};

const char *taskName(Task T);

/// The short token of \p Lang: "js", "java", "py" or "cs". It is what
/// `--lang` and a serve request's "lang" accept, and what metric names
/// (`parse.<lang>.*`) carry.
const char *languageToken(lang::Language Lang);

/// Inverse of languageToken(); also accepts "javascript", "python" and
/// "csharp". \returns std::nullopt for any other token.
std::optional<lang::Language> languageFromToken(std::string_view Token);

/// The short token of \p T: "vars", "methods" or "types". It is what
/// `--task` and a serve request's "task" accept, and what metric names
/// (`eval.<task>.accuracy`) carry.
const char *taskToken(Task T);

/// Inverse of taskToken(). \returns std::nullopt for any other token.
std::optional<Task> taskFromToken(std::string_view Token);

/// The unknown-element selector the CRF uses for \p T (FullTypes builds
/// per-expression graphs instead and has no selector).
crf::ElementSelector selectorFor(Task T);

/// Validation-tuned max_length/max_width per language and task — the
/// analogue of the paper's Table 2 "Params" column. (Our optimal lengths
/// are shorter than the paper's for some languages because the synthetic
/// functions are smaller than real GitHub functions; see EXPERIMENTS.md.)
paths::ExtractionConfig tunedExtraction(lang::Language Lang, Task T);

} // namespace core
} // namespace pigeon

#endif // PIGEON_CORE_PIPELINE_H
