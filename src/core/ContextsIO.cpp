//===- ContextsIO.cpp - The train/eval route over context records ------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/ContextsIO.h"

#include "baselines/Baselines.h"
#include "ml/common/Metrics.h"
#include "support/BinaryIO.h"
#include "support/EventLog.h"
#include "support/Parallel.h"
#include "support/Telemetry.h"

#include <istream>
#include <limits>
#include <ostream>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::core;
using namespace pigeon::crf;
using namespace pigeon::paths;

namespace {

constexpr uint32_t ContextsMagic = 0x50494743; // "PIGC"
constexpr uint32_t ContextsVersion = 1;

/// Upper bound on any single element/context/file count read from disk;
/// corrupted counts fail fast instead of allocating terabytes.
constexpr uint64_t MaxCount = 1u << 30;

template <typename T> void writePod(std::ostream &OS, const T &Value) {
  OS.write(reinterpret_cast<const char *>(&Value), sizeof(Value));
}

template <typename T> bool readPod(std::istream &IS, T &Value) {
  IS.read(reinterpret_cast<char *>(&Value), sizeof(Value));
  return static_cast<bool>(IS);
}

/// ElementIds are encoded off-by-one so the InvalidElement sentinel
/// becomes the single-byte varint 0.
void writeElemId(std::ostream &OS, ElementId Id) {
  io::writeVarint(OS, static_cast<uint32_t>(Id + 1));
}

bool readElemId(std::istream &IS, ElementId &Id, size_t NumElements) {
  uint64_t Raw = 0;
  if (!io::readVarint(IS, Raw))
    return false;
  if (Raw == 0) {
    Id = InvalidElement;
    return true;
  }
  if (Raw > NumElements)
    return false;
  Id = static_cast<ElementId>(Raw - 1);
  return true;
}

bool readSymbol(std::istream &IS, Symbol &Out, size_t InternerSize) {
  uint64_t Idx = 0;
  if (!io::readVarint(IS, Idx) || Idx >= InternerSize)
    return false;
  Out = Symbol::fromIndex(static_cast<uint32_t>(Idx));
  return true;
}

bool readPathId(std::istream &IS, PathId &Out, size_t TableSize) {
  uint64_t Id = 0;
  if (!io::readVarint(IS, Id) || Id < 1 || Id > TableSize)
    return false;
  Out = static_cast<PathId>(Id);
  return true;
}

/// Extracts the contexts a representation feeds to the CRF.
std::vector<PathContext> contextsFor(const Tree &Tree,
                                     const CrfExperimentOptions &Options,
                                     PathTable &Table) {
  switch (Options.Repr) {
  case Representation::AstPaths:
    return extractPathContexts(Tree, Options.Extraction, Table);
  case Representation::NoPaths: {
    // The paper's no-path baseline is a "bag of near identifiers": the
    // neighbours' names without any syntactic relation. Semi-paths would
    // leak ancestor kinds (structure) into the bag, so they are off.
    ExtractionConfig Config = Options.Extraction;
    Config.Abst = Abstraction::NoPath;
    Config.IncludeSemiPaths = false;
    return extractPathContexts(Tree, Config, Table);
  }
  case Representation::IntraStatement: {
    auto All = extractPathContexts(Tree, Options.Extraction, Table);
    return baselines::filterIntraStatement(Tree, All);
  }
  case Representation::Ngrams:
    return baselines::ngramContexts(Tree, Options.NgramN, Table);
  }
  return {};
}

} // namespace

//===----------------------------------------------------------------------===//
// Extraction and records
//===----------------------------------------------------------------------===//

void core::extractSharded(
    const std::vector<uint64_t> &Costs, size_t Threads, PathTable &Table,
    const std::function<void(size_t, PathTable &)> &Extract,
    const std::function<void(size_t, const std::vector<PathId> &)> &Remap) {
  Threads = parallel::resolveThreads(Threads);
  // A cost-balanced plan: a giant item gets an (oversubscribed,
  // stealable) chunk of its own instead of anchoring a straggler.
  parallel::ChunkPlan Plan = parallel::planChunks(Costs.size(), Threads, Costs);
  size_t NumChunks = Plan.count();
  if (NumChunks <= 1) {
    for (size_t I = 0; I < Costs.size(); ++I)
      Extract(I, Table);
    return;
  }

  for (size_t I = Plan.begin(0); I < Plan.end(0); ++I)
    Extract(I, Table);
  std::vector<std::unique_ptr<PathTable>> Overlays(NumChunks);
  parallel::parallelChunks(
      Plan, Threads,
      [&](size_t Chunk, size_t Begin, size_t End) {
        Overlays[Chunk] =
            std::make_unique<PathTable>(PathTable::Delta, Table);
        for (size_t I = Begin; I < End; ++I)
          Extract(I, *Overlays[Chunk]);
      },
      /*FirstChunk=*/1);

  // Only provisional ids need rewriting: final ids were assigned by the
  // shared table already.
  std::vector<std::vector<PathId>> Maps(NumChunks);
  for (size_t Chunk = 1; Chunk < NumChunks; ++Chunk)
    if (Overlays[Chunk])
      Maps[Chunk] = Table.absorb(*Overlays[Chunk]);
  parallel::parallelChunks(
      Plan, Threads,
      [&](size_t Chunk, size_t Begin, size_t End) {
        for (size_t I = Begin; I < End; ++I)
          Remap(I, Maps[Chunk]);
      },
      /*FirstChunk=*/1);
}

std::vector<FileContexts>
core::extractCorpusContexts(const Corpus &Corpus,
                            const std::vector<size_t> &Indices,
                            const CrfExperimentOptions &Options,
                            PathTable &Table) {
  static const telemetry::Stage ExtractStage("extract");
  telemetry::TraceScope Phase(ExtractStage);
  std::vector<FileContexts> Out(Indices.size());
  std::vector<uint64_t> Costs;
  Costs.reserve(Indices.size());
  for (size_t I : Indices)
    Costs.push_back(Corpus.Files[I].Tree.size());
  extractSharded(
      Costs, Options.Threads, Table,
      [&](size_t I, PathTable &Into) {
        const Tree &T = Corpus.Files[Indices[I]].Tree;
        Out[I].Contexts = contextsFor(T, Options, Into);
        if (Options.TriContexts)
          Out[I].Tris = extractTriContexts(T, Options.Extraction, Into);
      },
      [&](size_t I, const std::vector<PathId> &Map) {
        for (PathContext &Ctx : Out[I].Contexts)
          Ctx.Path = finalPathId(Ctx.Path, Map);
        for (TriContext &Tri : Out[I].Tris)
          Tri.Path = finalPathId(Tri.Path, Map);
      });
  return Out;
}

std::vector<FileRecord>
core::buildFileRecords(const Corpus &Corpus,
                       const std::vector<size_t> &Indices,
                       const CrfExperimentOptions &Options, PathTable &Table) {
  auto Extracted = extractCorpusContexts(Corpus, Indices, Options, Table);
  telemetry::TraceScope Phase("records");
  std::vector<FileRecord> Files(Indices.size());
  for (size_t I = 0; I < Indices.size(); ++I) {
    const ParsedFile &PF = Corpus.Files[Indices[I]];
    FileRecord &Rec = Files[I];
    Rec.Project = PF.Project;
    Rec.FileName = PF.FileName;
    Rec.Elements = PF.Tree.elements();
    Rec.Contexts = contextRecords(PF.Tree, Extracted[I].Contexts);
    Rec.Tris = triRecords(PF.Tree, Extracted[I].Tris);
  }
  return Files;
}

ContextsArtifact
core::buildContextsArtifact(Corpus &Corpus, Task TaskKind,
                            const CrfExperimentOptions &Options) {
  ContextsArtifact Art;
  Art.Lang = Corpus.Lang;
  Art.TaskKind = TaskKind;
  Art.Extraction = Options.Extraction;
  Art.Repr = Options.Repr;
  Art.TriContexts = Options.TriContexts;
  std::vector<size_t> Indices(Corpus.Files.size());
  for (size_t I = 0; I < Indices.size(); ++I)
    Indices[I] = I;
  Art.Files = buildFileRecords(Corpus, Indices, Options, Art.Table);
  // The artifact owns the symbol space its records and paths refer to.
  Art.Interner = std::move(Corpus.Interner);
  return Art;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

void core::saveContexts(std::ostream &OS, const ContextsArtifact &Art) {
  writePod(OS, ContextsMagic);
  writePod(OS, ContextsVersion);
  writePod(OS, static_cast<uint8_t>(Art.Lang));
  writePod(OS, static_cast<uint8_t>(Art.TaskKind));
  writePod(OS, static_cast<uint8_t>(Art.Repr));
  writePod(OS, static_cast<uint8_t>(Art.TriContexts));
  writePod(OS, static_cast<int32_t>(Art.Extraction.MaxLength));
  writePod(OS, static_cast<int32_t>(Art.Extraction.MaxWidth));
  writePod(OS, static_cast<uint8_t>(Art.Extraction.Abst));
  writePod(OS, static_cast<uint8_t>(Art.Extraction.IncludeSemiPaths));

  io::writeVarint(OS, Art.Interner->size());
  for (uint32_t I = 1; I < Art.Interner->size(); ++I)
    io::writeString(OS, Art.Interner->str(Symbol::fromIndex(I)));

  io::writeVarint(OS, Art.Table.size());
  for (uint32_t I = 1; I <= Art.Table.size(); ++I)
    io::writeBytes(OS, Art.Table.bytes(I));

  io::writeVarint(OS, Art.Files.size());
  for (const FileRecord &Rec : Art.Files) {
    io::writeString(OS, Rec.Project);
    io::writeString(OS, Rec.FileName);
    io::writeVarint(OS, Rec.Elements.size());
    for (const ElementInfo &E : Rec.Elements) {
      io::writeVarint(OS, E.Name.index());
      writePod(OS, static_cast<uint8_t>(E.Kind));
      writePod(OS, static_cast<uint8_t>(E.Predictable));
    }
    io::writeVarint(OS, Rec.Contexts.size());
    for (const ContextRecord &C : Rec.Contexts) {
      io::writeVarint(OS, C.Path);
      writeElemId(OS, C.StartElem);
      io::writeVarint(OS, C.StartValue.index());
      writeElemId(OS, C.EndElem);
      io::writeVarint(OS, C.EndValue.index());
      writePod(OS, static_cast<uint8_t>(C.Semi));
    }
    io::writeVarint(OS, Rec.Tris.size());
    for (const TriRecord &T : Rec.Tris) {
      io::writeVarint(OS, T.Path);
      for (int I = 0; I < 3; ++I) {
        writeElemId(OS, T.Elem[I]);
        io::writeVarint(OS, T.Value[I].index());
      }
    }
  }
}

std::unique_ptr<ContextsArtifact> core::loadContexts(std::istream &IS) {
  uint32_t Magic = 0, Version = 0;
  if (!readPod(IS, Magic) || Magic != ContextsMagic)
    return nullptr;
  if (!readPod(IS, Version) || Version != ContextsVersion)
    return nullptr;
  auto Art = std::make_unique<ContextsArtifact>();
  Art->Interner = std::make_unique<StringInterner>();
  uint8_t LangByte = 0, TaskByte = 0, ReprByte = 0, TriByte = 0;
  uint8_t AbstByte = 0, SemiByte = 0;
  int32_t Length = 0, Width = 0;
  if (!readPod(IS, LangByte) || !readPod(IS, TaskByte) ||
      !readPod(IS, ReprByte) || !readPod(IS, TriByte) ||
      !readPod(IS, Length) || !readPod(IS, Width) ||
      !readPod(IS, AbstByte) || !readPod(IS, SemiByte))
    return nullptr;
  Art->Lang = static_cast<lang::Language>(LangByte);
  Art->TaskKind = static_cast<Task>(TaskByte);
  Art->Repr = static_cast<Representation>(ReprByte);
  Art->TriContexts = TriByte != 0;
  Art->Extraction.MaxLength = Length;
  Art->Extraction.MaxWidth = Width;
  Art->Extraction.Abst = static_cast<Abstraction>(AbstByte);
  Art->Extraction.IncludeSemiPaths = SemiByte != 0;

  uint64_t InternerSize = 0;
  if (!io::readVarint(IS, InternerSize) || InternerSize < 1 ||
      InternerSize > MaxCount)
    return nullptr;
  std::string Str;
  for (uint64_t I = 1; I < InternerSize; ++I) {
    if (!io::readString(IS, Str))
      return nullptr;
    if (Art->Interner->intern(Str).index() != I)
      return nullptr; // Duplicate string: not a saved interner.
  }

  uint64_t TableSize = 0;
  if (!io::readVarint(IS, TableSize) || TableSize > MaxCount)
    return nullptr;
  std::vector<uint8_t> Bytes;
  for (uint64_t I = 1; I <= TableSize; ++I) {
    if (!io::readBytes(IS, Bytes))
      return nullptr;
    if (Art->Table.intern(Bytes) != I)
      return nullptr; // Duplicate path bytes: not a saved table.
  }

  uint64_t NumFiles = 0;
  if (!io::readVarint(IS, NumFiles) || NumFiles > MaxCount)
    return nullptr;
  Art->Files.resize(NumFiles);
  for (FileRecord &Rec : Art->Files) {
    if (!io::readString(IS, Rec.Project) ||
        !io::readString(IS, Rec.FileName))
      return nullptr;
    uint64_t NumElements = 0;
    if (!io::readVarint(IS, NumElements) || NumElements > MaxCount)
      return nullptr;
    Rec.Elements.resize(NumElements);
    for (ElementInfo &E : Rec.Elements) {
      uint8_t Kind = 0, Predictable = 0;
      if (!readSymbol(IS, E.Name, InternerSize) || !readPod(IS, Kind) ||
          !readPod(IS, Predictable))
        return nullptr;
      E.Kind = static_cast<ElementKind>(Kind);
      E.Predictable = Predictable != 0;
    }
    uint64_t NumContexts = 0;
    if (!io::readVarint(IS, NumContexts) || NumContexts > MaxCount)
      return nullptr;
    Rec.Contexts.resize(NumContexts);
    for (ContextRecord &C : Rec.Contexts) {
      uint8_t Semi = 0;
      if (!readPathId(IS, C.Path, TableSize) ||
          !readElemId(IS, C.StartElem, NumElements) ||
          !readSymbol(IS, C.StartValue, InternerSize) ||
          !readElemId(IS, C.EndElem, NumElements) ||
          !readSymbol(IS, C.EndValue, InternerSize) || !readPod(IS, Semi))
        return nullptr;
      C.Semi = Semi != 0;
    }
    uint64_t NumTris = 0;
    if (!io::readVarint(IS, NumTris) || NumTris > MaxCount)
      return nullptr;
    Rec.Tris.resize(NumTris);
    for (TriRecord &T : Rec.Tris) {
      if (!readPathId(IS, T.Path, TableSize))
        return nullptr;
      for (int I = 0; I < 3; ++I)
        if (!readElemId(IS, T.Elem[I], NumElements) ||
            !readSymbol(IS, T.Value[I], InternerSize))
          return nullptr;
    }
  }
  return Art;
}

//===----------------------------------------------------------------------===//
// Graph assembly and training
//===----------------------------------------------------------------------===//

CrfGraph core::buildGraphFromRecord(const FileRecord &File,
                                    const ElementSelector &Selector) {
  return buildGraph(File.Elements, File.Contexts, Selector);
}

std::vector<CrfGraph> core::assembleGraphs(const ContextsArtifact &Art,
                                           StringInterner &Interner) {
  telemetry::TraceScope Phase("assemble");
  ElementSelector Selector = selectorFor(Art.TaskKind);
  std::vector<CrfGraph> Graphs;
  Graphs.reserve(Art.Files.size());
  for (const FileRecord &Rec : Art.Files) {
    CrfGraph G = buildGraphFromRecord(Rec, Selector);
    if (Art.TriContexts)
      addTriFactors(G, Rec.Elements, Rec.Tris, Selector, Interner);
    Graphs.push_back(std::move(G));
  }
  return Graphs;
}

ModelBundle core::trainBundle(ContextsArtifact &&Art) {
  ModelBundle Bundle;
  Bundle.Lang = Art.Lang;
  Bundle.TaskKind = Art.TaskKind;
  Bundle.Extraction = Art.Extraction;
  Bundle.Interner = std::move(Art.Interner);
  Bundle.Table = std::move(Art.Table);
  std::vector<CrfGraph> Graphs = assembleGraphs(Art, *Bundle.Interner);
  telemetry::TraceScope Phase("train");
  Bundle.Model.train(Graphs);
  return Bundle;
}

bool core::rebaseArtifact(ContextsArtifact &Art, StringInterner &TargetSI,
                          PathTable &TargetTable) {
  // Symbol map: intern every artifact string into the target space, in
  // index order (so a target that equals the artifact space maps to
  // itself and new strings append after the existing ones).
  std::vector<Symbol> SymMap(Art.Interner->size());
  for (uint32_t I = 1; I < Art.Interner->size(); ++I)
    SymMap[I] = TargetSI.intern(Art.Interner->str(Symbol::fromIndex(I)));

  std::vector<PathId> PathMap(Art.Table.size() + 1, InvalidPath);
  std::vector<uint8_t> Buf;
  for (PathId Id = 1; Id <= Art.Table.size(); ++Id) {
    if (!remapPackedPath(Art.Table.bytes(Id), SymMap, Buf))
      return false;
    PathMap[Id] = TargetTable.intern(Buf);
  }

  auto MapSym = [&](Symbol &S) {
    if (S.index() >= SymMap.size())
      return false;
    S = SymMap[S.index()];
    return true;
  };
  for (FileRecord &Rec : Art.Files) {
    for (ElementInfo &E : Rec.Elements)
      if (!MapSym(E.Name))
        return false;
    for (ContextRecord &C : Rec.Contexts) {
      if (C.Path == InvalidPath || C.Path > Art.Table.size())
        return false;
      C.Path = PathMap[C.Path];
      if (!MapSym(C.StartValue) || !MapSym(C.EndValue))
        return false;
    }
    for (TriRecord &T : Rec.Tris) {
      if (T.Path == InvalidPath || T.Path > Art.Table.size())
        return false;
      T.Path = PathMap[T.Path];
      for (int I = 0; I < 3; ++I)
        if (!MapSym(T.Value[I]))
          return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

double EvalStats::accuracy() const {
  if (Total == 0)
    return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(Correct) / static_cast<double>(Total);
}

EvalStats core::evalGraphs(const CrfModel &Model,
                           const std::vector<CrfGraph> &Graphs,
                           const StringInterner &SI, const PathTable &Table,
                           Task TaskKind, size_t Threads) {
  std::vector<std::vector<Symbol>> Preds = Model.predictBatch(Graphs, Threads);
  telemetry::EventLog &Log = telemetry::EventLog::global();
  const char *Tag = taskToken(TaskKind);
  ml::SubTokenMeter SubTokens;
  EvalStats Stats;
  for (size_t I = 0; I < Graphs.size(); ++I) {
    const CrfGraph &G = Graphs[I];
    for (uint32_t N : G.Unknowns) {
      Symbol Pred = Preds[I][N];
      std::string_view Gold = SI.str(G.Nodes[N].Gold);
      std::string_view Predicted = Pred.isValid() ? SI.str(Pred) : "";
      ++Stats.Total;
      if (TaskKind == Task::MethodNames)
        SubTokens.add(Predicted, Gold);
      bool Right = !Predicted.empty() && (TaskKind == Task::FullTypes
                                              ? Predicted == Gold
                                              : namesMatch(Predicted, Gold));
      if (Right)
        ++Stats.Correct;
      else if (Log.enabled() && Pred.isValid())
        logPredictionProvenance(Tag, SI, Table, Gold, Predicted,
                                Model.explain(G, N, Pred, Preds[I], 5));
    }
  }
  Stats.SubtokenF1 = SubTokens.f1();
  return Stats;
}

EvalStats core::evalArtifact(ModelBundle &Bundle,
                             const ContextsArtifact &Artifact) {
  std::vector<CrfGraph> Graphs = assembleGraphs(Artifact, *Bundle.Interner);
  telemetry::TraceScope Phase("eval");
  return evalGraphs(Bundle.Model, Graphs, *Bundle.Interner, Bundle.Table,
                    Artifact.TaskKind);
}

void core::logPredictionProvenance(std::string_view Task,
                                   const StringInterner &SI,
                                   const PathTable &Table,
                                   std::string_view Gold,
                                   std::string_view Predicted,
                                   const crf::NodeExplanation &Ex) {
  telemetry::EventLog &Log = telemetry::EventLog::global();
  if (!Log.enabled())
    return;
  using telemetry::jsonNumber;
  using telemetry::jsonString;
  Log.record("prediction", {{"task", jsonString(Task)},
                            {"gold", jsonString(Gold)},
                            {"predicted", jsonString(Predicted)},
                            {"correct", Gold == Predicted ? "true" : "false"},
                            {"score", jsonNumber(Ex.Total)},
                            {"bias", jsonNumber(Ex.Bias)},
                            {"paths", std::to_string(Ex.Paths.size())}});
  for (const crf::Attribution &A : Ex.Paths)
    Log.record(
        "attribution",
        {{"task", jsonString(Task)},
         {"predicted", jsonString(Predicted)},
         {"path",
          jsonString(A.Path != InvalidPath ? Table.render(A.Path, SI)
                                           : std::string())},
         {"neighbor",
          jsonString(A.Neighbor.isValid() ? SI.str(A.Neighbor) : "")},
         {"unary", A.Unary ? "true" : "false"},
         {"score", jsonNumber(A.Score)},
         {"weight", jsonNumber(A.Weight)},
         {"vote", jsonNumber(A.Vote)}});
}
