//===- Paths.cpp - AST path extraction --------------------------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "paths/Paths.h"

#include "support/BinaryIO.h"
#include "support/Hashing.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::paths;

const char *paths::abstractionName(Abstraction A) {
  switch (A) {
  case Abstraction::Full:
    return "full";
  case Abstraction::NoArrows:
    return "no-arrows";
  case Abstraction::ForgetOrder:
    return "forget-order";
  case Abstraction::FirstTopLast:
    return "first-top-last";
  case Abstraction::FirstLast:
    return "first-last";
  case Abstraction::Top:
    return "top";
  case Abstraction::NoPath:
    return "no-path";
  }
  return "invalid";
}

PathShape paths::pathShape(const Tree &Tree, NodeId A, NodeId B) {
  PathShape Shape;
  NodeId Pivot = Tree.lca(A, B);
  Shape.Pivot = Pivot;
  const Node &NA = Tree.node(A);
  const Node &NB = Tree.node(B);
  const Node &NP = Tree.node(Pivot);
  Shape.Length = static_cast<int>(NA.Depth - NP.Depth) +
                 static_cast<int>(NB.Depth - NP.Depth);
  // Width (Fig. 5): sibling-index gap of the pivot's two children through
  // which the path passes. Chains (semi-paths) have width 0.
  if (Pivot == A || Pivot == B)
    return Shape;
  NodeId ChildA = A;
  while (Tree.node(ChildA).Parent != Pivot)
    ChildA = Tree.node(ChildA).Parent;
  NodeId ChildB = B;
  while (Tree.node(ChildB).Parent != Pivot)
    ChildB = Tree.node(ChildB).Parent;
  int IdxA = static_cast<int>(Tree.node(ChildA).IndexInParent);
  int IdxB = static_cast<int>(Tree.node(ChildB).IndexInParent);
  Shape.Width = std::abs(IdxA - IdxB);
  return Shape;
}

//===----------------------------------------------------------------------===//
// PathTable storage
//===----------------------------------------------------------------------===//

PathId PathTable::internString(std::string_view Str) {
  // Raw-tagged paths carry the string verbatim; a small stack buffer
  // covers typical keys, longer ones take one transient heap vector.
  constexpr size_t StackCap = 256;
  if (Str.size() < StackCap) {
    uint8_t Buf[StackCap];
    Buf[0] = static_cast<uint8_t>(PathTag::Raw);
    std::memcpy(Buf + 1, Str.data(), Str.size());
    return intern(std::span<const uint8_t>(Buf, Str.size() + 1));
  }
  std::vector<uint8_t> Bytes;
  Bytes.reserve(Str.size() + 1);
  Bytes.push_back(static_cast<uint8_t>(PathTag::Raw));
  Bytes.insert(Bytes.end(), Str.begin(), Str.end());
  return intern(Bytes);
}

std::span<const uint8_t>
PathTable::store(std::span<const uint8_t> Packed) {
  constexpr size_t BlockSize = 64u << 10;
  if (Blocks.empty() || Packed.size() > BlockCap - BlockUsed) {
    size_t Cap = std::max(Packed.size(), BlockSize);
    Blocks.push_back(std::make_unique<uint8_t[]>(Cap));
    BlockCap = Cap;
    BlockUsed = 0;
  }
  uint8_t *Dst = Blocks.back().get() + BlockUsed;
  if (!Packed.empty())
    std::memcpy(Dst, Packed.data(), Packed.size());
  BlockUsed += Packed.size();
  return {Dst, Packed.size()};
}

PathId PathTable::findFrozen(std::span<const uint8_t> Packed) const {
  if (!FV.Slots)
    return 0;
  uint64_t Hash = stableHashBytes(Packed.data(), Packed.size());
  // Probe count is bounded by the table size so a hostile stored index
  // with no empty slot terminates instead of spinning.
  for (uint64_t I = Hash & FV.Mask, Probes = 0; Probes <= FV.Mask;
       ++Probes, I = (I + 1) & FV.Mask) {
    uint32_t Id = FV.Slots[I];
    if (Id == 0)
      return 0;
    std::span<const uint8_t> Stored(FV.Bytes + FV.Offsets[Id - 1],
                                    FV.Offsets[Id] - FV.Offsets[Id - 1]);
    if (Stored.size() == Packed.size() &&
        (Packed.empty() ||
         std::memcmp(Stored.data(), Packed.data(), Packed.size()) == 0))
      return Id;
  }
  return 0;
}

std::vector<PathId> PathTable::absorb(const PathTable &Shard) {
  // Byte-wise merge: every locally-stored shard path is re-looked-up
  // (and stored on first encounter) directly from its packed bytes — no
  // per-path string or buffer materialization. Reading Shard.Paths
  // directly keeps this correct for delta overlays, whose local arena
  // holds exactly the novel paths (bytes() would route final ids to the
  // base).
  std::vector<PathId> Map(Shard.size() + 1, InvalidPath);
  for (PathId Id = 1; Id <= Shard.size(); ++Id)
    Map[Id] = intern(Shard.Paths[Id]);
  return Map;
}

//===----------------------------------------------------------------------===//
// Packed encoding
//===----------------------------------------------------------------------===//

namespace {

/// Collects the kind symbols along the path A → pivot → B.
/// \p Ups receives A..pivot-exclusive (ascending), \p Downs
/// pivot-exclusive..B (descending order from pivot's child to B).
void collectChains(const Tree &Tree, NodeId A, NodeId B, NodeId Pivot,
                   std::vector<Symbol> &Ups, std::vector<Symbol> &Downs) {
  for (NodeId N = A; N != Pivot; N = Tree.node(N).Parent)
    Ups.push_back(Tree.node(N).Kind);
  // Downward chain, collected from B up, then reversed.
  size_t Mark = Downs.size();
  for (NodeId N = B; N != Pivot; N = Tree.node(N).Parent)
    Downs.push_back(Tree.node(N).Kind);
  std::reverse(Downs.begin() + Mark, Downs.end());
}

void packRaw(std::vector<uint8_t> &Out, std::string_view Str) {
  Out.push_back(static_cast<uint8_t>(PathTag::Raw));
  Out.insert(Out.end(), Str.begin(), Str.end());
}

void appendSymbol(std::vector<uint8_t> &Out, Symbol S) {
  io::appendVarint(Out, S.index());
}

/// Legacy rendering of the 3-wise full path "ups^M(_branchB)(_branchC)",
/// the base form the flat/bag 3-wise abstractions re-tokenize.
std::string triFullString(const Tree &Tree, NodeId A, NodeId B, NodeId C,
                          NodeId M) {
  const StringInterner &SI = Tree.interner();
  std::string Out;
  for (NodeId N = A; N != M; N = Tree.node(N).Parent) {
    Out += SI.str(Tree.node(N).Kind);
    Out += '^';
  }
  Out += SI.str(Tree.node(M).Kind);
  auto DownBranch = [&](NodeId To) {
    std::vector<Symbol> Chain;
    for (NodeId N = To; N != M; N = Tree.node(N).Parent)
      Chain.push_back(Tree.node(N).Kind);
    for (auto It = Chain.rbegin(); It != Chain.rend(); ++It) {
      Out += '_';
      Out += SI.str(*It);
    }
  };
  Out += '(';
  DownBranch(B);
  Out += ")(";
  DownBranch(C);
  Out += ')';
  return Out;
}

} // namespace

void paths::packPath(const Tree &Tree, NodeId A, NodeId B, Abstraction Abst,
                     PathScratch &S, NodeId PivotHint) {
  S.Bytes.clear();
  if (Abst == Abstraction::NoPath) {
    packRaw(S.Bytes, "rel");
    return;
  }

  NodeId Pivot = PivotHint != InvalidNode ? PivotHint : Tree.lca(A, B);
  S.Ups.clear();
  S.Downs.clear();
  collectChains(Tree, A, B, Pivot, S.Ups, S.Downs);
  Symbol PivotKind = Tree.node(Pivot).Kind;

  switch (Abst) {
  case Abstraction::Full:
    // The up-count makes the (ups, pivot, downs) split positional, like
    // the arrows in "A^P_B" do.
    S.Bytes.push_back(static_cast<uint8_t>(PathTag::PairFull));
    io::appendVarint(S.Bytes, static_cast<uint32_t>(S.Ups.size()));
    for (Symbol Sym : S.Ups)
      appendSymbol(S.Bytes, Sym);
    appendSymbol(S.Bytes, PivotKind);
    for (Symbol Sym : S.Downs)
      appendSymbol(S.Bytes, Sym);
    return;
  case Abstraction::NoArrows:
    // No up-count: the space-joined rendering cannot tell where the
    // pivot sits, so the packed form must not either.
    S.Bytes.push_back(static_cast<uint8_t>(PathTag::PairFlat));
    for (Symbol Sym : S.Ups)
      appendSymbol(S.Bytes, Sym);
    appendSymbol(S.Bytes, PivotKind);
    for (Symbol Sym : S.Downs)
      appendSymbol(S.Bytes, Sym);
    return;
  case Abstraction::ForgetOrder:
    // Multiset of kinds, canonicalized by symbol id. Two bags of symbols
    // are equal iff their name-sorted renderings are equal, so the dedup
    // classes match the legacy sorted-string form.
    S.Ups.push_back(PivotKind);
    S.Ups.insert(S.Ups.end(), S.Downs.begin(), S.Downs.end());
    std::sort(S.Ups.begin(), S.Ups.end());
    S.Bytes.push_back(static_cast<uint8_t>(PathTag::Bag));
    for (Symbol Sym : S.Ups)
      appendSymbol(S.Bytes, Sym);
    return;
  case Abstraction::FirstTopLast: {
    Symbol First = S.Ups.empty() ? PivotKind : S.Ups.front();
    Symbol Last = S.Downs.empty() ? PivotKind : S.Downs.back();
    S.Bytes.push_back(static_cast<uint8_t>(PathTag::FirstTopLast));
    appendSymbol(S.Bytes, First);
    appendSymbol(S.Bytes, PivotKind);
    appendSymbol(S.Bytes, Last);
    return;
  }
  case Abstraction::FirstLast: {
    Symbol First = S.Ups.empty() ? PivotKind : S.Ups.front();
    Symbol Last = S.Downs.empty() ? PivotKind : S.Downs.back();
    S.Bytes.push_back(static_cast<uint8_t>(PathTag::FirstLast));
    appendSymbol(S.Bytes, First);
    appendSymbol(S.Bytes, Last);
    return;
  }
  case Abstraction::Top:
    S.Bytes.push_back(static_cast<uint8_t>(PathTag::Top));
    appendSymbol(S.Bytes, PivotKind);
    return;
  case Abstraction::NoPath:
    break;
  }
  packRaw(S.Bytes, "rel");
}

void paths::packTriPath(const Tree &Tree, NodeId A, NodeId B, NodeId C,
                        Abstraction Abst, PathScratch &S) {
  S.Bytes.clear();
  if (Abst == Abstraction::NoPath) {
    packRaw(S.Bytes, "rel3");
    return;
  }
  NodeId M = Tree.lca(A, Tree.lca(B, C));

  // Coarse abstractions reuse the pairwise tags on the end nodes: their
  // legacy renderings share the pairwise formats, so identical symbol
  // tuples must dedup together across pairwise and 3-wise paths.
  switch (Abst) {
  case Abstraction::Top:
    S.Bytes.push_back(static_cast<uint8_t>(PathTag::Top));
    appendSymbol(S.Bytes, Tree.node(M).Kind);
    return;
  case Abstraction::FirstLast:
    S.Bytes.push_back(static_cast<uint8_t>(PathTag::FirstLast));
    appendSymbol(S.Bytes, Tree.node(A).Kind);
    appendSymbol(S.Bytes, Tree.node(C).Kind);
    return;
  case Abstraction::FirstTopLast:
    S.Bytes.push_back(static_cast<uint8_t>(PathTag::FirstTopLast));
    appendSymbol(S.Bytes, Tree.node(A).Kind);
    appendSymbol(S.Bytes, Tree.node(M).Kind);
    appendSymbol(S.Bytes, Tree.node(C).Kind);
    return;
  default:
    break;
  }

  if (Abst == Abstraction::Full) {
    S.Bytes.push_back(static_cast<uint8_t>(PathTag::TriFull));
    S.Ups.clear();
    for (NodeId N = A; N != M; N = Tree.node(N).Parent)
      S.Ups.push_back(Tree.node(N).Kind);
    io::appendVarint(S.Bytes, static_cast<uint32_t>(S.Ups.size()));
    for (Symbol Sym : S.Ups)
      appendSymbol(S.Bytes, Sym);
    appendSymbol(S.Bytes, Tree.node(M).Kind);
    S.Downs.clear();
    collectChains(Tree, M, B, M, S.Ups /*unused*/, S.Downs);
    io::appendVarint(S.Bytes, static_cast<uint32_t>(S.Downs.size()));
    for (Symbol Sym : S.Downs)
      appendSymbol(S.Bytes, Sym);
    S.Downs.clear();
    collectChains(Tree, M, C, M, S.Ups /*unused*/, S.Downs);
    for (Symbol Sym : S.Downs)
      appendSymbol(S.Bytes, Sym);
    return;
  }

  // NoArrows / ForgetOrder flatten the full rendering's movement markers
  // to spaces (and ForgetOrder then sorts the space-separated tokens).
  // That re-tokenizes node names, so the strings themselves are the only
  // faithful identity — pack them Raw. 3-wise extraction is O(leaves)
  // per tree, so this is not the pairwise hot path.
  std::string Full = triFullString(Tree, A, B, C, M);
  S.Str.clear();
  for (char Ch : Full)
    S.Str += (Ch == '^' || Ch == '_' || Ch == '(' || Ch == ')') ? ' ' : Ch;
  if (Abst == Abstraction::ForgetOrder) {
    std::vector<std::string> Names;
    std::string Cur;
    for (char Ch : S.Str) {
      if (Ch == ' ') {
        if (!Cur.empty())
          Names.push_back(Cur);
        Cur.clear();
      } else {
        Cur += Ch;
      }
    }
    if (!Cur.empty())
      Names.push_back(Cur);
    std::sort(Names.begin(), Names.end());
    S.Str.clear();
    for (const std::string &N : Names) {
      if (!S.Str.empty())
        S.Str += ' ';
      S.Str += N;
    }
  }
  packRaw(S.Bytes, S.Str);
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

constexpr const char *BadPath = "<bad-path>";

bool readSymbolName(io::ByteReader &R, const StringInterner &SI,
                    std::string &Out) {
  uint32_t Idx = 0;
  if (!R.readVarint(Idx) || !SI.contains(Symbol::fromIndex(Idx)))
    return false;
  Out += SI.str(Symbol::fromIndex(Idx));
  return true;
}

} // namespace

std::string paths::renderPackedPath(std::span<const uint8_t> Packed,
                                    const StringInterner &SI) {
  io::ByteReader R(Packed);
  uint8_t TagByte = 0;
  if (!R.readByte(TagByte))
    return BadPath;
  std::string Out;
  switch (static_cast<PathTag>(TagByte)) {
  case PathTag::Raw:
    return std::string(
        reinterpret_cast<const char *>(Packed.data()) + 1,
        Packed.size() - 1);
  case PathTag::PairFull: {
    uint32_t NumUps = 0;
    if (!R.readVarint(NumUps))
      return BadPath;
    for (uint32_t I = 0; I < NumUps; ++I) {
      if (!readSymbolName(R, SI, Out))
        return BadPath;
      Out += '^';
    }
    if (!readSymbolName(R, SI, Out))
      return BadPath;
    while (!R.atEnd()) {
      Out += '_';
      if (!readSymbolName(R, SI, Out))
        return BadPath;
    }
    return Out;
  }
  case PathTag::PairFlat:
    while (!R.atEnd()) {
      if (!Out.empty())
        Out += ' ';
      if (!readSymbolName(R, SI, Out))
        return BadPath;
    }
    return Out;
  case PathTag::Bag: {
    // Canonical order in bytes is by symbol id; the rendering sorts by
    // name, matching the legacy sorted-string form.
    std::vector<std::string> Names;
    while (!R.atEnd()) {
      std::string Name;
      if (!readSymbolName(R, SI, Name))
        return BadPath;
      Names.push_back(std::move(Name));
    }
    std::sort(Names.begin(), Names.end());
    for (const std::string &N : Names) {
      if (!Out.empty())
        Out += ' ';
      Out += N;
    }
    return Out;
  }
  case PathTag::FirstTopLast: {
    if (!readSymbolName(R, SI, Out))
      return BadPath;
    Out += '^';
    if (!readSymbolName(R, SI, Out))
      return BadPath;
    Out += '_';
    if (!readSymbolName(R, SI, Out) || !R.atEnd())
      return BadPath;
    return Out;
  }
  case PathTag::FirstLast: {
    if (!readSymbolName(R, SI, Out))
      return BadPath;
    Out += "..";
    if (!readSymbolName(R, SI, Out) || !R.atEnd())
      return BadPath;
    return Out;
  }
  case PathTag::Top:
    if (!readSymbolName(R, SI, Out) || !R.atEnd())
      return BadPath;
    return Out;
  case PathTag::TriFull: {
    uint32_t NumUps = 0;
    if (!R.readVarint(NumUps))
      return BadPath;
    for (uint32_t I = 0; I < NumUps; ++I) {
      if (!readSymbolName(R, SI, Out))
        return BadPath;
      Out += '^';
    }
    if (!readSymbolName(R, SI, Out))
      return BadPath;
    uint32_t NumB = 0;
    if (!R.readVarint(NumB))
      return BadPath;
    Out += '(';
    for (uint32_t I = 0; I < NumB; ++I) {
      Out += '_';
      if (!readSymbolName(R, SI, Out))
        return BadPath;
    }
    Out += ")(";
    while (!R.atEnd()) {
      Out += '_';
      if (!readSymbolName(R, SI, Out))
        return BadPath;
    }
    Out += ')';
    return Out;
  }
  }
  return BadPath;
}

bool paths::remapPackedPath(std::span<const uint8_t> Packed,
                            const std::vector<Symbol> &Map,
                            std::vector<uint8_t> &Out) {
  Out.clear();
  io::ByteReader R(Packed);
  uint8_t TagByte = 0;
  if (!R.readByte(TagByte))
    return false;
  Out.push_back(TagByte);
  auto MapSymbols = [&](size_t Count) {
    for (size_t I = 0; I < Count; ++I) {
      uint32_t Idx = 0;
      if (!R.readVarint(Idx) || Idx >= Map.size())
        return false;
      io::appendVarint(Out, Map[Idx].index());
    }
    return true;
  };
  auto MapToEnd = [&] {
    while (!R.atEnd())
      if (!MapSymbols(1))
        return false;
    return true;
  };
  switch (static_cast<PathTag>(TagByte)) {
  case PathTag::Raw:
    Out.insert(Out.end(), Packed.begin() + 1, Packed.end());
    return true;
  case PathTag::PairFull: {
    uint32_t NumUps = 0;
    if (!R.readVarint(NumUps))
      return false;
    io::appendVarint(Out, NumUps);
    return MapToEnd();
  }
  case PathTag::PairFlat:
    return MapToEnd();
  case PathTag::Bag: {
    // Canonical order is by symbol id, which the remap permutes: collect,
    // map, re-sort, emit.
    std::vector<Symbol> Syms;
    while (!R.atEnd()) {
      uint32_t Idx = 0;
      if (!R.readVarint(Idx) || Idx >= Map.size())
        return false;
      Syms.push_back(Map[Idx]);
    }
    std::sort(Syms.begin(), Syms.end());
    for (Symbol S : Syms)
      io::appendVarint(Out, S.index());
    return true;
  }
  case PathTag::FirstTopLast:
    return MapSymbols(3) && R.atEnd();
  case PathTag::FirstLast:
    return MapSymbols(2) && R.atEnd();
  case PathTag::Top:
    return MapSymbols(1) && R.atEnd();
  case PathTag::TriFull: {
    uint32_t NumUps = 0;
    if (!R.readVarint(NumUps))
      return false;
    io::appendVarint(Out, NumUps);
    if (!MapSymbols(NumUps) || !MapSymbols(1))
      return false;
    uint32_t NumB = 0;
    if (!R.readVarint(NumB))
      return false;
    io::appendVarint(Out, NumB);
    return MapSymbols(NumB) && MapToEnd();
  }
  }
  return false;
}

std::string paths::pathString(const Tree &Tree, NodeId A, NodeId B,
                              Abstraction Abst) {
  PathScratch S;
  packPath(Tree, A, B, Abst, S);
  return renderPackedPath(S.Bytes, Tree.interner());
}

std::string paths::triPathString(const Tree &Tree, NodeId A, NodeId B,
                                 NodeId C, Abstraction Abst) {
  PathScratch S;
  packTriPath(Tree, A, B, C, Abst, S);
  return renderPackedPath(S.Bytes, Tree.interner());
}

Symbol paths::endValue(const Tree &Tree, NodeId Node) {
  const ast::Node &N = Tree.node(Node);
  return N.isTerminal() ? N.Value : N.Kind;
}

//===----------------------------------------------------------------------===//
// Extraction
//===----------------------------------------------------------------------===//

namespace {

/// Cached handles into the global registry. Extraction is a hot path
/// (BM_ExtractPaths); after first use each update is one relaxed atomic.
struct ExtractionMetrics {
  telemetry::Counter &Contexts;
  telemetry::Counter &SemiContexts;
  telemetry::Counter &TriContextsCount;
  telemetry::Histogram &Length;
  telemetry::Histogram &Width;

  static ExtractionMetrics &get() {
    static ExtractionMetrics M = [] {
      auto &Reg = telemetry::MetricsRegistry::global();
      return ExtractionMetrics{
          Reg.counter("paths.contexts"),
          Reg.counter("paths.contexts.semi"),
          Reg.counter("paths.tri_contexts"),
          Reg.histogram("paths.length", telemetry::linearBounds(1, 12)),
          Reg.histogram("paths.width", telemetry::linearBounds(0, 8))};
    }();
    return M;
  }
};

/// Per-call tally of small integer shape values. The extraction loops are
/// the hottest instrumented code (BM_ExtractPaths, ~150 ns/context);
/// counting locally and flushing once per call via observeN keeps the
/// per-context cost to two array increments instead of ~10 atomic RMWs.
struct ShapeTally {
  static constexpr int MaxSmall = 32;
  uint64_t Counts[MaxSmall] = {};
  telemetry::Histogram &Sink;

  explicit ShapeTally(telemetry::Histogram &Sink) : Sink(Sink) {}
  ShapeTally(const ShapeTally &) = delete;
  ShapeTally &operator=(const ShapeTally &) = delete;
  ~ShapeTally() {
    for (int V = 0; V < MaxSmall; ++V)
      Sink.observeN(V, Counts[V]);
  }

  void record(int V) {
    if (V >= 0 && V < MaxSmall)
      ++Counts[V];
    else
      Sink.observe(V);
  }
};

} // namespace

std::vector<PathContext>
paths::extractPathContexts(const Tree &Tree, const ExtractionConfig &Config,
                           PathTable &Table) {
  std::vector<PathContext> Out;
  const std::vector<NodeId> &Leaves = Tree.terminals();
  ExtractionMetrics &Metrics = ExtractionMetrics::get();
  ShapeTally Lengths(Metrics.Length), Widths(Metrics.Width);
  PathScratch Scratch;

  // Pairwise leafwise paths. Each path is packed into the reused scratch
  // buffer and interned by byte equality — no string per context.
  for (size_t I = 0; I < Leaves.size(); ++I) {
    for (size_t J = I + 1; J < Leaves.size(); ++J) {
      PathShape Shape = pathShape(Tree, Leaves[I], Leaves[J]);
      if (Shape.Length > Config.MaxLength || Shape.Width > Config.MaxWidth)
        continue;
      PathContext Ctx;
      Ctx.Start = Leaves[I];
      Ctx.End = Leaves[J];
      packPath(Tree, Leaves[I], Leaves[J], Config.Abst, Scratch,
               Shape.Pivot);
      Ctx.Path = Table.intern(Scratch.Bytes);
      Out.push_back(Ctx);
      Lengths.record(Shape.Length);
      Widths.record(Shape.Width);
    }
  }

  // Semi-paths: terminal → each ancestor within MaxLength edges. The
  // ancestor is the pivot of its own chain.
  if (Config.IncludeSemiPaths) {
    size_t FirstSemi = Out.size();
    for (NodeId Leaf : Leaves) {
      int Hops = 0;
      for (NodeId N = Tree.node(Leaf).Parent;
           N != InvalidNode && Hops < Config.MaxLength;
           N = Tree.node(N).Parent) {
        ++Hops;
        PathContext Ctx;
        Ctx.Start = Leaf;
        Ctx.End = N;
        Ctx.Semi = true;
        packPath(Tree, Leaf, N, Config.Abst, Scratch, /*PivotHint=*/N);
        Ctx.Path = Table.intern(Scratch.Bytes);
        Out.push_back(Ctx);
        Lengths.record(Hops);
        Widths.record(0);
      }
    }
    Metrics.SemiContexts.add(Out.size() - FirstSemi);
  }
  Metrics.Contexts.add(Out.size());
  return Out;
}

std::vector<PathContext>
paths::extractPathsToNode(const Tree &Tree, NodeId Target,
                          const ExtractionConfig &Config, PathTable &Table) {
  std::vector<PathContext> Out;
  ExtractionMetrics &Metrics = ExtractionMetrics::get();
  ShapeTally Lengths(Metrics.Length), Widths(Metrics.Width);
  PathScratch Scratch;
  for (NodeId Leaf : Tree.terminals()) {
    if (Leaf == Target)
      continue;
    PathShape Shape = pathShape(Tree, Leaf, Target);
    if (Shape.Length > Config.MaxLength || Shape.Width > Config.MaxWidth)
      continue;
    Lengths.record(Shape.Length);
    Widths.record(Shape.Width);
    // Skip leaves *inside* the target expression of distance 0: a path
    // from a leaf of the target up to the target itself is fine (it is a
    // semi-path) and is in fact the most informative context for type
    // prediction, so keep it.
    PathContext Ctx;
    Ctx.Start = Leaf;
    Ctx.End = Target;
    Ctx.Semi = (Shape.Pivot == Target);
    packPath(Tree, Leaf, Target, Config.Abst, Scratch, Shape.Pivot);
    Ctx.Path = Table.intern(Scratch.Bytes);
    Out.push_back(Ctx);
  }
  Metrics.Contexts.add(Out.size());
  return Out;
}

std::vector<TriContext>
paths::extractTriContexts(const Tree &Tree, const ExtractionConfig &Config,
                          PathTable &Table) {
  std::vector<TriContext> Out;
  const std::vector<NodeId> &Leaves = Tree.terminals();
  PathScratch Scratch;
  for (size_t I = 0; I + 2 < Leaves.size(); ++I) {
    NodeId A = Leaves[I], B = Leaves[I + 1], C = Leaves[I + 2];
    PathShape Extreme = pathShape(Tree, A, C);
    if (Extreme.Length > Config.MaxLength ||
        Extreme.Width > Config.MaxWidth)
      continue;
    TriContext Ctx;
    Ctx.A = A;
    Ctx.B = B;
    Ctx.C = C;
    packTriPath(Tree, A, B, C, Config.Abst, Scratch);
    Ctx.Path = Table.intern(Scratch.Bytes);
    Out.push_back(Ctx);
  }
  ExtractionMetrics::get().TriContextsCount.add(Out.size());
  return Out;
}
