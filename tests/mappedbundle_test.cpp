//===- mappedbundle_test.cpp - Unit tests for v3 mmap bundles --------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Covers the zero-copy bundle format from both sides: the honest side
/// (round trips, determinism, trained-vs-mapped prediction identity
/// across languages and tasks, live extension over frozen arenas) and
/// the hostile side (truncation, misalignment, overlap, checksum damage,
/// crafted overflowing section bounds, retired-version reads). Every
/// hostile case must fail closed — nullptr plus a diagnostic naming the
/// byte offset — and never read out of bounds.
///
//===----------------------------------------------------------------------===//

#include "TempBundle.h"

#include "core/Experiments.h"
#include "core/MappedBundle.h"
#include "core/ModelIO.h"

#include "lang/java/JavaParser.h"
#include "lang/js/JsParser.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::core;
using pigeon::lang::Language;
using pigeon::test::TempFile;
using pigeon::test::v3Bytes;

namespace {

lang::ParseResult parseAs(Language Lang, const std::string &Text,
                          StringInterner &SI) {
  return Lang == Language::Java ? java::parse(Text, SI) : js::parse(Text, SI);
}

/// Trains a small bundle for any (language, task) pair on a synthetic
/// corpus.
ModelBundle trainBundle(Language Lang = Language::JavaScript,
                        Task TaskKind = Task::VariableNames) {
  ModelBundle Bundle;
  Bundle.Lang = Lang;
  Bundle.Interner = std::make_unique<StringInterner>();
  Bundle.Extraction = tunedExtraction(Lang, TaskKind);
  Bundle.TaskKind = TaskKind;

  datagen::CorpusSpec Spec = datagen::defaultSpec(Lang, /*Seed=*/5);
  Spec.NumProjects = 6;
  crf::ElementSelector Selector = selectorFor(TaskKind);
  std::vector<crf::CrfGraph> Graphs;
  std::vector<std::optional<Tree>> Keep;
  for (const datagen::SourceFile &File : datagen::generateCorpus(Spec)) {
    lang::ParseResult R = parseAs(Lang, File.Text, *Bundle.Interner);
    EXPECT_TRUE(R.ok());
    Keep.push_back(std::move(R.Tree));
    auto Contexts = paths::extractPathContexts(*Keep.back(),
                                               Bundle.Extraction,
                                               Bundle.Table);
    Graphs.push_back(crf::buildGraph(*Keep.back(), Contexts, Selector));
  }
  Bundle.Model.train(Graphs);
  return Bundle;
}

/// Per-element prediction + top-3 (label, exact score) signature; two
/// bundles that predict byte-identically produce equal signatures.
std::string signatureOf(ModelBundle &Bundle, const std::string &Source) {
  lang::ParseResult R = parseAs(Bundle.Lang, Source, *Bundle.Interner);
  EXPECT_TRUE(R.Tree.has_value());
  auto Contexts = paths::extractPathContexts(*R.Tree, Bundle.Extraction,
                                             Bundle.Table);
  crf::CrfGraph G =
      crf::buildGraph(*R.Tree, Contexts, selectorFor(Bundle.TaskKind));
  std::vector<Symbol> Pred = Bundle.Model.predict(G);
  std::string Sig;
  char Buf[64];
  for (uint32_t N : G.Unknowns) {
    Sig += std::string(Bundle.Interner->str(G.Nodes[N].Gold));
    Sig += ": ";
    for (const auto &[Label, Score] : Bundle.Model.topK(G, N, Pred, 3)) {
      std::snprintf(Buf, sizeof(Buf), "%.17g", Score);
      Sig += std::string(Bundle.Interner->str(Label));
      Sig += '=';
      Sig += Buf;
      Sig += ',';
    }
    Sig += '\n';
  }
  return Sig;
}

/// Maps a (possibly corrupted) byte image and expects rejection; returns
/// the diagnostic for content checks.
LoadDiag expectRejected(const std::string &Bytes) {
  LoadDiag Diag;
  auto Bundle = test::mapBytes(Bytes, &Diag);
  EXPECT_EQ(Bundle, nullptr) << "hostile image was accepted: " << Diag.Error;
  EXPECT_FALSE(Diag.Error.empty());
  return Diag;
}

const char *MinifiedJs =
    "function f() { var a = false; while (!a) { if (check()) { a = true; } "
    "} return a; }";
const char *MinifiedJava =
    "class A { int add(int first, int second) { return first + second; } }";

//===----------------------------------------------------------------------===//
// Round trips and identity
//===----------------------------------------------------------------------===//

TEST(MappedBundle, V3RoundTripPredictsIdentically) {
  ModelBundle Original = trainBundle();
  std::string Before = signatureOf(Original, MinifiedJs);
  ASSERT_FALSE(Before.empty());

  TempFile File(v3Bytes(Original));
  LoadDiag Diag;
  auto Mapped = openMappedBundle(File.path(), &Diag, /*VerifyChecksum=*/true);
  ASSERT_NE(Mapped, nullptr) << Diag.Error;
  EXPECT_EQ(Mapped->Lang, Original.Lang);
  EXPECT_EQ(Mapped->TaskKind, Original.TaskKind);
  EXPECT_EQ(Mapped->Interner->size(), Original.Interner->size());
  EXPECT_EQ(Mapped->Table.size(), Original.Table.size());
  EXPECT_EQ(Mapped->Model.numFeatures(), Original.Model.numFeatures());
  EXPECT_NE(Mapped->Mapping, nullptr);

  EXPECT_EQ(signatureOf(*Mapped, MinifiedJs), Before);
}

TEST(MappedBundle, TrainedAndMappedPredictIdenticallyAcrossLangsAndTasks) {
  const struct {
    Language Lang;
    Task TaskKind;
    const char *Source;
  } Cases[] = {
      {Language::JavaScript, Task::VariableNames, MinifiedJs},
      {Language::JavaScript, Task::MethodNames, MinifiedJs},
      {Language::Java, Task::VariableNames, MinifiedJava},
      {Language::Java, Task::MethodNames, MinifiedJava},
  };
  for (const auto &C : Cases) {
    ModelBundle Trained = trainBundle(C.Lang, C.TaskKind);
    LoadDiag Diag;
    auto Mapped = test::remap(Trained, &Diag);
    ASSERT_NE(Mapped, nullptr)
        << "lang " << static_cast<int>(C.Lang) << " task "
        << static_cast<int>(C.TaskKind) << ": " << Diag.Error;
    EXPECT_FALSE(Trained.Model.frozen());
    EXPECT_TRUE(Mapped->Model.frozen());

    // Each bundle parses the source into its own interner, so novel ids
    // cannot leak from one side to the other.
    EXPECT_EQ(signatureOf(Trained, C.Source), signatureOf(*Mapped, C.Source))
        << "lang " << static_cast<int>(C.Lang) << " task "
        << static_cast<int>(C.TaskKind);
  }
}

TEST(MappedBundle, SaveIsDeterministic) {
  ModelBundle Original = trainBundle();
  EXPECT_EQ(v3Bytes(Original), v3Bytes(Original));
}

TEST(MappedBundle, FrozenRoundTripResavesIdentically) {
  // map -> saveModelV3 must reproduce the file byte for byte: a mapped
  // model's image is the trained model's image.
  ModelBundle Original = trainBundle();
  std::string First = v3Bytes(Original);
  TempFile File(First);
  auto Mapped = openMappedBundle(File.path());
  ASSERT_NE(Mapped, nullptr);
  EXPECT_EQ(v3Bytes(*Mapped), First);
}

TEST(MappedBundle, NewStringsAndPathsExtendFrozenArenas) {
  ModelBundle Original = trainBundle();
  TempFile File(v3Bytes(Original));
  auto Mapped = openMappedBundle(File.path());
  ASSERT_NE(Mapped, nullptr);

  size_t Saved = Mapped->Interner->size();
  Symbol Fresh = Mapped->Interner->intern("neverSeenBefore123");
  EXPECT_EQ(Fresh.index(), Saved);
  EXPECT_EQ(Mapped->Interner->str(Fresh), "neverSeenBefore123");
  // Frozen ids still resolve after growth, and lookups hit the stored
  // index.
  for (uint32_t I = 0; I < Saved; ++I) {
    std::string_view S = Mapped->Interner->str(Symbol::fromIndex(I));
    if (I > 0 && !S.empty())
      EXPECT_EQ(Mapped->Interner->lookup(S), Symbol::fromIndex(I));
  }
  // Parsing fresh source through the mapped bundle works end to end.
  EXPECT_FALSE(signatureOf(*Mapped, MinifiedJs).empty());
}

//===----------------------------------------------------------------------===//
// Retired versions (expected-vs-found diagnostics)
//===----------------------------------------------------------------------===//

TEST(MappedBundle, V2FedToV3ReaderFailsWithHint) {
  // The head of a v2 stream bundle: the same magic, version 2, then the
  // language, task and extraction settings. Varint-coded tables follow.
  std::string V2;
  auto Pod = [&V2](const auto &Value) {
    V2.append(reinterpret_cast<const char *>(&Value), sizeof(Value));
  };
  Pod(uint32_t{0x50494742}); // "PIGB"
  Pod(uint32_t{2});
  Pod(uint8_t{0}); // JavaScript.
  Pod(uint8_t{0}); // Variable names.
  Pod(int32_t{4}); // max_length.
  Pod(int32_t{3}); // max_width.
  Pod(uint8_t{0}); // Abstraction.
  Pod(uint8_t{1}); // Semi-paths.
  // Short or long, the file is named by its version.
  for (const std::string &Img : {V2, V2 + std::string(4096, '\1')}) {
    LoadDiag Diag = expectRejected(Img);
    EXPECT_EQ(Diag.Offset, 4u);
    EXPECT_NE(Diag.Error.find("bundle version mismatch: expected 3, found 2"),
              std::string::npos)
        << Diag.Error;
    EXPECT_NE(Diag.Error.find("retrain"), std::string::npos) << Diag.Error;
  }
}

TEST(MappedBundle, BadMagicReportsExpectedAndFound) {
  ModelBundle Original = trainBundle();
  std::string Img = v3Bytes(Original);
  Img[0] = 'X';
  LoadDiag Diag = expectRejected(Img);
  EXPECT_EQ(Diag.Offset, 0u);
  EXPECT_NE(Diag.Error.find("0x50494742"), std::string::npos) << Diag.Error;
  EXPECT_NE(Diag.Error.find("found"), std::string::npos) << Diag.Error;
}

//===----------------------------------------------------------------------===//
// Hostile images
//===----------------------------------------------------------------------===//

TEST(MappedBundle, TruncationAnywhereIsRejected) {
  ModelBundle Original = trainBundle();
  std::string Img = v3Bytes(Original);
  for (size_t Keep :
       {size_t(0), size_t(7), size_t(47), size_t(359), Img.size() / 4,
        Img.size() / 2, Img.size() - 16, Img.size() - 1})
    expectRejected(Img.substr(0, Keep));
}

TEST(MappedBundle, TrailingGarbageIsRejected) {
  ModelBundle Original = trainBundle();
  expectRejected(v3Bytes(Original) + std::string(64, '\0'));
}

TEST(MappedBundle, MisalignedSectionIsRejected) {
  ModelBundle Original = trainBundle();
  for (uint32_t Sec = 0; Sec < 13; ++Sec) {
    std::string Img = v3Bytes(Original);
    uint64_t Off;
    std::memcpy(&Off, Img.data() + 48 + Sec * 24 + 8, 8);
    Off += 4; // Break 8-byte alignment but stay in bounds.
    std::memcpy(Img.data() + 48 + Sec * 24 + 8, &Off, 8);
    LoadDiag Diag = expectRejected(Img);
    EXPECT_NE(Diag.Error.find("align"), std::string::npos)
        << "section " << Sec << ": " << Diag.Error;
  }
}

TEST(MappedBundle, OverlappingSectionsAreRejected) {
  ModelBundle Original = trainBundle();
  std::string Img = v3Bytes(Original);
  // Point the string-offsets section back into the string arena.
  uint64_t ArenaOff;
  std::memcpy(&ArenaOff, Img.data() + 48 + 8, 8);
  std::memcpy(Img.data() + 48 + 24 + 8, &ArenaOff, 8);
  expectRejected(Img);
}

TEST(MappedBundle, CraftedOverflowingSectionBoundsAreRejected) {
  // Offset + length wrapping past UINT64_MAX must be caught by checked
  // arithmetic, not slip under the `end <= size` bound. One crafted
  // header per section.
  ModelBundle Original = trainBundle();
  for (uint32_t Sec = 0; Sec < 13; ++Sec) {
    std::string Img = v3Bytes(Original);
    // 2^64 - 8: 8-byte aligned, so only the checked add can reject it.
    uint64_t Off = UINT64_MAX - 7, Len = 64;
    std::memcpy(Img.data() + 48 + Sec * 24 + 8, &Off, 8);
    std::memcpy(Img.data() + 48 + Sec * 24 + 16, &Len, 8);
    LoadDiag Diag = expectRejected(Img);
    EXPECT_NE(Diag.Error.find("overflows"), std::string::npos)
        << "section " << Sec << ": " << Diag.Error;
  }
}

TEST(MappedBundle, ChecksumDamageIsRejectedWhenVerifying) {
  ModelBundle Original = trainBundle();
  std::string Img = v3Bytes(Original);
  // Flip one bit inside the string arena: structure stays valid, bytes
  // do not.
  uint64_t ArenaOff;
  std::memcpy(&ArenaOff, Img.data() + 48 + 8, 8);
  Img[ArenaOff + 3] ^= 0x20;
  LoadDiag Diag = expectRejected(Img);
  EXPECT_NE(Diag.Error.find("checksum"), std::string::npos) << Diag.Error;

  // Without verification the damaged-but-well-formed image still maps:
  // checksum verification is opt-in by design (it touches every page).
  TempFile File(Img);
  EXPECT_NE(openMappedBundle(File.path()), nullptr);
}

TEST(MappedBundle, BadTrailerMagicIsRejected) {
  ModelBundle Original = trainBundle();
  std::string Img = v3Bytes(Original);
  Img[Img.size() - 8] ^= 0xFF;
  LoadDiag Diag = expectRejected(Img);
  EXPECT_NE(Diag.Error.find("trailer"), std::string::npos) << Diag.Error;
}

TEST(MappedBundle, CorruptOffsetArraysAreRejected) {
  ModelBundle Original = trainBundle();
  // Non-monotonic string offsets.
  {
    std::string Img = v3Bytes(Original);
    uint64_t OffsetsOff;
    std::memcpy(&OffsetsOff, Img.data() + 48 + 24 + 8, 8);
    uint64_t Huge = UINT64_MAX / 2;
    std::memcpy(Img.data() + OffsetsOff + 8, &Huge, 8);
    expectRejected(Img);
  }
  // Stored string-index slot out of range.
  {
    std::string Img = v3Bytes(Original);
    uint64_t IndexOff, IndexLen;
    std::memcpy(&IndexOff, Img.data() + 48 + 2 * 24 + 8, 8);
    std::memcpy(&IndexLen, Img.data() + 48 + 2 * 24 + 16, 8);
    uint32_t Bogus = UINT32_MAX;
    for (uint64_t I = 0; I < IndexLen; I += 4)
      std::memcpy(Img.data() + IndexOff + I, &Bogus, 4);
    expectRejected(Img);
  }
}

TEST(MappedBundle, ZeroLengthArenasLoad) {
  // An untrained bundle has one (empty) string, no paths and no weights:
  // every variable-length section is zero-length, and the file must
  // still round-trip.
  ModelBundle Empty;
  Empty.Lang = Language::JavaScript;
  Empty.Interner = std::make_unique<StringInterner>();
  Empty.Extraction = tunedExtraction(Language::JavaScript,
                                     Task::VariableNames);
  Empty.TaskKind = Task::VariableNames;

  TempFile File(v3Bytes(Empty));
  LoadDiag Diag;
  auto Mapped = openMappedBundle(File.path(), &Diag, /*VerifyChecksum=*/true);
  ASSERT_NE(Mapped, nullptr) << Diag.Error;
  EXPECT_EQ(Mapped->Interner->size(), 1u);
  EXPECT_EQ(Mapped->Table.size(), 0u);
  EXPECT_EQ(Mapped->Model.numFeatures(), 0u);
  // And the empty frozen tables still accept growth.
  EXPECT_EQ(Mapped->Interner->intern("fresh").index(), 1u);
}

TEST(MappedBundle, EveryHeaderByteFlipFailsClosed) {
  // Fuzz-lite: flipping any single byte of the header + section table
  // either still loads (reserved bytes) or fails with a diagnostic —
  // never crashes. Under ASan/UBSan this doubles as an OOB probe.
  ModelBundle Original = trainBundle();
  std::string Pristine = v3Bytes(Original);
  for (size_t I = 0; I < 360; ++I) {
    std::string Img = Pristine;
    Img[I] ^= 0xFF;
    TempFile File(Img);
    LoadDiag Diag;
    auto Bundle = openMappedBundle(File.path(), &Diag,
                                   /*VerifyChecksum=*/true);
    if (Bundle)
      EXPECT_FALSE(signatureOf(*Bundle, MinifiedJs).empty());
    else
      EXPECT_FALSE(Diag.Error.empty()) << "byte " << I;
  }
}

} // namespace
