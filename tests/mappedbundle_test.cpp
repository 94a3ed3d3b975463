//===- mappedbundle_test.cpp - Unit tests for mmap bundles ----------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Covers the zero-copy bundle format from both sides: the honest side
/// (round trips, determinism, trained-vs-mapped prediction identity
/// across languages and tasks, live extension over frozen arenas) and
/// the hostile side (truncation, misalignment, overlap, checksum damage,
/// crafted overflowing section bounds, malformed hashed tables,
/// retired-version reads). Every hostile case must fail closed — nullptr
/// plus a diagnostic naming the byte offset — or, where validation
/// deliberately does not look (the weight table's slots), load and still
/// answer; none may read out of bounds.
///
//===----------------------------------------------------------------------===//

#include "TempBundle.h"

#include "core/Experiments.h"
#include "core/MappedBundle.h"
#include "core/ModelIO.h"

#include "lang/java/JavaParser.h"
#include "lang/js/JsParser.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::core;
using pigeon::lang::Language;
using pigeon::test::TempFile;
using pigeon::test::bundleBytes;

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

/// The fixed image layout: a 48-byte header, then one 24-byte entry per
/// section (kind, reserved, offset, length). The section count is read
/// from the header, so these follow the format.
constexpr size_t HeaderBytes = 48, SectionEntryBytes = 24;
constexpr uint32_t SecWeights = 6, SecCands = 7, SecCandPairs = 8; // 0-based.

uint32_t sectionCount(const std::string &Img) {
  uint32_t Count;
  std::memcpy(&Count, Img.data() + 28, 4);
  return Count;
}

/// The end of the header plus section table.
size_t sectionTableEnd(const std::string &Img) {
  return HeaderBytes + sectionCount(Img) * SectionEntryBytes;
}

/// Byte position of section \p Index's offset (+8) or length (+16) field.
size_t entryField(uint32_t Index, size_t Field) {
  return HeaderBytes + Index * SectionEntryBytes + Field;
}

uint64_t u64At(const std::string &Img, size_t Pos) {
  uint64_t V;
  std::memcpy(&V, Img.data() + Pos, 8);
  return V;
}

void putU64(std::string &Img, size_t Pos, uint64_t V) {
  std::memcpy(Img.data() + Pos, &V, 8);
}

/// Recomputes the trailer checksum, so a crafted image fails (or passes)
/// on its structure alone.
void reseal(std::string &Img) {
  putU64(Img, Img.size() - 16, stableHashBytes(Img.data(), Img.size() - 16));
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

  TempFile File(bundleBytes(Original));
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
  EXPECT_EQ(bundleBytes(Original), bundleBytes(Original));
}

TEST(MappedBundle, FrozenRoundTripResavesIdentically) {
  // map -> saveModelV3 must reproduce the file byte for byte: a mapped
  // model's image is the trained model's image.
  ModelBundle Original = trainBundle();
  std::string First = bundleBytes(Original);
  TempFile File(First);
  auto Mapped = openMappedBundle(File.path());
  ASSERT_NE(Mapped, nullptr);
  EXPECT_EQ(bundleBytes(*Mapped), First);
}

TEST(MappedBundle, NewStringsAndPathsExtendFrozenArenas) {
  ModelBundle Original = trainBundle();
  TempFile File(bundleBytes(Original));
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

TEST(MappedBundle, RetiredVersionsFailWithHint) {
  // The heads of retired bundles: the same magic, then version 2 (the
  // stream format, followed by language, task and extraction settings)
  // or version 3 (the sorted-array mmap format, followed by its file
  // size and a 48-byte header of the same shape).
  for (uint32_t Version : {2u, 3u}) {
    std::string Head;
    auto Pod = [&Head](const auto &Value) {
      Head.append(reinterpret_cast<const char *>(&Value), sizeof(Value));
    };
    Pod(uint32_t{0x50494742}); // "PIGB"
    Pod(Version);
    if (Version == 2) {
      Pod(uint8_t{0}); // JavaScript.
      Pod(uint8_t{0}); // Variable names.
      Pod(int32_t{4}); // max_length.
      Pod(int32_t{3}); // max_width.
      Pod(uint8_t{0}); // Abstraction.
      Pod(uint8_t{1}); // Semi-paths.
    } else {
      Pod(uint64_t{4096}); // File size.
      Pod(uint32_t{0x01000000}); // Lang, task, abstraction, semi-paths.
      Pod(int32_t{4});           // max_length.
      Pod(int32_t{3});           // max_width.
      Pod(uint32_t{13});         // Section count.
    }
    // Short or long, the file is named by its version.
    for (const std::string &Img :
         {Head, Head + std::string(4096 - Head.size(), '\1')}) {
      LoadDiag Diag = expectRejected(Img);
      EXPECT_EQ(Diag.Offset, 4u);
      EXPECT_NE(Diag.Error.find("bundle version mismatch: expected 4, found " +
                                std::to_string(Version)),
                std::string::npos)
          << Diag.Error;
      EXPECT_NE(Diag.Error.find("retrain"), std::string::npos) << Diag.Error;
    }
  }
}

TEST(MappedBundle, BadMagicReportsExpectedAndFound) {
  ModelBundle Original = trainBundle();
  std::string Img = bundleBytes(Original);
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
  std::string Img = bundleBytes(Original);
  for (size_t Keep :
       {size_t(0), size_t(7), size_t(47), sectionTableEnd(Img) - 1,
        Img.size() / 4, Img.size() / 2, Img.size() - 16, Img.size() - 1})
    expectRejected(Img.substr(0, Keep));
}

TEST(MappedBundle, TrailingGarbageIsRejected) {
  ModelBundle Original = trainBundle();
  expectRejected(bundleBytes(Original) + std::string(64, '\0'));
}

TEST(MappedBundle, MisalignedSectionIsRejected) {
  ModelBundle Original = trainBundle();
  std::string Pristine = bundleBytes(Original);
  for (uint32_t Sec = 0; Sec < sectionCount(Pristine); ++Sec) {
    std::string Img = Pristine;
    // Break 8-byte alignment but stay in bounds.
    putU64(Img, entryField(Sec, 8), u64At(Img, entryField(Sec, 8)) + 4);
    LoadDiag Diag = expectRejected(Img);
    EXPECT_NE(Diag.Error.find("align"), std::string::npos)
        << "section " << Sec << ": " << Diag.Error;
  }
}

TEST(MappedBundle, OverlappingSectionsAreRejected) {
  ModelBundle Original = trainBundle();
  std::string Img = bundleBytes(Original);
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
  std::string Pristine = bundleBytes(Original);
  for (uint32_t Sec = 0; Sec < sectionCount(Pristine); ++Sec) {
    std::string Img = Pristine;
    // 2^64 - 8: 8-byte aligned, so only the checked add can reject it.
    putU64(Img, entryField(Sec, 8), UINT64_MAX - 7);
    putU64(Img, entryField(Sec, 16), 64);
    LoadDiag Diag = expectRejected(Img);
    EXPECT_NE(Diag.Error.find("overflows"), std::string::npos)
        << "section " << Sec << ": " << Diag.Error;
  }
}

TEST(MappedBundle, ChecksumDamageIsRejectedWhenVerifying) {
  ModelBundle Original = trainBundle();
  std::string Img = bundleBytes(Original);
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
  std::string Img = bundleBytes(Original);
  Img[Img.size() - 8] ^= 0xFF;
  LoadDiag Diag = expectRejected(Img);
  EXPECT_NE(Diag.Error.find("trailer"), std::string::npos) << Diag.Error;
}

TEST(MappedBundle, CorruptOffsetArraysAreRejected) {
  ModelBundle Original = trainBundle();
  // Non-monotonic string offsets.
  {
    std::string Img = bundleBytes(Original);
    uint64_t OffsetsOff;
    std::memcpy(&OffsetsOff, Img.data() + 48 + 24 + 8, 8);
    uint64_t Huge = UINT64_MAX / 2;
    std::memcpy(Img.data() + OffsetsOff + 8, &Huge, 8);
    expectRejected(Img);
  }
  // Stored string-index slot out of range.
  {
    std::string Img = bundleBytes(Original);
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

  TempFile File(bundleBytes(Empty));
  LoadDiag Diag;
  auto Mapped = openMappedBundle(File.path(), &Diag, /*VerifyChecksum=*/true);
  ASSERT_NE(Mapped, nullptr) << Diag.Error;
  EXPECT_EQ(Mapped->Interner->size(), 1u);
  EXPECT_EQ(Mapped->Table.size(), 0u);
  EXPECT_EQ(Mapped->Model.numFeatures(), 0u);
  // And the empty frozen tables still accept growth.
  EXPECT_EQ(Mapped->Interner->intern("fresh").index(), 1u);
}

TEST(MappedBundle, TableSlotCountMustBeTwoToTheKPlusOne) {
  ModelBundle Original = trainBundle();
  std::string Pristine = bundleBytes(Original);
  for (uint32_t Sec : {SecWeights, SecCands}) {
    // One slot short is 2^k slots: no room for the key-0 slot.
    std::string Img = Pristine;
    putU64(Img, entryField(Sec, 16), u64At(Img, entryField(Sec, 16)) - 16);
    reseal(Img);
    LoadDiag Diag = expectRejected(Img);
    EXPECT_EQ(Diag.Offset, entryField(Sec, 16));
    EXPECT_NE(Diag.Error.find("expected 2^k + 1"), std::string::npos)
        << Diag.Error;
    // A length that is not a whole number of 16-byte slots.
    Img = Pristine;
    putU64(Img, entryField(Sec, 16), u64At(Img, entryField(Sec, 16)) - 8);
    reseal(Img);
    Diag = expectRejected(Img);
    EXPECT_NE(Diag.Error.find("not a multiple of 16"), std::string::npos)
        << Diag.Error;
  }
  // A lone key-0 slot, with no probed slot, is not a table either.
  std::string Img = Pristine;
  putU64(Img, entryField(SecWeights, 16), 16);
  reseal(Img);
  EXPECT_NE(expectRejected(Img).Error.find("expected 2^k + 1"),
            std::string::npos);
}

TEST(MappedBundle, WeightCountPastTheLoadLimitIsRejected) {
  ModelBundle Original = trainBundle();
  std::string Img = bundleBytes(Original);
  uint64_t Slots = u64At(Img, entryField(SecWeights, 16)) / 16;
  EXPECT_EQ(u64At(Img, 40), Original.Model.numFeatures());
  putU64(Img, 40, 3 * (Slots - 1) / 4 + 2);
  reseal(Img);
  LoadDiag Diag = expectRejected(Img);
  EXPECT_EQ(Diag.Offset, 40u);
  EXPECT_NE(Diag.Error.find("weight count"), std::string::npos) << Diag.Error;
}

TEST(MappedBundle, CandidateRangesPastThePairSectionAreRejected) {
  ModelBundle Original = trainBundle();
  std::string Pristine = bundleBytes(Original);
  uint64_t TableOff = u64At(Pristine, entryField(SecCands, 8));
  uint64_t Slots = u64At(Pristine, entryField(SecCands, 16)) / 16;
  uint64_t Pairs = u64At(Pristine, entryField(SecCandPairs, 16)) / 8;
  ASSERT_LT(Pairs, uint64_t(UINT32_MAX) - 8);
  // The first occupied probed slot, and the key-0 slot (flagged present).
  size_t Occupied = 0;
  while (u64At(Pristine, TableOff + Occupied * 16) == 0)
    ++Occupied;
  ASSERT_LT(Occupied, Slots - 1);
  for (size_t Slot : {Occupied, size_t(Slots - 1)}) {
    auto Crafted = [&](uint32_t First, uint32_t Count) {
      std::string Img = Pristine;
      size_t At = TableOff + Slot * 16;
      if (Slot == Slots - 1)
        putU64(Img, At, 1); // Key 0 is stored.
      std::memcpy(Img.data() + At + 8, &First, 4);
      std::memcpy(Img.data() + At + 12, &Count, 4);
      reseal(Img);
      return Img;
    };
    // Ends exactly at the section's end: fine.
    EXPECT_NE(test::mapBytes(Crafted(uint32_t(Pairs - 2), 2)), nullptr);
    // One pair past it.
    LoadDiag Diag = expectRejected(Crafted(uint32_t(Pairs - 1), 2));
    EXPECT_EQ(Diag.Offset, TableOff + Slot * 16 + 8);
    EXPECT_NE(Diag.Error.find("pass the"), std::string::npos) << Diag.Error;
    // First + Count wraps to 2 in 32 bits, well inside the section.
    Diag = expectRejected(Crafted(UINT32_MAX - 1, 4));
    EXPECT_EQ(Diag.Offset, TableOff + Slot * 16 + 8);
  }
  // A key-0 flag other than 0 or 1.
  std::string Img = Pristine;
  putU64(Img, TableOff + (Slots - 1) * 16, 2);
  reseal(Img);
  EXPECT_NE(expectRejected(Img).Error.find("key-0 slot flag"),
            std::string::npos);
}

TEST(MappedBundle, FullTablesLoadOrFailClosed) {
  // No table the writer emits is more than 3/4 full, but a hostile one
  // can have every slot occupied. The walked candidate table fails
  // closed; the weight table, never walked, loads, and every probe still
  // ends: absent keys read as absent.
  ModelBundle Original = trainBundle();
  std::string Pristine = bundleBytes(Original);
  auto Fill = [&](uint32_t Sec) {
    std::string Img = Pristine;
    uint64_t Off = u64At(Img, entryField(Sec, 8));
    uint64_t Slots = u64At(Img, entryField(Sec, 16)) / 16;
    for (uint64_t I = 0; I + 1 < Slots; ++I)
      if (u64At(Img, Off + I * 16) == 0) {
        putU64(Img, Off + I * 16, (I << 20) | 0xfffff); // Probes from I.
        putU64(Img, Off + I * 16 + 8, 0); // Weight 0.0, or pairs [0, 0).
      }
    reseal(Img);
    return Img;
  };

  LoadDiag Diag = expectRejected(Fill(SecCands));
  EXPECT_NE(Diag.Error.find("3/4 load limit"), std::string::npos)
      << Diag.Error;

  auto Mapped = test::mapBytes(Fill(SecWeights), &Diag);
  ASSERT_NE(Mapped, nullptr) << Diag.Error;
  const crf::FrozenCrf &F = Mapped->Model.image();
  EXPECT_EQ(F.Weights.find(0x5eed5eed5eed5eedULL), nullptr);
  EXPECT_EQ(F.Weights.find(0), nullptr);
  // Predictions run to completion over the full table.
  EXPECT_FALSE(signatureOf(*Mapped, MinifiedJs).empty());

  // The candidate lookup shares the probe: an absent context in a full
  // table finds no slot, hence an empty candidate list.
  std::vector<crf::CandSlot> Full(65);
  for (uint64_t I = 0; I < 64; ++I)
    Full[I].Key = I + 1;
  crf::FrozenTable<crf::CandSlot> T{Full.data(), 63};
  EXPECT_EQ(T.find(65), nullptr);
  EXPECT_NE(T.find(64), nullptr);
}

TEST(MappedBundle, EveryHeaderByteFlipFailsClosed) {
  // Fuzz-lite: flipping any single byte of the header + section table
  // either still loads (reserved bytes) or fails with a diagnostic —
  // never crashes. Under ASan/UBSan this doubles as an OOB probe.
  ModelBundle Original = trainBundle();
  std::string Pristine = bundleBytes(Original);
  ASSERT_EQ(sectionTableEnd(Pristine), 312u); // 48 + 11 x 24.
  for (size_t I = 0; I < sectionTableEnd(Pristine); ++I) {
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
