//===- MappedBundle.cpp - Zero-copy mmap model bundles (v4) ------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/MappedBundle.h"

#include "support/BinaryIO.h"
#include "support/Hashing.h"

#include <cerrno>
#include <algorithm>
#include <cassert>
#include <cstring>
#include <ostream>
#include <sstream>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace pigeon;
using namespace pigeon::core;

//===----------------------------------------------------------------------===//
// MappedRegion
//===----------------------------------------------------------------------===//

std::shared_ptr<const MappedRegion>
MappedRegion::open(const std::string &Path, std::string *Error) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0) {
    if (Error)
      *Error = "cannot read " + Path + ": " + std::strerror(errno);
    return nullptr;
  }
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    if (Error)
      *Error = "cannot stat '" + Path + "': " + std::strerror(errno);
    ::close(Fd);
    return nullptr;
  }
  size_t Size = static_cast<size_t>(St.st_size);
  void *Data = nullptr;
  if (Size > 0) {
    Data = ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, Fd, 0);
    if (Data == MAP_FAILED) {
      if (Error)
        *Error = "cannot mmap '" + Path + "': " + std::strerror(errno);
      ::close(Fd);
      return nullptr;
    }
  }
  // The mapping outlives the descriptor.
  ::close(Fd);
  return std::shared_ptr<const MappedRegion>(new MappedRegion(Data, Size));
}

MappedRegion::~MappedRegion() {
  if (Data)
    ::munmap(Data, Size);
}

//===----------------------------------------------------------------------===//
// Format constants
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t BundleMagic = 0x50494742;  // "PIGB"
constexpr uint32_t MappedVersion = 4;
constexpr uint32_t TrailerMagic = 0x34544750; // "PGT4"

constexpr uint64_t HeaderBytes = 48;
constexpr uint32_t NumSections = 11;
constexpr uint64_t SectionEntryBytes = 24;
constexpr uint64_t SectionsStart =
    HeaderBytes + NumSections * SectionEntryBytes; // 312
constexpr uint64_t TrailerBytes = 16;
constexpr uint64_t MinFileBytes = SectionsStart + TrailerBytes;

/// Section kinds, in the fixed order they appear in the section table
/// and in the file. Values are 1-based so a zeroed entry is detectably
/// invalid.
enum SectionKind : uint32_t {
  SecStrArena = 1,  ///< Concatenated string bytes, ids 0..StrCount-1.
  SecStrOffsets,    ///< u64 x (StrCount+1), [0] == 0.
  SecStrIndex,      ///< u32 x pow2 slots, value = string id + 1.
  SecPathArena,     ///< Concatenated packed-path bytes, ids 1..PathCount.
  SecPathOffsets,   ///< u64 x (PathCount+1), [0] == 0.
  SecPathIndex,     ///< u32 x pow2 slots, value = path id.
  SecWeights,       ///< {u64 key, f64 weight} x (2^k + 1) table slots.
  SecCands,         ///< {u64 key, u32 first, u32 count} x (2^k + 1) slots.
  SecCandPairs,     ///< (u32 label, u32 count) pairs, lists in key order.
  SecPruned,        ///< u64 x NumPruned, sorted ascending.
  SecGlobalTop,     ///< u32 x NumGlobal label indices, rank order.
};

static_assert(sizeof(crf::WeightSlot) == 16 && sizeof(crf::CandSlot) == 16,
              "table slots are stored as 16-byte records");
constexpr uint64_t SlotBytes = 16;

struct SectionDesc {
  uint64_t Offset = 0;
  uint64_t Length = 0;
};

uint64_t align8(uint64_t V) { return (V + 7) & ~uint64_t(7); }

std::string hex32(uint32_t Value) {
  std::ostringstream OS;
  OS << "0x" << std::hex << Value;
  return OS.str();
}

void setDiag(LoadDiag *Diag, uint64_t Offset, std::string Error) {
  if (!Diag)
    return;
  Diag->Offset = Offset;
  Diag->Error = std::move(Error);
}

/// Builds the stored open-addressed linear-probe index: \p Hashes[I] is
/// the stable hash of the item whose slot value is \p Values[I]. Matches
/// the probe sequence of StringInterner::findFrozen /
/// PathTable::findFrozen and the live table's <7/8 load factor.
std::vector<uint32_t> buildStoredIndex(const std::vector<uint64_t> &Hashes,
                                       const std::vector<uint32_t> &Values) {
  size_t Cap = 64;
  while (Hashes.size() * 8 >= Cap * 7)
    Cap *= 2;
  std::vector<uint32_t> Slots(Cap, 0);
  uint64_t Mask = Cap - 1;
  for (size_t I = 0; I < Hashes.size(); ++I) {
    uint64_t Slot = Hashes[I] & Mask;
    while (Slots[Slot] != 0)
      Slot = (Slot + 1) & Mask;
    Slots[Slot] = Values[I];
  }
  return Slots;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

/// Accumulates the file image in memory (the checksum needs the final
/// bytes anyway), tracking 8-byte alignment. The buffer is sized for the
/// whole file up front, so writing never holds two copies of it.
class ImageBuilder {
public:
  explicit ImageBuilder(uint64_t Capacity) { Buf.reserve(Capacity); }
  template <typename T> void pod(const T &Value) {
    Buf.append(reinterpret_cast<const char *>(&Value), sizeof(Value));
  }
  void bytes(const void *Data, size_t Len) {
    if (Len)
      Buf.append(static_cast<const char *>(Data), Len);
  }
  void padTo8() {
    while (Buf.size() % 8)
      Buf.push_back('\0');
  }
  uint64_t size() const { return Buf.size(); }
  const std::string &str() const { return Buf; }

private:
  std::string Buf;
};

} // namespace

void core::saveModelV3(std::ostream &OS, const ModelBundle &Bundle) {
  const StringInterner &SI = *Bundle.Interner;
  const paths::PathTable &PT = Bundle.Table;
  uint32_t StrCount = static_cast<uint32_t>(SI.size());
  uint32_t PathCount = static_cast<uint32_t>(PT.size());
  assert(StrCount >= 1 && "interner always holds the reserved id 0");

  // Gather arenas and offset tables in id order (deterministic).
  std::string StrArena;
  std::vector<uint64_t> StrOffsets;
  StrOffsets.reserve(size_t(StrCount) + 1);
  StrOffsets.push_back(0);
  std::vector<uint64_t> StrHashes;
  std::vector<uint32_t> StrValues;
  StrHashes.reserve(StrCount);
  for (uint32_t I = 0; I < StrCount; ++I) {
    std::string_view S = SI.str(Symbol::fromIndex(I));
    StrArena.append(S);
    StrOffsets.push_back(StrArena.size());
    if (I > 0) {
      // Id 0 is the reserved empty slot and never resolves via lookup.
      StrHashes.push_back(stableHashBytes(S.data(), S.size()));
      StrValues.push_back(I + 1); // Slot bias: 0 stays the empty sentinel.
    }
  }
  std::vector<uint32_t> StrIndex = buildStoredIndex(StrHashes, StrValues);

  std::vector<uint8_t> PathArena;
  std::vector<uint64_t> PathOffsets;
  PathOffsets.reserve(size_t(PathCount) + 1);
  PathOffsets.push_back(0);
  std::vector<uint64_t> PathHashes;
  std::vector<uint32_t> PathValues;
  PathHashes.reserve(PathCount);
  for (uint32_t I = 1; I <= PathCount; ++I) {
    std::span<const uint8_t> B = PT.bytes(I);
    PathArena.insert(PathArena.end(), B.begin(), B.end());
    PathOffsets.push_back(PathArena.size());
    PathHashes.push_back(stableHashBytes(B.data(), B.size()));
    PathValues.push_back(I);
  }
  std::vector<uint32_t> PathIndex = buildStoredIndex(PathHashes, PathValues);

  const crf::FrozenCrf &F = Bundle.Model.image();

  // Lay out the section table: every section starts 8-byte aligned.
  uint64_t Lengths[NumSections] = {
      StrArena.size(),
      StrOffsets.size() * 8,
      StrIndex.size() * 4,
      PathArena.size(),
      PathOffsets.size() * 8,
      PathIndex.size() * 4,
      F.Weights.numSlots() * SlotBytes,
      F.Cands.numSlots() * SlotBytes,
      F.NumCandPairs * 8,
      F.NumPruned * 8,
      uint64_t(F.NumGlobal) * 4,
  };
  SectionDesc Sections[NumSections];
  uint64_t At = SectionsStart;
  for (uint32_t I = 0; I < NumSections; ++I) {
    Sections[I].Offset = At;
    Sections[I].Length = Lengths[I];
    At = align8(At + Lengths[I]);
  }
  uint64_t TrailerOff = At;
  uint64_t FileSize = TrailerOff + TrailerBytes;

  ImageBuilder Img(FileSize);
  // Header.
  Img.pod(BundleMagic);
  Img.pod(MappedVersion);
  Img.pod(FileSize);
  Img.pod(static_cast<uint8_t>(Bundle.Lang));
  Img.pod(static_cast<uint8_t>(Bundle.TaskKind));
  Img.pod(static_cast<uint8_t>(Bundle.Extraction.Abst));
  Img.pod(static_cast<uint8_t>(Bundle.Extraction.IncludeSemiPaths));
  Img.pod(static_cast<int32_t>(Bundle.Extraction.MaxLength));
  Img.pod(static_cast<int32_t>(Bundle.Extraction.MaxWidth));
  Img.pod(NumSections);
  Img.pod(StrCount);
  Img.pod(PathCount);
  Img.pod(F.NumWeights);
  assert(Img.size() == HeaderBytes && "header layout drifted");
  // Section table.
  for (uint32_t I = 0; I < NumSections; ++I) {
    Img.pod(static_cast<uint32_t>(I + 1)); // Kind.
    Img.pod(static_cast<uint32_t>(0));     // Reserved.
    Img.pod(Sections[I].Offset);
    Img.pod(Sections[I].Length);
  }
  assert(Img.size() == SectionsStart && "section table layout drifted");
  // Sections, zero-padded to 8-byte starts.
  auto Emit = [&Img](const void *Data, size_t Len) {
    Img.bytes(Data, Len);
    Img.padTo8();
  };
  Emit(StrArena.data(), StrArena.size());
  Emit(StrOffsets.data(), StrOffsets.size() * 8);
  Emit(StrIndex.data(), StrIndex.size() * 4);
  Emit(PathArena.data(), PathArena.size());
  Emit(PathOffsets.data(), PathOffsets.size() * 8);
  Emit(PathIndex.data(), PathIndex.size() * 4);
  Emit(F.Weights.Slots, F.Weights.numSlots() * SlotBytes);
  Emit(F.Cands.Slots, F.Cands.numSlots() * SlotBytes);
  Emit(F.CandPairs, F.NumCandPairs * 8);
  Emit(F.PrunedKeys, F.NumPruned * 8);
  Emit(F.GlobalTop, uint64_t(F.NumGlobal) * 4);
  assert(Img.size() == TrailerOff && "section layout drifted");
  // Trailer: checksum over everything before it.
  uint64_t Checksum = stableHashBytes(Img.str().data(), Img.size());
  Img.pod(Checksum);
  Img.pod(TrailerMagic);
  Img.pod(static_cast<uint32_t>(0)); // Reserved.
  assert(Img.size() == FileSize && "trailer layout drifted");

  OS.write(Img.str().data(), static_cast<std::streamsize>(Img.size()));
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

namespace {

template <typename T> T readAt(const uint8_t *Base, uint64_t Offset) {
  T Value;
  std::memcpy(&Value, Base + Offset, sizeof(T));
  return Value;
}

const char *sectionName(uint32_t Kind) {
  switch (Kind) {
  case SecStrArena: return "string arena";
  case SecStrOffsets: return "string offsets";
  case SecStrIndex: return "string index";
  case SecPathArena: return "path arena";
  case SecPathOffsets: return "path offsets";
  case SecPathIndex: return "path index";
  case SecWeights: return "weight table";
  case SecCands: return "candidate table";
  case SecCandPairs: return "candidate pairs";
  case SecPruned: return "pruned paths";
  case SecGlobalTop: return "global candidates";
  }
  return "unknown";
}

/// Validation context: every check funnels through fail() so each
/// rejection carries the failing byte offset and an expected-vs-found
/// message.
struct Validator {
  const uint8_t *Base;
  uint64_t Size;
  LoadDiag *Diag;
  bool Failed = false;

  bool fail(uint64_t Offset, std::string Error) {
    if (!Failed) // First failure wins: later checks may be cascades.
      setDiag(Diag, Offset, std::move(Error));
    Failed = true;
    return false;
  }

  /// Checks the offsets array invariant: [0] == 0, monotonic
  /// non-decreasing, last == ArenaLen.
  bool checkOffsets(const uint64_t *Offsets, uint64_t Count,
                    uint64_t ArenaLen, uint64_t SectionOff,
                    const char *What) {
    if (Offsets[0] != 0)
      return fail(SectionOff, std::string(What) +
                                  ": first offset must be 0, found " +
                                  std::to_string(Offsets[0]));
    for (uint64_t I = 0; I < Count; ++I)
      if (Offsets[I + 1] < Offsets[I])
        return fail(SectionOff + (I + 1) * 8,
                    std::string(What) + ": offsets not monotonic at entry " +
                        std::to_string(I + 1));
    if (Offsets[Count] != ArenaLen)
      return fail(SectionOff + Count * 8,
                  std::string(What) + ": last offset " +
                      std::to_string(Offsets[Count]) +
                      " does not equal the arena length " +
                      std::to_string(ArenaLen));
    return true;
  }

  /// Checks a stored index section: power-of-two slot count, every slot
  /// value within [0, MaxValue].
  bool checkIndex(const uint32_t *Slots, uint64_t Count, uint64_t MaxValue,
                  uint64_t SectionOff, const char *What) {
    if (Count == 0 || (Count & (Count - 1)) != 0)
      return fail(SectionOff, std::string(What) + ": slot count " +
                                  std::to_string(Count) +
                                  " is not a power of two");
    for (uint64_t I = 0; I < Count; ++I)
      if (Slots[I] > MaxValue)
        return fail(SectionOff + I * 4,
                    std::string(What) + ": slot " + std::to_string(I) +
                        " value " + std::to_string(Slots[I]) +
                        " exceeds the maximum " + std::to_string(MaxValue));
    return true;
  }
};

} // namespace

std::unique_ptr<ModelBundle> core::openMappedBundle(const std::string &Path,
                                                    LoadDiag *Diag,
                                                    bool VerifyChecksum) {
  std::string MapError;
  std::shared_ptr<const MappedRegion> Region =
      MappedRegion::open(Path, &MapError);
  if (!Region) {
    setDiag(Diag, 0, MapError);
    return nullptr;
  }
  const uint8_t *Base = Region->data();
  uint64_t Size = Region->size();
  Validator V{Base, Size, Diag};

  auto Truncated = [&] {
    V.fail(0, "truncated: file is " + std::to_string(Size) +
                  " bytes, a v" + std::to_string(MappedVersion) +
                  " bundle needs at least " +
                  std::to_string(MinFileBytes));
    return nullptr;
  };
  // Magic and version come first, so a file of another kind or version
  // is named as such whatever its length.
  if (Size < 8)
    return Truncated();
  uint32_t Magic = readAt<uint32_t>(Base, 0);
  if (Magic != BundleMagic) {
    V.fail(0, "bad bundle magic: expected " + hex32(BundleMagic) +
                  " (\"PIGB\"), found " + hex32(Magic));
    return nullptr;
  }
  uint32_t Version = readAt<uint32_t>(Base, 4);
  if (Version != MappedVersion) {
    std::string Hint =
        Version < MappedVersion
            ? " (bundle format v" + std::to_string(Version) +
                  " is retired and no longer read — retrain the model with "
                  "`pigeon train`)"
            : "";
    V.fail(4, "bundle version mismatch: expected " +
                  std::to_string(MappedVersion) + ", found " +
                  std::to_string(Version) + Hint);
    return nullptr;
  }
  if (Size < MinFileBytes)
    return Truncated();
  uint64_t FileSize = readAt<uint64_t>(Base, 8);
  if (FileSize != Size) {
    V.fail(8, "file size mismatch: header claims " +
                  std::to_string(FileSize) + " bytes, file is " +
                  std::to_string(Size));
    return nullptr;
  }
  uint8_t LangByte = Base[16], TaskByte = Base[17], AbstByte = Base[18],
          SemiByte = Base[19];
  int32_t MaxLength = readAt<int32_t>(Base, 20);
  int32_t MaxWidth = readAt<int32_t>(Base, 24);
  uint32_t SectionCount = readAt<uint32_t>(Base, 28);
  uint32_t StrCount = readAt<uint32_t>(Base, 32);
  uint32_t PathCount = readAt<uint32_t>(Base, 36);
  uint64_t NumWeights = readAt<uint64_t>(Base, 40);
  if (SectionCount != NumSections) {
    V.fail(28, "section count mismatch: expected " +
                   std::to_string(NumSections) + ", found " +
                   std::to_string(SectionCount));
    return nullptr;
  }
  if (StrCount < 1) {
    V.fail(32, "string count 0: the interner always holds the reserved "
               "empty id 0");
    return nullptr;
  }
  if (LangByte > static_cast<uint8_t>(lang::Language::CSharp)) {
    V.fail(16, "language byte " + std::to_string(LangByte) +
                   " out of range (max " +
                   std::to_string(
                       static_cast<uint8_t>(lang::Language::CSharp)) +
                   ")");
    return nullptr;
  }
  if (TaskByte > static_cast<uint8_t>(Task::FullTypes)) {
    V.fail(17, "task byte " + std::to_string(TaskByte) +
                   " out of range (max " +
                   std::to_string(static_cast<uint8_t>(Task::FullTypes)) +
                   ")");
    return nullptr;
  }
  if (AbstByte > static_cast<uint8_t>(paths::Abstraction::NoPath)) {
    V.fail(18, "abstraction byte " + std::to_string(AbstByte) +
                   " out of range (max " +
                   std::to_string(
                       static_cast<uint8_t>(paths::Abstraction::NoPath)) +
                   ")");
    return nullptr;
  }

  // Trailer.
  uint64_t TrailerOff = Size - TrailerBytes;
  uint32_t TMagic = readAt<uint32_t>(Base, TrailerOff + 8);
  if (TMagic != TrailerMagic) {
    V.fail(TrailerOff + 8, "bad trailer magic: expected " +
                               hex32(TrailerMagic) + " (\"PGT4\"), found " +
                               hex32(TMagic));
    return nullptr;
  }
  // Section table: fixed kind order, 8-byte aligned, overflow-checked
  // bounds, non-overlapping and ascending.
  SectionDesc S[NumSections];
  uint64_t PrevEnd = SectionsStart;
  for (uint32_t I = 0; I < NumSections; ++I) {
    uint64_t EntryOff = HeaderBytes + uint64_t(I) * SectionEntryBytes;
    uint32_t Kind = readAt<uint32_t>(Base, EntryOff);
    if (Kind != I + 1) {
      V.fail(EntryOff, "section table entry " + std::to_string(I) +
                           ": expected kind " + std::to_string(I + 1) +
                           " (" + sectionName(I + 1) + "), found " +
                           std::to_string(Kind));
      return nullptr;
    }
    uint64_t Offset = readAt<uint64_t>(Base, EntryOff + 8);
    uint64_t Length = readAt<uint64_t>(Base, EntryOff + 16);
    std::string Name = sectionName(Kind);
    if (Offset % 8 != 0) {
      V.fail(EntryOff + 8, Name + " section: offset " +
                               std::to_string(Offset) +
                               " is not 8-byte aligned");
      return nullptr;
    }
    if (Offset < PrevEnd) {
      V.fail(EntryOff + 8,
             Name + " section: offset " + std::to_string(Offset) +
                 " overlaps the previous section (which ends at " +
                 std::to_string(PrevEnd) + ")");
      return nullptr;
    }
    uint64_t End = 0;
    // Checked arithmetic: a crafted offset near UINT64_MAX must be
    // rejected, not wrapped past the bounds check.
    if (!io::checkedAdd(Offset, Length, End) || End > TrailerOff) {
      V.fail(EntryOff + 16,
             Name + " section: offset " + std::to_string(Offset) +
                 " + length " + std::to_string(Length) +
                 " overflows or passes the trailer at " +
                 std::to_string(TrailerOff));
      return nullptr;
    }
    S[I] = {Offset, Length};
    PrevEnd = End;
  }

  // Per-section shape checks. Element sizes first, then cross-section
  // count consistency, then content invariants — after this block every
  // pointer handed to the frozen views is safe to dereference over its
  // full validated range.
  auto DivisibleBy = [&](uint32_t Kind, uint64_t Elem) -> bool {
    const SectionDesc &D = S[Kind - 1];
    if (D.Length % Elem == 0)
      return true;
    V.fail(HeaderBytes + uint64_t(Kind - 1) * SectionEntryBytes + 16,
           std::string(sectionName(Kind)) + " section: length " +
               std::to_string(D.Length) + " is not a multiple of " +
               std::to_string(Elem));
    return false;
  };
  const std::pair<uint32_t, uint64_t> ElemBytes[] = {
      {SecStrOffsets, 8}, {SecStrIndex, 4},        {SecPathOffsets, 8},
      {SecPathIndex, 4},  {SecWeights, SlotBytes}, {SecCands, SlotBytes},
      {SecCandPairs, 8},  {SecPruned, 8},          {SecGlobalTop, 4}};
  for (auto [Kind, Elem] : ElemBytes)
    if (!DivisibleBy(Kind, Elem))
      return nullptr;

  auto SecPtr = [&](uint32_t Kind) { return Base + S[Kind - 1].Offset; };
  auto SecLen = [&](uint32_t Kind) { return S[Kind - 1].Length; };
  auto SecOff = [&](uint32_t Kind) { return S[Kind - 1].Offset; };
  auto CountMismatch = [&](uint32_t Kind, uint64_t Expect,
                           const char *Why) {
    V.fail(HeaderBytes + uint64_t(Kind - 1) * SectionEntryBytes + 16,
           std::string(sectionName(Kind)) + " section: length " +
               std::to_string(SecLen(Kind)) + " does not match " + Why +
               " (expected " + std::to_string(Expect) + " bytes)");
    return nullptr;
  };

  if (SecLen(SecStrOffsets) != (uint64_t(StrCount) + 1) * 8)
    return CountMismatch(SecStrOffsets, (uint64_t(StrCount) + 1) * 8,
                         "the header string count");
  if (SecLen(SecPathOffsets) != (uint64_t(PathCount) + 1) * 8)
    return CountMismatch(SecPathOffsets, (uint64_t(PathCount) + 1) * 8,
                         "the header path count");
  // A hashed table is 2^k probed slots plus the slot of key 0, whose key
  // field is a presence flag.
  auto TableMask = [&](uint32_t Kind, uint64_t &Mask) {
    uint64_t Slots = SecLen(Kind) / SlotBytes;
    const char *Name = sectionName(Kind);
    if (Slots < 2 || ((Slots - 1) & (Slots - 2)) != 0)
      return V.fail(HeaderBytes + uint64_t(Kind - 1) * SectionEntryBytes + 16,
                    std::string(Name) + " section: " + std::to_string(Slots) +
                        " slots, expected 2^k + 1 (a power-of-two table "
                        "plus the key-0 slot)");
    Mask = Slots - 2;
    uint64_t Flag = readAt<uint64_t>(SecPtr(Kind), (Mask + 1) * SlotBytes);
    if (Flag > 1)
      return V.fail(SecOff(Kind) + (Mask + 1) * SlotBytes,
                    std::string(Name) + ": key-0 slot flag " +
                        std::to_string(Flag) + " is neither 0 nor 1");
    return true;
  };
  uint64_t WeightMask = 0, CandMask = 0;
  if (!TableMask(SecWeights, WeightMask) || !TableMask(SecCands, CandMask))
    return nullptr;
  // The weight table is not walked: any key or value bits are safe to
  // read and probe() is bounded, so a bad slot can only misreport a
  // weight. Its entry count is checked against the load limit.
  if (NumWeights > 3 * (WeightMask + 1) / 4 + 1) {
    V.fail(40, "weight count " + std::to_string(NumWeights) +
                   " exceeds what a table of " +
                   std::to_string(WeightMask + 1) +
                   " slots holds at 3/4 load plus key 0");
    return nullptr;
  }

  const auto *StrOffsets =
      reinterpret_cast<const uint64_t *>(SecPtr(SecStrOffsets));
  if (!V.checkOffsets(StrOffsets, StrCount, SecLen(SecStrArena),
                      SecOff(SecStrOffsets), "string offsets"))
    return nullptr;
  if (StrOffsets[1] != 0) {
    V.fail(SecOff(SecStrOffsets) + 8,
           "string id 0 must be the empty string, found " +
               std::to_string(StrOffsets[1]) + " bytes");
    return nullptr;
  }
  const auto *PathOffsets =
      reinterpret_cast<const uint64_t *>(SecPtr(SecPathOffsets));
  if (!V.checkOffsets(PathOffsets, PathCount, SecLen(SecPathArena),
                      SecOff(SecPathOffsets), "path offsets"))
    return nullptr;

  const auto *StrIndex =
      reinterpret_cast<const uint32_t *>(SecPtr(SecStrIndex));
  // String slots are biased by +1, so the maximum legal value is
  // StrCount (naming id StrCount - 1).
  if (!V.checkIndex(StrIndex, SecLen(SecStrIndex) / 4, StrCount,
                    SecOff(SecStrIndex), "string index"))
    return nullptr;
  const auto *PathIndex =
      reinterpret_cast<const uint32_t *>(SecPtr(SecPathIndex));
  if (!V.checkIndex(PathIndex, SecLen(SecPathIndex) / 4, PathCount,
                    SecOff(SecPathIndex), "path index"))
    return nullptr;

  // Every stored context's pair range must lie in the pair section, and
  // the probed slots must respect the 3/4 load limit.
  const auto *Cands =
      reinterpret_cast<const crf::CandSlot *>(SecPtr(SecCands));
  uint64_t NumPairs = SecLen(SecCandPairs) / 8;
  uint64_t NumCands = 0;
  for (uint64_t I = 0; I <= CandMask + 1; ++I) {
    const crf::CandSlot &C = Cands[I];
    if (C.Key == 0)
      continue;
    uint64_t End = 0;
    if (!io::checkedAdd(C.First, C.Count, End) || End > NumPairs) {
      V.fail(SecOff(SecCands) + I * SlotBytes + 8,
             "candidate slot " + std::to_string(I) + ": pairs [" +
                 std::to_string(C.First) + ", " + std::to_string(C.First) +
                 " + " + std::to_string(C.Count) + ") pass the " +
                 std::to_string(NumPairs) + " pairs of the pair section");
      return nullptr;
    }
    if (I <= CandMask)
      ++NumCands;
  }
  if (NumCands > 3 * (CandMask + 1) / 4) {
    V.fail(SecOff(SecCands),
           "candidate table: " + std::to_string(NumCands) + " of " +
               std::to_string(CandMask + 1) +
               " slots occupied, above the 3/4 load limit");
    return nullptr;
  }
  NumCands += Cands[CandMask + 1].Key;
  const auto *CandPairs =
      reinterpret_cast<const uint32_t *>(SecPtr(SecCandPairs));
  for (uint64_t I = 0; I < NumPairs; ++I)
    if (CandPairs[2 * I] >= StrCount) {
      V.fail(SecOff(SecCandPairs) + I * 8,
             "candidate pair " + std::to_string(I) + ": label index " +
                 std::to_string(CandPairs[2 * I]) +
                 " exceeds the string count " + std::to_string(StrCount));
      return nullptr;
    }
  const auto *GlobalTop =
      reinterpret_cast<const uint32_t *>(SecPtr(SecGlobalTop));
  for (uint64_t I = 0; I < SecLen(SecGlobalTop) / 4; ++I)
    if (GlobalTop[I] >= StrCount) {
      V.fail(SecOff(SecGlobalTop) + I * 4,
             "global candidate " + std::to_string(I) + ": label index " +
                 std::to_string(GlobalTop[I]) +
                 " exceeds the string count " + std::to_string(StrCount));
      return nullptr;
    }

  // Checksum last: it touches every page (defeating lazy paging, which
  // is why it is opt-in), and running it after the structural checks
  // keeps diagnostics specific — a corrupt section table reports the
  // section, not a blanket hash mismatch.
  if (VerifyChecksum) {
    uint64_t Stored = readAt<uint64_t>(Base, TrailerOff);
    uint64_t Actual = stableHashBytes(Base, TrailerOff);
    if (Stored != Actual) {
      std::ostringstream OS;
      OS << "checksum mismatch: trailer stores 0x" << std::hex << Stored
         << ", file hashes to 0x" << Actual;
      V.fail(TrailerOff, OS.str());
      return nullptr;
    }
  }

  // All validated — wire the frozen views straight into the mapping.
  auto Bundle = std::make_unique<ModelBundle>();
  Bundle->Mapping = Region;
  Bundle->Lang = static_cast<lang::Language>(LangByte);
  Bundle->TaskKind = static_cast<Task>(TaskByte);
  Bundle->Extraction.MaxLength = MaxLength;
  Bundle->Extraction.MaxWidth = MaxWidth;
  Bundle->Extraction.Abst = static_cast<paths::Abstraction>(AbstByte);
  Bundle->Extraction.IncludeSemiPaths = SemiByte != 0;

  StringInterner::FrozenStrings SV;
  SV.Bytes = reinterpret_cast<const char *>(SecPtr(SecStrArena));
  SV.Offsets = StrOffsets;
  SV.Slots = StrIndex;
  SV.Mask = SecLen(SecStrIndex) / 4 - 1;
  SV.Count = StrCount;
  Bundle->Interner = std::make_unique<StringInterner>(StringInterner::Frozen,
                                                      SV);

  paths::PathTable::FrozenPaths PV;
  PV.Bytes = SecPtr(SecPathArena);
  PV.Offsets = PathOffsets;
  PV.Slots = PathIndex;
  PV.Mask = SecLen(SecPathIndex) / 4 - 1;
  PV.NumPaths = PathCount;
  Bundle->Table = paths::PathTable(paths::PathTable::Frozen, PV);

  crf::FrozenCrf CV;
  CV.Weights = {reinterpret_cast<const crf::WeightSlot *>(SecPtr(SecWeights)),
                WeightMask};
  CV.NumWeights = NumWeights;
  CV.Cands = {Cands, CandMask};
  CV.NumCands = NumCands;
  CV.CandPairs = CandPairs;
  CV.NumCandPairs = NumPairs;
  CV.PrunedKeys = reinterpret_cast<const uint64_t *>(SecPtr(SecPruned));
  CV.NumPruned = SecLen(SecPruned) / 8;
  CV.GlobalTop = GlobalTop;
  CV.NumGlobal = static_cast<uint32_t>(SecLen(SecGlobalTop) / 4);
  Bundle->Model.adoptFrozen(CV);
  return Bundle;
}
