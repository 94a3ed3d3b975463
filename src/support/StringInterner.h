//===- StringInterner.h - Symbol table for interned strings ----*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns strings into dense 32-bit \c Symbol handles. Symbols are the
/// currency of the whole system: AST node kinds, terminal values, names,
/// labels and path components are all symbols, so equality and hashing are
/// O(1) everywhere downstream.
///
/// The interner is *read-mostly shared*: lookup() and str() are lock-free
/// and may run concurrently with intern() on other threads. The read path
/// probes an open-addressing table of atomic slot ids published through an
/// atomic pointer; strings live in append-only pages that never move, so a
/// Symbol obtained on any thread can be resolved on any other without
/// synchronization. intern() serializes writers on a small mutex, which is
/// off the hot path by design: the sharded pipeline stages only read the
/// shared interner while parallel work is in flight.
///
/// Parallel shards avoid writer contention — and keep symbol ids
/// deterministic — with *delta overlays*: a delta interner resolves hits
/// against a frozen base interner and interns misses privately, returning
/// provisional symbols (top bit set). After the parallel region the deltas
/// are committed into the base in shard order (commitDelta), which replays
/// the serial first-encounter order, and only provisional symbols need
/// remapping — the merge cost is proportional to the number of *novel*
/// strings, not to the corpus (see DESIGN.md §Parallelism).
///
/// A third mode serves mmap'ed model bundles: a *frozen view*
/// interner resolves ids below FrozenStrings::Count against an external
/// arena — an offset table plus concatenated bytes, typically pages of a
/// mapped file the interner does not own — through a stored
/// open-addressed index probed with the stable FNV-1a hash
/// (stableHashBytes). No strings are copied or re-hashed at load; novel
/// strings still intern normally and take ids after the frozen range, so
/// a mapped bundle keeps the exact "new ids follow saved ids" contract of
/// a stream-loaded one (see DESIGN.md §11).
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_SUPPORT_STRINGINTERNER_H
#define PIGEON_SUPPORT_STRINGINTERNER_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pigeon {

/// A handle to an interned string. Symbols from the same interner compare
/// equal iff their strings are equal. Value 0 is reserved for the empty
/// invalid symbol.
class Symbol {
public:
  Symbol() = default;

  /// \returns true if this symbol refers to an interned string.
  bool isValid() const { return Id != 0; }

  /// Raw dense index, usable as an array key. Index 0 is the invalid symbol.
  uint32_t index() const { return Id; }

  /// Rebuilds a symbol from a raw index previously obtained via index().
  static Symbol fromIndex(uint32_t Index) { return Symbol(Index); }

  friend bool operator==(Symbol A, Symbol B) { return A.Id == B.Id; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Id != B.Id; }
  friend bool operator<(Symbol A, Symbol B) { return A.Id < B.Id; }

private:
  explicit Symbol(uint32_t Id) : Id(Id) {}
  friend class StringInterner;

  uint32_t Id = 0;
};

/// Bidirectional map between strings and dense Symbol ids.
///
/// Concurrency contract:
///  * lookup(), str(), contains() and size() are lock-free and safe to
///    call from any thread, concurrently with intern() on other threads;
///  * intern() is safe to call concurrently from multiple threads, but
///    the id assigned to a novel string then depends on interleaving —
///    deterministic pipelines intern through delta overlays instead;
///  * a delta overlay is single-owner (not itself thread-safe), but many
///    overlays over one frozen base may run in parallel.
class StringInterner {
public:
  /// Tag type selecting the delta-overlay constructor.
  struct DeltaTag {};
  static constexpr DeltaTag Delta{};

  /// Tag type selecting the frozen-view constructor.
  struct FrozenTag {};
  static constexpr FrozenTag Frozen{};

  /// Provisional-symbol marker: symbols returned by a delta overlay for
  /// strings missing from its base carry this bit over the overlay-local
  /// id. commitDelta() maps local ids to final base ids.
  static constexpr uint32_t ProvisionalBit = 0x80000000u;

  /// External storage of a frozen-view interner. All pointers reference
  /// memory the caller keeps alive for the interner's lifetime (an
  /// mmap'ed bundle section in practice); nothing is copied.
  ///
  /// The stored index is an open-addressed linear-probe table: slot value
  /// 0 is empty, any other value V names id V-1 (the +1 bias lets id
  /// ranges that legitimately contain an interned empty string — id 0 is
  /// *also* the reserved empty slot — coexist with the 0-is-empty
  /// sentinel). Probing starts at stableHashBytes(str) & Mask; the writer
  /// (ModelIO) inserts ids 1..Count-1 in id order with the same hash and
  /// probe sequence.
  struct FrozenStrings {
    const char *Bytes = nullptr;       ///< Concatenated string arena.
    const uint64_t *Offsets = nullptr; ///< Count+1 entries, Offsets[0]==0.
    const uint32_t *Slots = nullptr;   ///< Stored index, value = id + 1.
    uint64_t Mask = 0;                 ///< Slot count - 1 (power of two).
    uint32_t Count = 0;                ///< Ids [0, Count) are frozen.
  };

  StringInterner();

  /// A delta overlay over \p Base: hits resolve to Base's (final) ids,
  /// misses intern privately and come back provisional. \p Base must stay
  /// alive and — for exact results — frozen while the overlay is used.
  StringInterner(DeltaTag, const StringInterner &Base);

  /// A frozen-view interner over \p View (Count must be >= 1: id 0 is
  /// the reserved empty slot). Ids below View.Count resolve against the
  /// external arena with zero copies; intern() still accepts novel
  /// strings, which take ids from View.Count up exactly as they would
  /// after a stream load.
  StringInterner(FrozenTag, const FrozenStrings &View);

  ~StringInterner();

  StringInterner(const StringInterner &) = delete;
  StringInterner &operator=(const StringInterner &) = delete;

  /// Interns \p Str, returning its symbol. Idempotent. On a delta
  /// overlay the result is the base's symbol when \p Str is already
  /// interned there, and a provisional symbol otherwise.
  Symbol intern(std::string_view Str);

  /// \returns the symbol for \p Str if already interned, invalid
  /// otherwise. Lock-free; on a delta overlay checks base then overlay.
  Symbol lookup(std::string_view Str) const;

  /// \returns the string for \p Sym. The view stays valid for the
  /// lifetime of the interner (it references an interner-owned page or,
  /// on a frozen view, the external arena). Lock-free; resolves
  /// provisional symbols against the overlay's private storage.
  std::string_view str(Symbol Sym) const;

  /// True if str() resolves \p Sym here: on a delta overlay a symbol of
  /// its base or one of its own provisional symbols, otherwise an id
  /// below size(). For validating ids read from untrusted bytes.
  bool contains(Symbol Sym) const;

  /// Number of interned strings, including the reserved empty slot. On a
  /// delta overlay this counts only overlay-local (novel) strings.
  size_t size() const { return Count.load(std::memory_order_acquire); }

  /// Number of novel strings a commit of this overlay would append to its
  /// base (0 for a root interner or an overlay that only saw hits).
  size_t deltaSize() const { return BaseI ? size() - 1 : 0; }

  /// \returns the base interner of a delta overlay, or nullptr.
  const StringInterner *base() const { return BaseI; }

  /// Number of frozen (arena-backed) ids of a frozen-view interner, 0
  /// otherwise.
  uint32_t frozenCount() const { return FV.Count; }

  /// Interns every novel string of \p Overlay into this interner, in
  /// overlay-local id order, and returns the map overlay-local id →
  /// final id (index 0 unused, maps to 0). Committing the overlays of
  /// contiguous shards in shard order replays the ids a serial pass over
  /// the same inputs would have assigned — the determinism contract of
  /// the sharded pipeline stages.
  std::vector<uint32_t> commitDelta(const StringInterner &Overlay);

private:
  /// Geometric string pages: page P holds PageZero << P strings, so 32
  /// page slots cover the whole 31-bit id space while an interner that
  /// only ever sees a handful of strings allocates one small page.
  /// Pages never move, which is what keeps str() lock-free and the
  /// returned references stable.
  static constexpr uint32_t PageZero = 16; // must be a power of two
  static constexpr size_t MaxPages = 28;

  /// Open-addressing index: slot values are symbol ids (0 = empty), keys
  /// are the id's strings. Readers probe the table published in `Table`;
  /// the single writer (under Mutex) inserts with release stores and
  /// republishes on growth, retiring old tables until destruction so
  /// in-flight readers stay valid.
  struct IndexTable {
    size_t Mask = 0;
    std::unique_ptr<std::atomic<uint32_t>[]> Slots;
    explicit IndexTable(size_t Cap);
  };

  static std::pair<size_t, uint32_t> pageOf(uint32_t Id);

  const std::string &localStr(uint32_t Id) const;
  std::string_view frozenStr(uint32_t Id) const {
    return std::string_view(FV.Bytes + FV.Offsets[Id],
                            FV.Offsets[Id + 1] - FV.Offsets[Id]);
  }
  /// Probes the stored frozen index. \returns the frozen id, 0 on miss.
  uint32_t findFrozen(std::string_view Str) const;
  uint32_t findIn(const IndexTable *T, std::string_view Str,
                  size_t Hash) const;
  /// Appends \p Str with the next id; caller holds Mutex.
  uint32_t append(std::string_view Str, size_t Hash);
  void growLocked(size_t NeedEntries);

  const StringInterner *BaseI = nullptr;
  /// External arena of a frozen-view interner (Count == 0 otherwise).
  FrozenStrings FV;
  /// Id of local page slot 0 minus zero — ids >= LocalBias + 1 live in
  /// the owned pages at slot Id - LocalBias; slot 0 is the reserved
  /// empty string. 0 for a root/overlay interner, Count - 1 for a frozen
  /// view (whose first novel id Count lands in slot 1).
  uint32_t LocalBias = 0;
  std::atomic<IndexTable *> Table{nullptr};
  std::atomic<std::string *> Pages[MaxPages] = {};
  std::atomic<uint32_t> Count{0};
  std::vector<std::unique_ptr<IndexTable>> Retired;
  std::mutex Mutex;
};

} // namespace pigeon

namespace std {
template <> struct hash<pigeon::Symbol> {
  size_t operator()(pigeon::Symbol S) const noexcept {
    return std::hash<uint32_t>()(S.index());
  }
};
} // namespace std

#endif // PIGEON_SUPPORT_STRINGINTERNER_H
