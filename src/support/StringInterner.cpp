//===- StringInterner.cpp - Symbol table for interned strings ---------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/StringInterner.h"

#include "support/Hashing.h"

#include <bit>

using namespace pigeon;

StringInterner::IndexTable::IndexTable(size_t Cap)
    : Mask(Cap - 1), Slots(new std::atomic<uint32_t>[Cap]) {
  assert((Cap & Mask) == 0 && "capacity must be a power of two");
  for (size_t I = 0; I < Cap; ++I)
    Slots[I].store(0, std::memory_order_relaxed);
}

std::pair<size_t, uint32_t> StringInterner::pageOf(uint32_t Id) {
  // Page P starts at PageZero * (2^P - 1) and holds PageZero << P slots.
  uint32_t Biased = Id / PageZero + 1;
  size_t P = static_cast<size_t>(std::bit_width(Biased)) - 1;
  uint32_t Start = ((1u << P) - 1) * PageZero;
  return {P, Id - Start};
}

StringInterner::StringInterner() {
  // Reserve id 0 so that a default-constructed Symbol is never returned:
  // page 0 exists from birth with the empty string in slot 0.
  Pages[0].store(new std::string[PageZero], std::memory_order_release);
  Count.store(1, std::memory_order_release);
}

StringInterner::StringInterner(DeltaTag, const StringInterner &Base)
    : StringInterner() {
  BaseI = &Base;
}

StringInterner::StringInterner(FrozenTag, const FrozenStrings &View)
    : StringInterner() {
  assert(View.Count >= 1 && "frozen view must cover the reserved id 0");
  FV = View;
  LocalBias = View.Count - 1;
  Count.store(View.Count, std::memory_order_release);
}

StringInterner::~StringInterner() {
  delete Table.load(std::memory_order_relaxed);
  for (std::atomic<std::string *> &Page : Pages)
    delete[] Page.load(std::memory_order_relaxed);
}

const std::string &StringInterner::localStr(uint32_t Id) const {
  assert(Id < Count.load(std::memory_order_acquire) &&
         "symbol from another interner?");
  assert((Id == 0 || Id > LocalBias) && "frozen id has no local storage");
  auto [P, Offset] = pageOf(Id - (Id == 0 ? 0 : LocalBias));
  const std::string *Page = Pages[P].load(std::memory_order_acquire);
  assert(Page && "unpublished string page");
  return Page[Offset];
}

std::string_view StringInterner::str(Symbol Sym) const {
  uint32_t Id = Sym.index();
  if (Id & ProvisionalBit) {
    assert(BaseI && "provisional symbol outside a delta overlay");
    return localStr(Id & ~ProvisionalBit);
  }
  if (BaseI)
    return BaseI->str(Sym);
  if (Id < FV.Count)
    return frozenStr(Id);
  return localStr(Id);
}

bool StringInterner::contains(Symbol Sym) const {
  uint32_t Id = Sym.index();
  if (Id & ProvisionalBit)
    return BaseI && (Id & ~ProvisionalBit) < size();
  if (BaseI)
    return BaseI->contains(Sym);
  return Id < size();
}

uint32_t StringInterner::findFrozen(std::string_view Str) const {
  if (!FV.Slots)
    return 0;
  uint64_t Hash = stableHashBytes(Str.data(), Str.size());
  // Probe count is bounded by the table size so a hostile stored index
  // with no empty slot terminates instead of spinning.
  for (uint64_t I = Hash & FV.Mask, Probes = 0; Probes <= FV.Mask;
       ++Probes, I = (I + 1) & FV.Mask) {
    uint32_t Biased = FV.Slots[I];
    if (Biased == 0)
      return 0;
    if (frozenStr(Biased - 1) == Str)
      return Biased - 1;
  }
  return 0;
}

uint32_t StringInterner::findIn(const IndexTable *T, std::string_view Str,
                                size_t Hash) const {
  if (!T)
    return 0;
  for (size_t I = Hash & T->Mask;; I = (I + 1) & T->Mask) {
    uint32_t Id = T->Slots[I].load(std::memory_order_acquire);
    if (Id == 0)
      return 0;
    if (localStr(Id) == Str)
      return Id;
  }
}

Symbol StringInterner::lookup(std::string_view Str) const {
  size_t Hash = std::hash<std::string_view>{}(Str);
  if (BaseI) {
    if (Symbol S = BaseI->lookup(Str); S.isValid())
      return S;
    uint32_t Local =
        findIn(Table.load(std::memory_order_acquire), Str, Hash);
    return Local ? Symbol::fromIndex(ProvisionalBit | Local) : Symbol();
  }
  if (uint32_t Id = findFrozen(Str))
    return Symbol::fromIndex(Id);
  return Symbol::fromIndex(
      findIn(Table.load(std::memory_order_acquire), Str, Hash));
}

void StringInterner::growLocked(size_t NeedEntries) {
  IndexTable *Old = Table.load(std::memory_order_relaxed);
  // Keep the load factor under ~7/8 after inserting NeedEntries.
  size_t Cap = Old ? (Old->Mask + 1) : 64;
  while (NeedEntries * 8 >= Cap * 7)
    Cap *= 2;
  if (Old && Cap == Old->Mask + 1)
    return;
  auto Next = std::make_unique<IndexTable>(Cap);
  uint32_t N = Count.load(std::memory_order_relaxed);
  // Only locally-stored ids live in the live index; frozen ids resolve
  // through the stored index of the external arena.
  for (uint32_t Id = LocalBias + 1; Id < N; ++Id) {
    size_t Hash = std::hash<std::string_view>{}(localStr(Id));
    size_t I = Hash & Next->Mask;
    while (Next->Slots[I].load(std::memory_order_relaxed) != 0)
      I = (I + 1) & Next->Mask;
    Next->Slots[I].store(Id, std::memory_order_relaxed);
  }
  // Publish, and retire the old table: a reader that loaded it before the
  // swap may still be probing it, so it must stay alive until destruction.
  Table.store(Next.get(), std::memory_order_release);
  if (Old)
    Retired.emplace_back(Old);
  Next.release();
}

uint32_t StringInterner::append(std::string_view Str, size_t Hash) {
  uint32_t Id = Count.load(std::memory_order_relaxed);
  assert(Id < ProvisionalBit && "interner full");
  auto [P, Offset] = pageOf(Id - LocalBias);
  assert(P < MaxPages && "interner full");
  std::string *Page = Pages[P].load(std::memory_order_relaxed);
  if (!Page) {
    Page = new std::string[size_t(PageZero) << P];
    Pages[P].store(Page, std::memory_order_release);
  }
  Page[Offset] = std::string(Str);
  growLocked(size_t(Id - LocalBias) + 1);
  IndexTable *T = Table.load(std::memory_order_relaxed);
  size_t I = Hash & T->Mask;
  while (T->Slots[I].load(std::memory_order_relaxed) != 0)
    I = (I + 1) & T->Mask;
  // Count first, slot second, both release: the string assignment and
  // page publication above happen-before any reader that acquires either.
  // A reader that wins the race on the slot must already see Id < Count
  // (localStr's contract); the reverse order would let findIn probe a
  // published slot whose id looks out of range for one instant.
  Count.store(Id + 1, std::memory_order_release);
  T->Slots[I].store(Id, std::memory_order_release);
  return Id;
}

Symbol StringInterner::intern(std::string_view Str) {
  size_t Hash = std::hash<std::string_view>{}(Str);
  if (BaseI) {
    // Delta overlay: resolve against the frozen base first, then the
    // private overlay. Overlays are single-owner, so no locking.
    if (Symbol S = BaseI->lookup(Str); S.isValid())
      return S;
    if (uint32_t Local =
            findIn(Table.load(std::memory_order_relaxed), Str, Hash))
      return Symbol::fromIndex(ProvisionalBit | Local);
    std::lock_guard<std::mutex> Lock(Mutex);
    return Symbol::fromIndex(ProvisionalBit | append(Str, Hash));
  }
  // Frozen hits first: the stored index is immutable, so this path never
  // contends with writers at all.
  if (uint32_t Id = findFrozen(Str))
    return Symbol::fromIndex(Id);
  // Lock-free fast path: published strings are found without the mutex.
  if (uint32_t Id = findIn(Table.load(std::memory_order_acquire), Str, Hash))
    return Symbol::fromIndex(Id);
  std::lock_guard<std::mutex> Lock(Mutex);
  // Re-check: another writer may have interned Str before we got the lock.
  if (uint32_t Id = findIn(Table.load(std::memory_order_relaxed), Str, Hash))
    return Symbol::fromIndex(Id);
  return Symbol::fromIndex(append(Str, Hash));
}

std::vector<uint32_t> StringInterner::commitDelta(
    const StringInterner &Overlay) {
  assert(Overlay.BaseI == this && "overlay committed into a foreign base");
  uint32_t N = Overlay.Count.load(std::memory_order_acquire);
  std::vector<uint32_t> Map(N, 0);
  for (uint32_t Local = 1; Local < N; ++Local)
    Map[Local] = intern(Overlay.localStr(Local)).index();
  return Map;
}
