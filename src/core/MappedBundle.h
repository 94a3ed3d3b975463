//===- MappedBundle.h - Zero-copy mmap model bundles (v4) -------*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bundle format v4: one contiguous, offset-based, 8-byte-aligned,
/// little-endian file served directly from an mmap'ed region with no
/// deserialization. The string arena, packed-path arena, their stored
/// lookup indexes and the CRF's hashed tables are read in place — loading
/// a bundle costs one mmap plus validation that never touches the weight
/// pages, and every `pigeon serve` process on a host shares the model's
/// pages through the page cache.
///
/// On-disk layout (all integers little-endian; see DESIGN.md §11 for the
/// full specification):
///
///   [0, 48)    fixed header: magic "PIGB", version 4, file size,
///              lang/task/abstraction/semi-paths, max_length/max_width,
///              section count, string count, path count, weight count
///   [48, 312)  section table: 11 x 24-byte entries {kind, reserved,
///              offset, length}, in fixed kind order 1..11
///   [312, ...) sections, each starting 8-byte aligned (zero padding
///              between), in table order
///   last 16    trailer: FNV-1a 64 checksum over [0, trailer), trailer
///              magic "PGT4"
///
/// The CRF weights and the candidate-context keys are open-addressed
/// linear-probe tables of 16-byte slots (crf::FrozenTable): 2^k probed
/// slots at most 3/4 full, then the slot of key 0. Lookups use the same
/// probe as the perceptron's live WeightTable.
///
/// Validation is fail-closed: magic/version (with expected-vs-found
/// diagnostics and byte offsets), exact file size, section alignment,
/// overflow-checked bounds, non-overlap, element-size divisibility,
/// monotonic offset arrays, stored-index slot ranges, table shapes,
/// candidate pair ranges and label-index ranges are all checked before
/// any section pointer is handed to the frozen views, so a hostile file
/// is rejected instead of read out of bounds. The weight table is not
/// walked: any slot bits are safe to read and every probe is bounded.
/// Checksum verification is opt-in (it touches every page, which defeats
/// lazy paging; `pigeon eval` and the tests turn it on).
///
/// v4 is the only format read. The magic and version are checked before
/// anything else, so a file of an older version (v2 streams, v3 sorted
/// arrays) fails with a version mismatch and a hint to retrain.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_CORE_MAPPEDBUNDLE_H
#define PIGEON_CORE_MAPPEDBUNDLE_H

#include "core/ModelIO.h"

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

namespace pigeon {
namespace core {

/// RAII read-only mapping of a whole file. The region stays valid (and
/// the pages stay shared with other processes mapping the same file)
/// until destruction.
class MappedRegion {
public:
  /// Maps \p Path read-only. \returns nullptr with \p Error set on open,
  /// stat or mmap failure. Empty files map as a null region of size 0.
  static std::shared_ptr<const MappedRegion> open(const std::string &Path,
                                                  std::string *Error);

  ~MappedRegion();

  MappedRegion(const MappedRegion &) = delete;
  MappedRegion &operator=(const MappedRegion &) = delete;

  const uint8_t *data() const { return static_cast<const uint8_t *>(Data); }
  size_t size() const { return Size; }

private:
  MappedRegion(void *Data, size_t Size) : Data(Data), Size(Size) {}

  void *Data = nullptr;
  size_t Size = 0;
};

/// Writes \p Bundle to \p OS in the mmap bundle format (v4; the name is
/// kept from v3). The output is fully deterministic: arenas in id order,
/// stored indexes built with the stable hash in id order, and the CRF's
/// tables as train() laid them out, a function of their key sets.
void saveModelV3(std::ostream &OS, const ModelBundle &Bundle);

/// Maps the bundle at \p Path and serves it in place: the returned
/// bundle's interner, path table and CRF read the mapped sections
/// directly (ModelBundle::Mapping keeps the region alive). \returns
/// nullptr with \p Diag filled on any validation failure. \p
/// VerifyChecksum additionally verifies the trailer checksum (touches
/// every page).
std::unique_ptr<ModelBundle> openMappedBundle(const std::string &Path,
                                              LoadDiag *Diag = nullptr,
                                              bool VerifyChecksum = false);

} // namespace core
} // namespace pigeon

#endif // PIGEON_CORE_MAPPEDBUNDLE_H
