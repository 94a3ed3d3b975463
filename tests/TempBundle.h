//===- TempBundle.h - Bundles round-tripped through a file -----*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test helpers that load bundles the way every `pigeon` subcommand does:
/// saveModelV3 into a file, openMappedBundle back out of it.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_TESTS_TEMPBUNDLE_H
#define PIGEON_TESTS_TEMPBUNDLE_H

#include "core/MappedBundle.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include <unistd.h>

namespace pigeon {
namespace test {

/// Writes bytes to a unique temp file; unlinked at destruction.
class TempFile {
public:
  explicit TempFile(const std::string &Bytes) {
    char Template[] = "/tmp/pigeon_bundle_test_XXXXXX";
    int Fd = ::mkstemp(Template);
    EXPECT_GE(Fd, 0);
    PathStr = Template;
    EXPECT_EQ(::write(Fd, Bytes.data(), Bytes.size()),
              static_cast<ssize_t>(Bytes.size()));
    ::close(Fd);
  }
  ~TempFile() { ::unlink(PathStr.c_str()); }
  TempFile(const TempFile &) = delete;
  TempFile &operator=(const TempFile &) = delete;

  const std::string &path() const { return PathStr; }

private:
  std::string PathStr;
};

/// The bundle image saveModelV3 writes for \p Bundle.
inline std::string bundleBytes(const core::ModelBundle &Bundle) {
  std::ostringstream OS;
  core::saveModelV3(OS, Bundle);
  return OS.str();
}

/// Maps \p Bytes from a temp file, verifying the checksum. \returns
/// nullptr with \p Diag filled when the loader rejects them. A mapping
/// stays valid after its file is unlinked.
inline std::unique_ptr<core::ModelBundle>
mapBytes(const std::string &Bytes, core::LoadDiag *Diag = nullptr) {
  TempFile File(Bytes);
  return core::openMappedBundle(File.path(), Diag, /*VerifyChecksum=*/true);
}

/// Writes \p Bundle to a file and maps it back.
inline std::unique_ptr<core::ModelBundle>
remap(const core::ModelBundle &Bundle, core::LoadDiag *Diag = nullptr) {
  return mapBytes(bundleBytes(Bundle), Diag);
}

} // namespace test
} // namespace pigeon

#endif // PIGEON_TESTS_TEMPBUNDLE_H
