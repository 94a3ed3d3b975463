//===- ModelIO.h - The in-memory model bundle -------------------*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A complete, usable name-prediction model: the string interner (all
/// symbols the model's labels and values refer to), the path table
/// (PathIds the features hash over), the extraction configuration, the
/// task, and the trained CRF. New strings and paths intern after the
/// bundle's own, so every saved id keeps its meaning while the bundle
/// parses and predicts on new files.
///
/// Bundles persist in one on-disk format, v4 (MappedBundle.h): written by
/// saveModelV3 and served in place from an mmap by openMappedBundle.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_CORE_MODELIO_H
#define PIGEON_CORE_MODELIO_H

#include "core/Pipeline.h"
#include "ml/crf/Crf.h"
#include "paths/Paths.h"

#include <memory>
#include <string>

namespace pigeon {
namespace core {

class MappedRegion;

/// Structured failure report of a bundle load. Error spells out what was
/// expected versus what the bytes actually held; Offset is the byte
/// position within the file where validation failed.
struct LoadDiag {
  std::string Error;
  uint64_t Offset = 0;
};

/// A self-contained trained model.
///
/// Mapping, when set, owns the mmap'ed file the other members read in
/// place (frozen-view interner/table, frozen CRF arrays). It is declared
/// first so it is destroyed last — after every member that references
/// its pages.
struct ModelBundle {
  std::shared_ptr<const MappedRegion> Mapping;
  lang::Language Lang = lang::Language::JavaScript;
  std::unique_ptr<StringInterner> Interner;
  paths::PathTable Table;
  paths::ExtractionConfig Extraction;
  Task TaskKind = Task::VariableNames;
  crf::CrfModel Model;
};

} // namespace core
} // namespace pigeon

#endif // PIGEON_CORE_MODELIO_H
