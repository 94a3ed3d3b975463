//===- deobfuscator.cpp - Recovering stripped names (Figs. 7-9) -------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The paper's headline application (Figs. 7, 8, 9): given a program with
/// stripped (minified/obfuscated) variable names, recover meaningful
/// names. This example trains a CRF name model per language, strips the
/// names of held-out programs, predicts replacements, and prints the
/// stripped and recovered sources side by side — one JavaScript, one Java
/// and one Python listing, like the paper's figures.
///
//===----------------------------------------------------------------------===//

#include "core/ContextsIO.h"
#include "core/Predict.h"

#include <cctype>
#include <iostream>
#include <map>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::core;
using pigeon::lang::Language;

namespace {

/// Replaces whole-word occurrences of single-letter placeholders with
/// their predicted names.
std::string recover(const std::string &Stripped,
                    const std::map<std::string, std::string> &Renames) {
  std::string Out;
  size_t I = 0;
  auto IsWord = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  while (I < Stripped.size()) {
    if (IsWord(Stripped[I])) {
      size_t J = I;
      while (J < Stripped.size() && IsWord(Stripped[J]))
        ++J;
      std::string Word = Stripped.substr(I, J - I);
      auto It = Renames.find(Word);
      Out += It == Renames.end() ? Word : It->second;
      I = J;
      continue;
    }
    Out += Stripped[I++];
  }
  return Out;
}

void demo(Language Lang) {
  datagen::CorpusSpec Spec = datagen::defaultSpec(Lang, /*Seed=*/2018);
  Spec.NumProjects = 32;
  auto Sources = datagen::generateCorpus(Spec);
  Corpus C = parseCorpus(Sources, Lang);

  CrfExperimentOptions Options;
  Options.Extraction = tunedExtraction(Lang, Task::VariableNames);
  ModelBundle Model =
      trainBundle(buildContextsArtifact(C, Task::VariableNames, Options));

  // Strip a file the model has never seen (fresh project seed).
  datagen::CorpusSpec Fresh = datagen::defaultSpec(Lang, /*Seed=*/777);
  Fresh.NumProjects = 1;
  Fresh.FilesPerProject = 3;
  auto FreshSources = datagen::generateCorpus(Fresh);
  const datagen::SourceFile &Sample = FreshSources.front();
  std::string Stripped =
      datagen::render(Sample.Sketch, Lang, /*StripNames=*/true);

  Prediction P = predictSource(Model, Stripped, /*K=*/1);
  if (!P.parsed()) {
    std::cerr << "stripped sample failed to parse\n";
    return;
  }
  std::map<std::string, std::string> Renames;
  for (const ElementPrediction &E : P.Elements)
    if (E.Label.isValid())
      Renames[std::string(P.str(E.Name))] = std::string(P.str(E.Label));

  std::cout << "== " << lang::languageName(Lang)
            << ": stripped names ==\n"
            << Stripped << "\n== " << lang::languageName(Lang)
            << ": AST paths + CRFs ==\n"
            << recover(Stripped, Renames) << "\n== original names ==\n"
            << Sample.Text << "\n";
}

} // namespace

int main() {
  // One listing per language, mirroring Figs. 8 (JS), 9 (Java), 7 (Py).
  demo(Language::JavaScript);
  demo(Language::Java);
  demo(Language::Python);
  return 0;
}
