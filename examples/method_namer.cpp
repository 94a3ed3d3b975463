//===- method_namer.cpp - Suggesting method names (§5.3.2) ------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The paper's method-name task as an IDE-style assistant: train the
/// method-name CRF on a Python corpus, then for held-out functions print
/// the top-3 name suggestions next to the author's actual name — the
/// "top-k candidates" extension of §5.1 in action.
///
//===----------------------------------------------------------------------===//

#include "core/ContextsIO.h"
#include "core/Predict.h"
#include "support/SubToken.h"
#include "support/TablePrinter.h"

#include <iostream>
#include <map>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::core;
using pigeon::lang::Language;

int main() {
  datagen::CorpusSpec Spec = datagen::defaultSpec(Language::Python, 2018);
  Spec.NumProjects = 40;
  std::vector<datagen::SourceFile> Sources = datagen::generateCorpus(Spec);
  std::map<std::string, const std::string *> TextOf;
  for (const datagen::SourceFile &File : Sources)
    TextOf[File.FileName] = &File.Text;
  Corpus C = parseCorpus(Sources, Language::Python);
  Split S = splitByProject(C, 0.25, 2018);

  // Train on the training projects only.
  Corpus TrainOnly;
  TrainOnly.Lang = C.Lang;
  TrainOnly.Interner = std::move(C.Interner);
  for (size_t I : S.Train)
    TrainOnly.Files.push_back(std::move(C.Files[I]));

  CrfExperimentOptions Options;
  Options.Extraction = tunedExtraction(Language::Python, Task::MethodNames);
  ModelBundle Model =
      trainBundle(buildContextsArtifact(TrainOnly, Task::MethodNames, Options));

  std::cout << "method-name suggestions for held-out functions "
               "(Python):\n\n";
  TablePrinter Out("");
  Out.setHeader({"Actual name", "Top-3 suggestions", ""});
  int Shown = 0;
  for (size_t I : S.Test) {
    if (Shown >= 12)
      break;
    Prediction P =
        predictSource(Model, *TextOf.at(C.Files[I].FileName), /*K=*/3);
    const Tree &T = *P.Parse.Tree;
    for (ElementId E = 0; E < T.elements().size(); ++E) {
      const ElementInfo &Info = T.element(E);
      if (!Info.Predictable || Info.Kind != ElementKind::Method ||
          T.occurrences(E).empty())
        continue;
      std::vector<std::pair<Symbol, double>> Top;
      for (const ElementPrediction &Ranked : P.Elements)
        if (Ranked.Element == E)
          Top = Ranked.Candidates;
      std::string Suggestions;
      for (const auto &[Name, Score] : Top) {
        if (!Suggestions.empty())
          Suggestions += ", ";
        Suggestions += P.str(Name);
      }
      std::string Actual(P.str(Info.Name));
      bool Hit = !Top.empty() && namesMatch(P.str(Top[0].first), Actual);
      Out.addRow({Actual, Suggestions, Hit ? "ok" : ""});
      ++Shown;
      break; // One method per file is enough for the demo.
    }
  }
  Out.print(std::cout);
  std::cout << "\n(The paper's §5.1 top-k extension: when the top "
               "candidates capture similar notions, the prediction is "
               "stable.)\n";
  return 0;
}
