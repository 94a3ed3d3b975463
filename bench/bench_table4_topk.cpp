//===- bench_table4_topk.cpp - Reproduces Table 4 --------------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Table 4a: the top candidates a trained CRF suggests for the variable
/// `d` of the paper's Fig. 1a snippet — all of which should be
/// flag-flavoured names (done, finished, ...). Table 4b: semantic
/// similarities between names, read off the word2vec embedding space as
/// nearest neighbours.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/ContextsIO.h"
#include "core/Predict.h"
#include "ml/word2vec/Sgns.h"

#include <iostream>
#include <unordered_map>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::bench;
using namespace pigeon::core;
using pigeon::lang::Language;

int main() {
  // Table 4a -----------------------------------------------------------------
  {
    // Training takes over the corpus' interner, so Table 4b parses a
    // corpus of its own.
    Corpus Train = benchCorpus(Language::JavaScript);
    ModelBundle Model = trainBundle(buildContextsArtifact(
        Train, Task::VariableNames,
        tunedOptions(Language::JavaScript, Task::VariableNames)));
    Prediction P = predictSource(
        Model,
        "function waitUntilReady() { trace('start'); var d = false; while "
        "(!d) { if (check()) { d = true; } } return d; }",
        /*K=*/8);
    if (!P.parsed()) {
      std::cerr << "failed to parse the Fig. 1a snippet\n";
      return 1;
    }
    TablePrinter Table(
        "Table 4a: top candidates for `d` in the Fig. 1a loop");
    Table.setHeader({"Rank", "Candidate", "Score"});
    for (const ElementPrediction &E : P.Elements) {
      if (P.str(E.Name) != "d")
        continue;
      int Rank = 1;
      for (const auto &[Label, Score] : E.Candidates)
        Table.addRow({std::to_string(Rank++), std::string(P.str(Label)),
                      TablePrinter::num(Score, 2)});
    }
    Table.print(std::cout);
    std::cout << "(Paper's candidates: done, ended, complete, found, "
                 "finished, stop, end, success.)\n\n";
  }

  // Table 4b -----------------------------------------------------------------
  {
    Corpus C = benchCorpus(Language::JavaScript);
    // Train SGNS over (name, abstract path-context) pairs from the whole
    // corpus, then read nearest neighbours in the embedding space.
    paths::PathTable Table;
    paths::ExtractionConfig Extraction =
        tunedExtraction(Language::JavaScript, Task::VariableNames);
    crf::ElementSelector Selector = selectorFor(Task::VariableNames);
    std::unordered_map<Symbol, uint32_t> WordIds;
    std::vector<Symbol> Words;
    StringInterner CtxInterner;
    std::vector<w2v::Pair> Pairs;
    for (const ParsedFile &File : C.Files) {
      const Tree &T = File.Tree;
      auto Contexts = paths::extractPathContexts(T, Extraction, Table);
      for (const paths::PathContext &Ctx : Contexts) {
        const Node &Start = T.node(Ctx.Start);
        if (Start.Element == InvalidElement ||
            !Selector(T.element(Start.Element)))
          continue;
        Symbol Name = T.element(Start.Element).Name;
        auto [It, Inserted] =
            WordIds.emplace(Name, static_cast<uint32_t>(Words.size()));
        if (Inserted)
          Words.push_back(Name);
        std::string CtxString =
            Table.render(Ctx.Path, *C.Interner) + "|" +
            std::string(C.Interner->str(paths::endValue(T, Ctx.End)));
        Pairs.push_back({It->second, CtxInterner.intern(CtxString).index()});
      }
    }
    w2v::SgnsConfig Config;
    Config.Epochs = 6;
    Config.Seed = BenchSeed;
    w2v::Sgns Model(Config);
    Model.train(Pairs, static_cast<uint32_t>(Words.size()),
                static_cast<uint32_t>(CtxInterner.size()));

    TablePrinter Sim("Table 4b: semantic similarities between names "
                     "(embedding nearest neighbours)");
    Sim.setHeader({"Name", "Nearest names"});
    for (const char *Probe :
         {"done", "items", "count", "item", "request", "result", "i"}) {
      Symbol S = C.Interner->lookup(Probe);
      auto It = S.isValid() ? WordIds.find(S) : WordIds.end();
      if (It == WordIds.end())
        continue;
      auto Near = Model.similarWords(It->second, 4);
      std::string Cell;
      for (const auto &[W, Cos] : Near) {
        if (!Cell.empty())
          Cell += " ~ ";
        Cell += C.Interner->str(Words[W]);
      }
      Sim.addRow({Probe, Cell});
    }
    Sim.print(std::cout);
    std::cout << "(Paper's examples: req~request~client, "
                 "items~values~objects~keys~elements, array~arr~ary~list, "
                 "count~counter~total, i~j~index.)\n";
  }
  writeBenchSidecar("bench_table4_topk");
  return 0;
}
