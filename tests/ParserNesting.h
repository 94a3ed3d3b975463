//===- ParserNesting.h - Nesting-budget checks for a frontend ---*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives one frontend to exactly its nesting budget and one level past
/// it. Parses run on a new std::thread: serve parses on pool threads, and
/// their default stack must hold the deepest input the parsers accept.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_TESTS_PARSERNESTING_H
#define PIGEON_TESTS_PARSERNESTING_H

#include "lang/common/Frontend.h"
#include "lang/common/ParserBase.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>

namespace pigeon {
namespace test {

using ParseFn = lang::ParseResult (*)(std::string_view, StringInterner &);

/// Expects \p Head + Open^n \p Inner Close^n + \p Tail to parse cleanly
/// when n brings the parse to exactly MaxNesting levels, and to fail
/// closed at n + 1: no tree and the single nesting diagnostic. Each Open
/// takes one level; \p Overhead is the levels the rest of the input takes.
inline void expectNestingLimit(ParseFn Parse, std::string_view Head,
                               std::string_view Open, std::string_view Inner,
                               std::string_view Close, std::string_view Tail,
                               unsigned Overhead) {
  constexpr unsigned Limit = lang::ParserBase::MaxNesting;
  auto Source = [&](unsigned Levels) {
    std::string Out(Head);
    for (unsigned I = Overhead; I < Levels; ++I)
      Out += Open;
    Out += Inner;
    for (unsigned I = Overhead; I < Levels; ++I)
      Out += Close;
    return Out + std::string(Tail);
  };
  StringInterner SI;
  lang::ParseResult AtLimit, Over;
  std::thread Worker([&] {
    AtLimit = Parse(Source(Limit), SI);
    Over = Parse(Source(Limit + 1), SI);
  });
  Worker.join();
  EXPECT_TRUE(AtLimit.Tree.has_value()) << "at the limit: " << Open;
  for (const lang::Diagnostic &D : AtLimit.Diags)
    ADD_FAILURE() << "at the limit: " << Open << ": " << D.str();
  EXPECT_FALSE(Over.Tree.has_value()) << "over the limit: " << Open;
  ASSERT_EQ(Over.Diags.size(), 1u) << "over the limit: " << Open;
  EXPECT_EQ(Over.Diags[0].Message,
            "nesting deeper than " + std::to_string(Limit) + " levels");
}

} // namespace test
} // namespace pigeon

#endif // PIGEON_TESTS_PARSERNESTING_H
