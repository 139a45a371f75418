// Tests for the CLI argument parser and the CLI's input loading: repeated
// --elt flags, argument order, and which error a failing ELT set reports.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "args.hpp"
#include "core/coverage_window.hpp"
#include "core/status.hpp"
#include "inputs.hpp"

namespace {

using namespace are;
using are::tools::Args;

Args make_args(std::vector<std::string> tokens) {
  static std::vector<std::string> storage;
  storage = std::move(tokens);
  static std::vector<char*> pointers;
  pointers.clear();
  pointers.push_back(const_cast<char*>("are_cli"));
  for (auto& token : storage) pointers.push_back(token.data());
  return Args(static_cast<int>(pointers.size()), pointers.data(), 1);
}

TEST(Args, EqualsForm) {
  const Args args = make_args({"--trials=500", "--out=file.yet"});
  EXPECT_EQ(args.get_u64("trials", 0), 500u);
  EXPECT_EQ(args.get("out", ""), "file.yet");
}

TEST(Args, SpaceForm) {
  const Args args = make_args({"--trials", "500", "--out", "file.yet"});
  EXPECT_EQ(args.get_u64("trials", 0), 500u);
  EXPECT_EQ(args.require("out"), "file.yet");
}

TEST(Args, BareFlag) {
  const Args args = make_args({"--secondary-uncertainty", "--trials", "10"});
  EXPECT_TRUE(args.has("secondary-uncertainty"));
  EXPECT_EQ(args.get_u64("trials", 0), 10u);
}

TEST(Args, FlagFollowedByFlag) {
  const Args args = make_args({"--verbose", "--quiet"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.has("quiet"));
}

TEST(Args, PositionalArguments) {
  const Args args = make_args({"a.elt", "--out", "x", "b.elt"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "a.elt");
  EXPECT_EQ(args.positional()[1], "b.elt");
}

TEST(Args, Defaults) {
  const Args args = make_args({});
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  EXPECT_EQ(args.get_u64("missing", 42), 42u);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
}

TEST(Args, RequireThrowsWhenMissingOrEmpty) {
  const Args args = make_args({"--empty="});
  EXPECT_THROW(args.require("missing"), std::runtime_error);
  EXPECT_THROW(args.require("empty"), std::runtime_error);
}

TEST(Args, NumericValidation) {
  const Args args = make_args({"--bad", "xyz", "--negative", "-5", "--memory-budget-mb", "0.5",
                               "--threads", "2x", "--occ-limit", "1e6k", "--window",
                               "0.25:0.75abc"});
  EXPECT_THROW(args.get_u64("bad", 0), std::runtime_error);
  EXPECT_THROW(args.get_u64("negative", 0), std::runtime_error);
  EXPECT_THROW(args.get_double("bad", 0.0), std::runtime_error);
  EXPECT_DOUBLE_EQ(args.get_double("negative", 0.0), -5.0);
  // Trailing text is an error, never a truncated number: 0.5 MB read as 0
  // would be an unlimited spill budget, 2x would run two threads.
  EXPECT_THROW(args.get_u64("memory-budget-mb", 0), std::runtime_error);
  EXPECT_THROW(args.get_u64("threads", 0), std::runtime_error);
  EXPECT_THROW(args.get_double("occ-limit", 0.0), std::runtime_error);
  // --window goes through the same parser as the service's window= field.
  EXPECT_THROW(core::CoverageWindow::parse(args.require("window")), std::invalid_argument);
}

TEST(Args, ScientificNotationDoubles) {
  const Args args = make_args({"--retention", "2.5e6"});
  EXPECT_DOUBLE_EQ(args.get_double("retention", 0.0), 2.5e6);
}

TEST(Args, LastValueWinsOnRepeat) {
  const Args args = make_args({"--seed", "1", "--seed", "2"});
  EXPECT_EQ(args.get_u64("seed", 0), 2u);
}

TEST(Args, RepeatedKeyKeepsEveryValueInOrder) {
  const Args args = make_args({"--elt", "a.elt", "--elt=b.elt", "--seed", "1", "--elt", "c.elt"});
  EXPECT_EQ(args.require_all("elt"), (std::vector<std::string>{"a.elt", "b.elt", "c.elt"}));
  EXPECT_EQ(args.get("elt", ""), "c.elt");
  EXPECT_EQ(args.require_all("seed"), (std::vector<std::string>{"1"}));
  EXPECT_TRUE(args.require_all("missing").empty());
}

// --- Input loading (tools/inputs.hpp) ----------------------------------------------

class Inputs : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string test = ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = std::filesystem::temp_directory_path() / ("are_tools_" + test);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_elt(const std::string& name, const elt::EventLossTable& table) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path, std::ios::binary);
    io::write_elt_binary(out, table);
    return path;
  }

  std::string write_corrupt_elt(const std::string& name) {
    const std::string path = write_elt(name, elt::EventLossTable({{1, 1.0}, {2, 2.0}}));
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(20);  // inside the event vector's payload
    file.put('\x7f');
    return path;
  }

  std::string missing(const std::string& name) const { return (dir_ / name).string(); }

  static core::Portfolio build(const std::vector<std::string>& paths) {
    return tools::build_portfolio(paths, elt::LookupKind::kDirectAccess, 100,
                                  financial::LayerTerms{}, 1.0);
  }

  std::filesystem::path dir_;
};

TEST_F(Inputs, RepeatedEltFlagsPriceEveryEltInOrder) {
  const std::string a = write_elt("a.elt", elt::EventLossTable({{1, 10.0}}));
  const std::string b = write_elt("b.elt", elt::EventLossTable({{1, 20.0}, {2, 5.0}}));
  const std::vector<std::string> paths = tools::elt_paths(make_args({"--elt", a, "--elt", b}));
  ASSERT_EQ(paths, (std::vector<std::string>{a, b}));

  const core::Portfolio portfolio = build(paths);
  ASSERT_EQ(portfolio.layers.size(), 1u);
  const auto& elts = portfolio.layers[0].elts;
  ASSERT_EQ(elts.size(), 2u);
  EXPECT_DOUBLE_EQ(elts[0].lookup->lookup(1), 10.0);
  EXPECT_DOUBLE_EQ(elts[1].lookup->lookup(1), 20.0);
  EXPECT_DOUBLE_EQ(elts[1].lookup->lookup(2), 5.0);
}

TEST_F(Inputs, FlagPathsComeBeforePositionalPaths) {
  EXPECT_EQ(tools::elt_paths(make_args({"p.elt", "--elt", "a.elt", "--yet", "y.yet", "q.elt"})),
            (std::vector<std::string>{"a.elt", "p.elt", "q.elt"}));
  EXPECT_THROW(tools::elt_paths(make_args({"--yet", "y.yet"})), std::runtime_error);
  EXPECT_THROW(tools::elt_paths(make_args({"--elt", "a.elt", "--elt"})), std::runtime_error);
}

TEST_F(Inputs, InfoDescribesEveryEltInOrder) {
  const std::string a = write_elt("a.elt", elt::EventLossTable({{1, 10.0}}));
  const std::string b = write_elt("b.elt", elt::EventLossTable({{4, 20.0}, {2, 5.0}}));
  std::ostringstream out;
  tools::describe_elts(out, tools::elt_paths(make_args({"--elt", a, "--elt", b})));
  EXPECT_EQ(out.str(),
            "ELT: 1 event losses, max event id 1, total loss 10\n"
            "ELT: 2 event losses, max event id 4, total loss 25\n");
}

TEST_F(Inputs, ManyEltsKeepArgumentOrder) {
  std::vector<std::string> paths;
  for (int i = 0; i < 12; ++i) {
    paths.push_back(write_elt("e" + std::to_string(i) + ".elt",
                              elt::EventLossTable({{static_cast<elt::EventId>(i), 1.0 + i}})));
  }
  const core::Portfolio portfolio = build(paths);
  ASSERT_EQ(portfolio.layers[0].elts.size(), paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_DOUBLE_EQ(portfolio.layers[0].elts[i].lookup->lookup(static_cast<elt::EventId>(i)),
                     1.0 + static_cast<double>(i));
  }
}

TEST_F(Inputs, FirstFailingEltInArgumentOrderIsReported) {
  const std::string good = write_elt("good.elt", elt::EventLossTable({{1, 1.0}}));
  const std::string corrupt = write_corrupt_elt("corrupt.elt");
  const std::string beyond = write_elt("beyond.elt", elt::EventLossTable({{500, 1.0}}));
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      build({good, good, missing("gone.elt"), corrupt, missing("also_gone.elt"), good});
      ADD_FAILURE() << "missing ELT accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()), "cannot open ELT file: " + missing("gone.elt"));
    }
    try {
      build({good, corrupt, good, missing("gone.elt"), beyond});
      ADD_FAILURE() << "corrupt ELT accepted";
    } catch (const core::StatusError& error) {
      EXPECT_EQ(error.code(), core::StatusCode::kDataCorruption);
    }
    try {
      build({good, beyond, corrupt});
      ADD_FAILURE() << "ELT beyond the catalog accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()),
                "ELT " + beyond + " has events beyond the YET catalog universe");
    }
  }
}

}  // namespace
