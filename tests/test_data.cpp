#include <gtest/gtest.h>

#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "data/schema.hpp"
#include "data/validation.hpp"

namespace safenn::data {
namespace {

using linalg::Vector;

Dataset make_toy(std::size_t n = 10) {
  Dataset d(2, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(i);
    d.add(Vector{v, -v}, Vector{2.0 * v});
  }
  return d;
}

TEST(Dataset, AddAndAccess) {
  Dataset d = make_toy(3);
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.input_dim(), 2u);
  EXPECT_EQ(d.target_dim(), 1u);
  EXPECT_DOUBLE_EQ(d.input(1)[0], 1.0);
  EXPECT_DOUBLE_EQ(d.target(2)[0], 4.0);
}

TEST(Dataset, RejectsDimensionMismatch) {
  Dataset d(2, 1);
  EXPECT_THROW(d.add(Vector{1.0}, Vector{1.0}), Error);
  EXPECT_THROW(d.add(Vector{1.0, 2.0}, Vector{1.0, 2.0}), Error);
  EXPECT_THROW(d.input(0), Error);
}

TEST(Dataset, SplitPreservesOrderAndCounts) {
  Dataset d = make_toy(10);
  auto [train, test] = d.split(0.8);
  EXPECT_EQ(train.size(), 8u);
  EXPECT_EQ(test.size(), 2u);
  EXPECT_DOUBLE_EQ(test.input(0)[0], 8.0);
}

TEST(Dataset, ShuffleKeepsPairsAligned) {
  Dataset d = make_toy(50);
  Rng rng(1);
  d.shuffle(rng);
  for (std::size_t i = 0; i < d.size(); ++i) {
    // Invariant from construction: target == 2 * input[0].
    EXPECT_DOUBLE_EQ(d.target(i)[0], 2.0 * d.input(i)[0]);
  }
}

TEST(Dataset, SubsetSelectsIndices) {
  Dataset d = make_toy(5);
  Dataset s = d.subset({0, 3});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.input(1)[0], 3.0);
  EXPECT_THROW(d.subset({99}), Error);
}

TEST(Dataset, InputRange) {
  Dataset d = make_toy(4);
  auto [lo, hi] = d.input_range();
  EXPECT_DOUBLE_EQ(lo[0], 0.0);
  EXPECT_DOUBLE_EQ(hi[0], 3.0);
  EXPECT_DOUBLE_EQ(lo[1], -3.0);
  EXPECT_DOUBLE_EQ(hi[1], 0.0);
  EXPECT_THROW(Dataset(2, 1).input_range(), Error);
}

TEST(Schema, NamesAndGroups) {
  FeatureSchema s;
  EXPECT_EQ(s.add("speed", "ego"), 0u);
  EXPECT_EQ(s.add("gap", "neighbor"), 1u);
  EXPECT_EQ(s.add("rel_speed", "neighbor"), 2u);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.index_of("gap"), 1u);
  EXPECT_TRUE(s.contains("speed"));
  EXPECT_FALSE(s.contains("nope"));
  EXPECT_THROW(s.index_of("nope"), Error);
  EXPECT_THROW(s.add("speed", "dup"), Error);
  const auto nb = s.group_indices("neighbor");
  ASSERT_EQ(nb.size(), 2u);
  EXPECT_EQ(nb[0], 1u);
  EXPECT_EQ(s.names()[2], "rel_speed");
}

TEST(Validator, TargetBoundRule) {
  Validator v;
  v.add_rule(Validator::target_bound("lat-bound", 0, -2.0, 2.0));
  Dataset d(1, 1);
  d.add(Vector{0.0}, Vector{1.0});   // clean
  d.add(Vector{0.0}, Vector{3.0});   // violates
  d.add(Vector{0.0}, Vector{-2.5});  // violates
  const ValidationReport report = v.validate(d);
  EXPECT_EQ(report.samples_checked, 3u);
  EXPECT_EQ(report.samples_clean, 1u);
  EXPECT_EQ(report.rules[0].violations, 2u);
  EXPECT_FALSE(report.all_clean());
  EXPECT_EQ(report.total_violations(), 2u);
}

TEST(Validator, InputBoundRule) {
  Validator v;
  v.add_rule(Validator::input_bound("x0-range", 0, 0.0, 1.0));
  Dataset d(1, 1);
  d.add(Vector{0.5}, Vector{0.0});
  d.add(Vector{1.5}, Vector{0.0});
  EXPECT_EQ(v.validate(d).samples_clean, 1u);
}

TEST(Validator, ConditionalRuleOnlyFiresWhenConditionHolds) {
  // The paper's rule shape: when input[0] > 0.5 ("vehicle on left"), the
  // target must stay <= 1.0.
  Validator v;
  v.add_rule(Validator::conditional_target_max(
      "no-risky-left", [](const Vector& x) { return x[0] > 0.5; }, 0, 1.0));
  Dataset d(1, 1);
  d.add(Vector{0.9}, Vector{2.0});  // condition + violation
  d.add(Vector{0.1}, Vector{2.0});  // no condition: clean
  d.add(Vector{0.9}, Vector{0.5});  // condition, safe label: clean
  const ValidationReport report = v.validate(d);
  EXPECT_EQ(report.rules[0].violations, 1u);
  EXPECT_EQ(report.rules[0].violating_indices[0], 0u);
}

TEST(Validator, SanitizeRemovesExactlyTheViolators) {
  Validator v;
  v.add_rule(Validator::target_bound("bound", 0, -1.0, 1.0));
  Dataset d(1, 1);
  for (int i = 0; i < 10; ++i) {
    d.add(Vector{static_cast<double>(i)},
          Vector{i % 3 == 0 ? 5.0 : 0.5});  // every 3rd is dirty
  }
  auto [clean, report] = v.sanitize(d);
  EXPECT_EQ(clean.size(), 6u);
  EXPECT_EQ(report.samples_clean, 6u);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_LE(clean.target(i)[0], 1.0);
  }
}

TEST(Validator, MultipleRulesIntersect) {
  Validator v;
  v.add_rule(Validator::target_bound("t", 0, -1.0, 1.0));
  v.add_rule(Validator::input_bound("i", 0, 0.0, 5.0));
  Dataset d(1, 1);
  d.add(Vector{2.0}, Vector{0.0});   // clean
  d.add(Vector{9.0}, Vector{0.0});   // input violation
  d.add(Vector{2.0}, Vector{9.0});   // target violation
  d.add(Vector{9.0}, Vector{9.0});   // both
  const ValidationReport report = v.validate(d);
  EXPECT_EQ(report.samples_clean, 1u);
  EXPECT_EQ(report.rules[0].violations, 2u);
  EXPECT_EQ(report.rules[1].violations, 2u);
  auto [clean, r2] = v.sanitize(d);
  EXPECT_EQ(clean.size(), 1u);
}

TEST(Validator, ReportRenders) {
  Validator v;
  v.add_rule(Validator::target_bound("my-rule", 0, 0.0, 1.0));
  Dataset d(1, 1);
  d.add(Vector{0.0}, Vector{0.5});
  const std::string text = v.validate(d).render();
  EXPECT_NE(text.find("my-rule"), std::string::npos);
  EXPECT_NE(text.find("PASS"), std::string::npos);
}

TEST(Validator, RecordedIndicesCapped) {
  Validator v(4);  // cap at 4 recorded indices
  v.add_rule(Validator::target_bound("b", 0, -1.0, 1.0));
  Dataset d(1, 1);
  for (int i = 0; i < 20; ++i) d.add(Vector{0.0}, Vector{5.0});
  const ValidationReport report = v.validate(d);
  EXPECT_EQ(report.rules[0].violations, 20u);
  EXPECT_EQ(report.rules[0].violating_indices.size(), 4u);
}

TEST(Validator, RejectsMalformedRules) {
  Validator v;
  EXPECT_THROW(v.add_rule(ValidationRule{"", "", nullptr}), Error);
  EXPECT_THROW(v.add_rule(ValidationRule{"named", "", nullptr}), Error);
}

}  // namespace
}  // namespace safenn::data

// ---------------------------------------------------------------------------
// CSV dataset I/O (appended suite).
// ---------------------------------------------------------------------------
#include <sstream>

#include "data/io.hpp"

namespace safenn::data {
namespace {

TEST(DatasetIo, RoundTripPreservesValues) {
  Dataset d(3, 2);
  Rng rng(1);
  for (int i = 0; i < 25; ++i) {
    linalg::Vector x(3), y(2);
    for (auto& v : x) v = rng.normal();
    for (auto& v : y) v = rng.normal();
    d.add(std::move(x), std::move(y));
  }
  std::stringstream ss;
  save_dataset_csv(ss, d);
  const Dataset back = load_dataset_csv(ss, 2);
  ASSERT_EQ(back.size(), d.size());
  ASSERT_EQ(back.input_dim(), 3u);
  ASSERT_EQ(back.target_dim(), 2u);
  // 17 significant digits round-trip every double bit for bit.
  const auto same_bits = [](const linalg::Vector& a, const linalg::Vector& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_TRUE(same_bits(back.input(i), d.input(i))) << i;
    EXPECT_TRUE(same_bits(back.target(i), d.target(i))) << i;
  }
}

TEST(DatasetIo, HeaderUsesSchemaNames) {
  FeatureSchema schema;
  schema.add("speed", "ego");
  schema.add("gap", "nb");
  Dataset d(2, 1);
  d.add(linalg::Vector{1.0, 2.0}, linalg::Vector{3.0});
  std::stringstream ss;
  save_dataset_csv(ss, d, &schema);
  std::string header;
  std::getline(ss, header);
  EXPECT_EQ(header, "speed,gap,y0");
}

TEST(DatasetIo, RejectsEmptyAndRagged) {
  std::stringstream empty("");
  EXPECT_THROW(load_dataset_csv(empty, 1), Error);
  std::stringstream ragged("x0,x1,y0\n1,2,3\n1,2\n");
  EXPECT_THROW(load_dataset_csv(ragged, 1), Error);
  std::stringstream non_numeric("x0,y0\nhello,3\n");
  EXPECT_THROW(load_dataset_csv(non_numeric, 1), Error);
}

TEST(DatasetIo, RejectsCellsThatAreNotWholeNumbers) {
  // Each cell must parse whole: a numeric prefix is not a number.
  for (const char* row : {"1.5abc,3\n", "1.5, 3\n", "+1,3\n", "0x10,3\n",
                          "1.5\r,3\n", ",3\n"}) {
    std::stringstream ss(std::string("x0,y0\n") + row);
    EXPECT_THROW(load_dataset_csv(ss, 1), Error) << row;
  }
  std::stringstream ok("x0,y0\n1.5,-3e-05\n");
  const Dataset d = load_dataset_csv(ok, 1);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d.input(0)[0], 1.5);
  EXPECT_EQ(d.target(0)[0], -3e-05);
}

TEST(DatasetIo, FileRoundTrip) {
  Dataset d(1, 1);
  d.add(linalg::Vector{0.5}, linalg::Vector{-0.25});
  const std::string path = "/tmp/safenn_test_dataset.csv";
  save_dataset_csv_file(path, d);
  const Dataset back = load_dataset_csv_file(path, 1);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_DOUBLE_EQ(back.input(0)[0], 0.5);
  EXPECT_DOUBLE_EQ(back.target(0)[0], -0.25);
}

}  // namespace
}  // namespace safenn::data
