#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "nn/quantize.hpp"
#include "sat/solver.hpp"
#include "smt/qnn_encoder.hpp"
#include "verify/cache.hpp"
#include "verify/portfolio.hpp"
#include "verify/symbolic.hpp"

namespace safenn::verify {
namespace {

namespace fs = std::filesystem;
using linalg::Vector;
using nn::Activation;
using nn::Network;

constexpr double kInf = std::numeric_limits<double>::infinity();

// -------------------------------------------------------------------------
// Fixture network with hand-computable semantics over [-1,1]^2:
//   h1 = relu(0.5 a + 0.25 b)        h2 = relu(-0.5 a + 0.5 b)
//   out = 0.5 h1 + 0.5 h2
// True maximum 0.5 (at a=-1, b=1); interval bound 0.875; symbolic /
// triangle-LP root bound exactly 0.625 (the relaxations couple through
// u+v = 0.75 b). All weights sit on the 2^-6 grid, so the quantized
// engine's margin analysis stays tight. Thresholds used below:
//   0.85  — above 0.625: the root symbolic bound decides instantly
//   0.60  — inside (0.5 + sat margin, 0.625): only the CNF probe proves
//   0.55  — below 0.625, above 0.5: needs branching (split or MILP)
//   0.499 — below the true max: violated, witness at the corner
// -------------------------------------------------------------------------

Network craft_net() {
  nn::DenseLayer l1(2, 2, Activation::kRelu);
  l1.weights() = linalg::Matrix{{0.5, 0.25}, {-0.5, 0.5}};
  l1.biases() = Vector{0.0, 0.0};
  nn::DenseLayer l2(2, 1, Activation::kIdentity);
  l2.weights() = linalg::Matrix{{0.5, 0.5}};
  l2.biases() = Vector{0.0};
  Network net;
  net.add_layer(std::move(l1));
  net.add_layer(std::move(l2));
  return net;
}

SafetyProperty craft_property(double threshold,
                              const std::string& name = "craft") {
  SafetyProperty prop;
  prop.name = name;
  prop.region.box = Box(2, Interval{-1.0, 1.0});
  prop.expr.terms = {{0, 1.0}};
  prop.threshold = threshold;
  return prop;
}

PortfolioOptions det_options() {
  PortfolioOptions o;
  o.deterministic = true;
  o.num_workers = 1;
  return o;
}

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("safenn_vcache_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

// -------------------------------------------------------------------------
// Cache keys: pure functions of content.
// -------------------------------------------------------------------------

TEST(CacheKey, StableAcrossReconstruction) {
  // Rebuilding identical artifacts (as a process restart would) yields
  // the identical key — nothing address- or session-dependent leaks in.
  const CacheKey a = make_cache_key(craft_net(), craft_property(0.55));
  const CacheKey b = make_cache_key(craft_net(), craft_property(0.55));
  EXPECT_EQ(a.network, b.network);
  EXPECT_EQ(a.property, b.property);
  EXPECT_EQ(a.combined, b.combined);
  EXPECT_EQ(a.hex(), b.hex());
}

TEST(CacheKey, PropertyNameExcluded) {
  const CacheKey a = make_cache_key(craft_net(), craft_property(0.55, "v1"));
  const CacheKey b =
      make_cache_key(craft_net(), craft_property(0.55, "renamed"));
  EXPECT_EQ(a.combined, b.combined);
}

TEST(CacheKey, RetrainInvalidates) {
  Network retrained = craft_net();
  retrained.layer(0).weights().at(0, 0) += 1e-9;  // one ulp of retraining
  const CacheKey before = make_cache_key(craft_net(), craft_property(0.55));
  const CacheKey after = make_cache_key(retrained, craft_property(0.55));
  EXPECT_NE(before.network, after.network);
  EXPECT_NE(before.combined, after.combined);
  EXPECT_EQ(before.property, after.property);
}

TEST(CacheKey, PropertyEditInvalidates) {
  const CacheKey a = make_cache_key(craft_net(), craft_property(0.55));
  const CacheKey b = make_cache_key(craft_net(), craft_property(0.56));
  EXPECT_EQ(a.network, b.network);
  EXPECT_NE(a.property, b.property);
  EXPECT_NE(a.combined, b.combined);

  SafetyProperty shifted = craft_property(0.55);
  shifted.region.box[1].hi = 0.75;
  const CacheKey c = make_cache_key(craft_net(), shifted);
  EXPECT_NE(a.property, c.property);
}

// The key bytes are a persistent contract: CI restores a verification
// cache across commits, so a formatter change that moved any key would
// silently invalidate it. These values were produced before the number
// codec moved to <charconv>.
TEST(CacheKey, ValuesArePinnedAcrossFormatterChanges) {
  Rng rng(2024);
  const Network net = Network::make_mlp({4, 16, 16, 2}, Activation::kRelu,
                                        Activation::kIdentity, rng);
  SafetyProperty prop;
  prop.region.box = Box(4, Interval{-1.0, 1.0});
  prop.region.constraints.push_back(
      InputConstraint{{{0, 1.0}, {2, -0.5}}, lp::Relation::kLe, 0.25});
  prop.expr.terms = {{0, 1.0}, {1, -0.5}};
  prop.threshold = 0.3;
  const CacheKey key = make_cache_key(net, prop);
  EXPECT_EQ(hex64(key.network), "0c61e9dd705d341d");
  EXPECT_EQ(key.hex(), "e4add0a3980fbed1");
  EXPECT_EQ(make_cache_key(craft_net(), craft_property(0.55)).hex(),
            "0042578bba708f0a");
}

// -------------------------------------------------------------------------
// Cache entries: bitwise round-trip, typed rejection, quarantine.
// -------------------------------------------------------------------------

TEST_F(CacheTest, BitwiseRoundTrip) {
  VerificationCache cache(dir_);
  const CacheKey key = make_cache_key(craft_net(), craft_property(0.55));
  CachedVerdict v;
  v.verdict = Verdict::kViolated;
  v.upper_bound = 1.0 / 3.0;
  v.has_value = true;
  v.max_value = std::nextafter(0.5, 1.0);
  v.engine = "input_split";
  v.seconds = 0.123456789;
  cache.store(key, v);

  // A separate instance on the same directory = a process restart.
  VerificationCache reopened(dir_);
  const CachedVerdict r = reopened.load(key);
  EXPECT_EQ(r.verdict, v.verdict);
  EXPECT_EQ(r.upper_bound, v.upper_bound);  // exact, not near
  EXPECT_EQ(r.has_value, v.has_value);
  EXPECT_EQ(r.max_value, v.max_value);
  EXPECT_EQ(r.engine, v.engine);
  EXPECT_EQ(r.seconds, v.seconds);
}

TEST_F(CacheTest, RoundTripsInfinitiesAndEmptyEngine) {
  VerificationCache cache(dir_);
  const CacheKey key = make_cache_key(craft_net(), craft_property(0.55));
  CachedVerdict v;
  v.verdict = Verdict::kProved;
  v.upper_bound = -kInf;  // vacuous property over an empty region
  v.engine = "";
  cache.store(key, v);
  const CachedVerdict r = cache.load(key);
  EXPECT_EQ(r.upper_bound, -kInf);
  EXPECT_EQ(r.engine, "");
  EXPECT_FALSE(r.has_value);
}

TEST_F(CacheTest, MissingEntryIsTypedNotFound) {
  VerificationCache cache(dir_);
  const CacheKey key = make_cache_key(craft_net(), craft_property(0.55));
  try {
    cache.load(key);
    FAIL() << "expected CacheError";
  } catch (const CacheError& e) {
    EXPECT_EQ(e.kind(), CacheError::Kind::kNotFound);
  }
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().rejected, 0);  // absence is not corruption
}

TEST_F(CacheTest, CorruptEntryRejectedAndQuarantined) {
  VerificationCache cache(dir_);
  const CacheKey key = make_cache_key(craft_net(), craft_property(0.55));
  CachedVerdict v;
  v.verdict = Verdict::kProved;
  v.upper_bound = 0.5;
  v.engine = "milp";
  cache.store(key, v);

  // Flip payload bytes, keeping the recorded checksum: the mismatch must
  // be detected before any field is trusted.
  const std::string path = cache.entry_path(key);
  std::string text;
  {
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    text = os.str();
  }
  const auto pos = text.find("proved");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 6, "prized");
  {
    std::ofstream os(path);
    os << text;
  }

  try {
    cache.load(key);
    FAIL() << "expected CacheError";
  } catch (const CacheError& e) {
    EXPECT_EQ(e.kind(), CacheError::Kind::kChecksumMismatch);
  }

  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().rejected, 1);
  EXPECT_FALSE(fs::exists(path));  // never served again...
  EXPECT_TRUE(fs::exists(path + ".quarantined"));  // ...never deleted

  // The poisoned key is writable again after quarantine.
  cache.store(key, v);
  EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST_F(CacheTest, TruncatedEntryRejectedAndQuarantined) {
  VerificationCache cache(dir_);
  const CacheKey key = make_cache_key(craft_net(), craft_property(0.55));
  cache.store(key, CachedVerdict{});
  const std::string path = cache.entry_path(key);
  fs::resize_file(path, fs::file_size(path) / 2);

  try {
    cache.load(key);
    FAIL() << "expected CacheError";
  } catch (const CacheError& e) {
    EXPECT_EQ(e.kind(), CacheError::Kind::kBadEntry);
  }
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().rejected, 1);
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
}

TEST_F(CacheTest, ForeignFileRejectedAsBadEntry) {
  VerificationCache cache(dir_);
  const CacheKey key = make_cache_key(craft_net(), craft_property(0.55));
  {
    std::ofstream os(cache.entry_path(key));
    os << "not a cache entry at all\n";
  }
  try {
    cache.load(key);
    FAIL() << "expected CacheError";
  } catch (const CacheError& e) {
    EXPECT_EQ(e.kind(), CacheError::Kind::kBadEntry);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

// Deterministic mutation sweep over a stored entry: byte flips at a fixed
// stride and a cut at every line start, each tried under the original
// checksum and under one recomputed over the mutated payload (so the
// field checks run, not just the checksum). Every input must end in a
// typed CacheError, which lookup() quarantines as a miss, or load a
// verdict that re-stores to exactly the input bytes.
TEST_F(CacheTest, MutationSweepEndsTypedOrRoundTrips) {
  VerificationCache cache(dir_);
  const CacheKey key = make_cache_key(craft_net(), craft_property(0.55));
  CachedVerdict v;
  v.verdict = Verdict::kViolated;
  v.upper_bound = 0.75;
  v.has_value = true;
  v.max_value = 0.5;
  v.engine = "milp";
  v.seconds = 0.125;
  cache.store(key, v);
  const std::string path = cache.entry_path(key);
  const std::string text = read_file(path);
  const std::string header = "safenn-vcache v1\n";
  const std::size_t trailer = text.rfind("checksum ");
  ASSERT_EQ(text.compare(0, header.size(), header), 0);
  const std::string payload =
      text.substr(header.size(), trailer - header.size());
  const auto resealed = [&](const std::string& p) {
    return header + p + "checksum " + hex64(fnv1a64(p)) + "\n";
  };
  ASSERT_EQ(resealed(payload), text);

  int round_trips = 0;
  const auto probe = [&](const std::string& input, const std::string& what) {
    write_file(path, input);
    try {
      cache.store(key, cache.load(key));
      EXPECT_EQ(read_file(path), input) << what;
      ++round_trips;
    } catch (const CacheError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": untyped " << e.what();
    }
  };
  for (std::size_t pos = 0; pos < text.size(); pos += 3) {
    for (const unsigned char mask : {0x01, 0x20, 0x80}) {
      std::string mutated = text;
      mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
      probe(mutated, "flip " + std::to_string(mask) + " at " +
                         std::to_string(pos));
    }
  }
  for (std::size_t pos = 0; pos <= text.size(); ++pos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      probe(text.substr(0, pos), "cut at " + std::to_string(pos));
    }
  }
  EXPECT_EQ(round_trips, 1);  // under the original checksum only the uncut text

  round_trips = 0;
  for (std::size_t pos = 0; pos < payload.size(); pos += 3) {
    for (const unsigned char mask : {0x01, 0x20, 0x80}) {
      std::string mutated = payload;
      mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
      probe(resealed(mutated), "resealed flip " + std::to_string(mask) +
                                   " at " + std::to_string(pos));
    }
  }
  for (std::size_t pos = 0; pos <= payload.size(); ++pos) {
    if (pos == 0 || payload[pos - 1] == '\n') {
      probe(resealed(payload.substr(0, pos)),
            "resealed cut at " + std::to_string(pos));
    }
  }
  // Flips that keep a valid field (a hex digit, an engine letter) load.
  EXPECT_GT(round_trips, 1);

  // Shapes strtod and a stream reader would accept, none of which
  // store() writes: each is a typed bad entry, quarantined by lookup().
  const std::pair<std::string, std::string> edits[] = {
      {"seconds 0x1p-3\n", "seconds 0.125\n"},
      {"upper_bound 0x1.8p-1\n", "upper_bound 0X1.8P-1\n"},
      {"max_value 0x1p-1\n", "max_value +0x1p-1\n"},
      {"upper_bound 0x1.8p-1\n", "upper_bound INFINITY\n"},
      {"seconds 0x1p-3\n", "seconds 0x1p-3\nextra 1\n"},
      {"engine milp\n", "engine  milp\n"},
  };
  for (const auto& [from, to] : edits) {
    std::string edited = payload;
    const std::size_t at = edited.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    edited.replace(at, from.size(), to);
    write_file(path, resealed(edited));
    try {
      cache.load(key);
      ADD_FAILURE() << "loaded " << to;
    } catch (const CacheError& e) {
      EXPECT_EQ(e.kind(), CacheError::Kind::kBadEntry) << to;
    }
  }
  const long rejected = cache.stats().rejected;
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().rejected, rejected + 1);
  EXPECT_TRUE(fs::exists(path + ".quarantined"));

  // The trailer is exactly "checksum <16 lowercase hex>\n".
  const std::string upper_hex = [&] {
    std::string t = text;
    for (std::size_t i = trailer + 9; i < t.size(); ++i) {
      if (t[i] >= 'a' && t[i] <= 'f') t[i] = static_cast<char>(t[i] - 32);
    }
    return t;
  }();
  for (const std::string& bad : {text + "\n", text.substr(0, text.size() - 1) +
                                                  "\r\n", upper_hex}) {
    if (bad == text) continue;
    write_file(path, bad);
    EXPECT_THROW(cache.load(key), CacheError);
  }
}

// -------------------------------------------------------------------------
// Portfolio: verdicts on the hand-computed fixture.
// -------------------------------------------------------------------------

TEST(Portfolio, RootBoundDecidesTrivialQuery) {
  // 0.85 < interval bound 0.875 but above the symbolic root bound 0.625:
  // the hoisted work decides before any engine launches.
  const PortfolioResult r =
      PortfolioVerifier(det_options()).prove(craft_net(), craft_property(0.85));
  EXPECT_EQ(r.verdict, Verdict::kProved);
  EXPECT_EQ(r.engine_name, "root");
  EXPECT_DOUBLE_EQ(r.upper_bound, 0.625);
  EXPECT_FALSE(r.timed_out);
}

TEST(Portfolio, InputSplitWinsBranchingQuery) {
  const PortfolioResult r =
      PortfolioVerifier(det_options()).prove(craft_net(), craft_property(0.55));
  EXPECT_EQ(r.verdict, Verdict::kProved);
  EXPECT_EQ(r.engine_name, "input_split");
  EXPECT_LE(r.upper_bound, 0.55 + 1e-6);
  EXPECT_GE(r.upper_bound, 0.5);  // still a sound bound on the true max
}

TEST(Portfolio, InputSplitFindsViolationWitness) {
  const Network net = craft_net();
  const SafetyProperty prop = craft_property(0.499);
  const PortfolioResult r = PortfolioVerifier(det_options()).prove(net, prop);
  EXPECT_EQ(r.verdict, Verdict::kViolated);
  EXPECT_EQ(r.engine_name, "input_split");
  ASSERT_TRUE(r.has_value);
  ASSERT_EQ(r.witness.size(), 2u);
  EXPECT_TRUE(prop.region.contains(r.witness));
  // The violation is certified by the network itself, not engine algebra.
  EXPECT_GT(prop.expr.evaluate(net.forward(r.witness)), prop.threshold);
  EXPECT_NEAR(r.max_value, 0.5, 1e-6);
}

TEST(Portfolio, MilpWinsWhenSplitBudgetExhausted) {
  PortfolioOptions o = det_options();
  o.det_max_boxes = 1;  // split sees only the root box: bound 0.625 > 0.55
  o.use_sat = false;
  const PortfolioResult r =
      PortfolioVerifier(o).prove(craft_net(), craft_property(0.55));
  EXPECT_EQ(r.verdict, Verdict::kProved);
  EXPECT_EQ(r.engine_name, "milp");
  // The undecided split engine still contributed its (looser) evidence.
  ASSERT_EQ(r.engines.size(), 4u);
  EXPECT_FALSE(r.engines[1].decided);
  EXPECT_TRUE(r.engines[2].decided);
}

TEST(Portfolio, SatQuantizedWinsInsideItsMargin) {
  // 0.60 sits below every LP/symbolic relaxation (0.625) and the split /
  // MILP budgets are capped at one box / one node — but the quantized
  // maximum (0.5) plus the certified float-vs-quantized margin stays
  // under the probe threshold, so a single UNSAT call proves the float
  // property.
  PortfolioOptions o = det_options();
  o.det_max_boxes = 1;
  o.det_max_nodes = 1;
  o.sat_frac_bits = 6;
  const PortfolioResult r =
      PortfolioVerifier(o).prove(craft_net(), craft_property(0.60));
  EXPECT_EQ(r.verdict, Verdict::kProved);
  EXPECT_EQ(r.engine_name, "sat_quantized");
  EXPECT_LE(r.upper_bound, 0.60 + 1e-12);
}

TEST(Portfolio, ReportsTightestBoundOnTimeout) {
  PortfolioOptions o = det_options();
  o.det_max_boxes = 1;
  o.det_max_nodes = 1;
  o.use_sat = false;
  const PortfolioResult r =
      PortfolioVerifier(o).prove(craft_net(), craft_property(0.60));
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_TRUE(r.timed_out);
  // Merged evidence is tighter than the interval bound and sound.
  EXPECT_LE(r.upper_bound, 0.625 + 1e-6);
  EXPECT_GE(r.upper_bound, 0.5);
  EXPECT_FALSE(r.engine_name.empty());
}

TEST(Portfolio, EnginesDisagreeIsImpossibleOnFixture) {
  // Every engine that decides must agree with the portfolio verdict —
  // prove() itself asserts this; run the three decisive queries and check
  // the recorded evidence is consistent.
  for (double threshold : {0.55, 0.499, 0.85}) {
    const PortfolioResult r = PortfolioVerifier(det_options())
                                  .prove(craft_net(), craft_property(threshold));
    for (const EngineOutcome& o : r.engines) {
      if (o.decided) {
        EXPECT_EQ(o.verdict, r.verdict) << to_string(o.engine);
      }
    }
  }
}

// -------------------------------------------------------------------------
// Portfolio determinism: verdict, bound, and winning engine bit-identical
// for any worker count and across repeated runs.
// -------------------------------------------------------------------------

struct DetCase {
  const char* name;
  double threshold;
  PortfolioOptions options;
};

std::vector<DetCase> determinism_cases() {
  std::vector<DetCase> cases;
  cases.push_back({"split_proves", 0.55, det_options()});
  cases.push_back({"split_violates", 0.499, det_options()});
  PortfolioOptions milp = det_options();
  milp.det_max_boxes = 1;
  milp.use_sat = false;
  cases.push_back({"milp_proves", 0.55, milp});
  PortfolioOptions sat = det_options();
  sat.det_max_boxes = 1;
  sat.det_max_nodes = 1;
  sat.sat_frac_bits = 6;
  cases.push_back({"sat_proves", 0.60, sat});
  PortfolioOptions timeout = det_options();
  timeout.det_max_boxes = 1;
  timeout.det_max_nodes = 1;
  timeout.use_sat = false;
  cases.push_back({"timeout", 0.60, timeout});
  // One engine alone, stopping at the decision threshold on either side.
  PortfolioOptions split_only = det_options();
  split_only.use_milp = false;
  split_only.use_sat = false;
  cases.push_back({"split_exits_proved", 0.55, split_only});
  cases.push_back({"split_exits_violated", 0.499, split_only});
  PortfolioOptions milp_only = det_options();
  milp_only.use_input_split = false;
  milp_only.use_sat = false;
  cases.push_back({"milp_exits_proved", 0.55, milp_only});
  cases.push_back({"milp_exits_violated", 0.499, milp_only});
  return cases;
}

TEST(PortfolioDeterminism, IdenticalAcrossWorkerCountsAndRuns) {
  const Network net = craft_net();
  for (const DetCase& c : determinism_cases()) {
    const SafetyProperty prop = craft_property(c.threshold);
    PortfolioOptions base = c.options;
    base.num_workers = 1;
    const PortfolioResult ref = PortfolioVerifier(base).prove(net, prop);
    for (int workers : {1, 2, 4}) {
      for (int run = 0; run < 2; ++run) {
        PortfolioOptions o = c.options;
        o.num_workers = workers;
        const PortfolioResult r = PortfolioVerifier(o).prove(net, prop);
        EXPECT_EQ(r.verdict, ref.verdict) << c.name << " w=" << workers;
        EXPECT_EQ(r.engine_name, ref.engine_name)
            << c.name << " w=" << workers;
        EXPECT_EQ(r.upper_bound, ref.upper_bound)  // bitwise
            << c.name << " w=" << workers;
        EXPECT_EQ(r.has_value, ref.has_value) << c.name << " w=" << workers;
        if (ref.has_value) {
          EXPECT_EQ(r.max_value, ref.max_value)  // bitwise
              << c.name << " w=" << workers;
        }
        EXPECT_EQ(r.timed_out, ref.timed_out) << c.name << " w=" << workers;
        // The merged engines' own evidence (bound, box/node counts) is
        // bitwise too; engines above the winner may have been cancelled
        // at a schedule-dependent point and are not merged.
        const int merged_up_to =
            ref.timed_out ? 2 : static_cast<int>(ref.winner);
        ASSERT_EQ(r.engines.size(), ref.engines.size()) << c.name;
        for (std::size_t e = 0; e < ref.engines.size(); ++e) {
          if (static_cast<int>(ref.engines[e].engine) > merged_up_to) continue;
          EXPECT_EQ(r.engines[e].upper_bound, ref.engines[e].upper_bound)
              << c.name << " w=" << workers << " e=" << e;
          EXPECT_EQ(r.engines[e].detail, ref.engines[e].detail)
              << c.name << " w=" << workers << " e=" << e;
        }
      }
    }
  }
}

// The portfolio owns the hooks, caps and warm start it sets per query:
// values left in the nested options (a cutoff or external incumbent that
// would prune everything, a spent time limit, a threshold below every
// value, a start with no point, a hybrid split warm start) change nothing.
TEST(PortfolioDeterminism, QueryOwnedEngineOptionsAreOverwritten) {
  const Network net = craft_net();
  const std::optional<Incumbent> no_point;
  for (const DetCase& c : determinism_cases()) {
    const SafetyProperty prop = craft_property(c.threshold);
    const PortfolioResult ref = PortfolioVerifier(c.options).prove(net, prop);
    PortfolioOptions o = c.options;
    o.split.time_limit_seconds = 1e-9;
    o.split.decision_threshold = -1e9;
    o.split.external_incumbent = [] { return 1e9; };
    o.milp.time_limit_seconds = 1e-9;
    o.milp.bnb.decision_threshold = -1e9;
    o.milp.bnb.external_cutoff = [] { return 1e9; };
    o.milp.start = &no_point;
    o.milp.warm_start_split_seconds = 1.0;
    const PortfolioResult r = PortfolioVerifier(o).prove(net, prop);
    EXPECT_EQ(r.verdict, ref.verdict) << c.name;
    EXPECT_EQ(r.engine_name, ref.engine_name) << c.name;
    EXPECT_EQ(r.upper_bound, ref.upper_bound) << c.name;
    EXPECT_EQ(r.has_value, ref.has_value) << c.name;
    EXPECT_EQ(r.max_value, ref.max_value) << c.name;
    ASSERT_EQ(r.engines.size(), ref.engines.size()) << c.name;
    for (std::size_t e = 0; e < ref.engines.size(); ++e) {
      EXPECT_EQ(r.engines[e].upper_bound, ref.engines[e].upper_bound)
          << c.name << " e=" << e;
      EXPECT_EQ(r.engines[e].detail, ref.engines[e].detail)
          << c.name << " e=" << e;
    }
  }
}

// -------------------------------------------------------------------------
// Decision threshold: each engine stops once "max <= t?" is answered,
// instead of proving the exact maximum (which maximize() still does).
// -------------------------------------------------------------------------

/// The fixture's MILP encoding, maximizing the output.
EncodedNetwork craft_milp() {
  EncodedNetwork enc = encode_network(craft_net(), craft_property(0.0).region);
  enc.model.set_objective(enc.output_vars[0], 1.0);
  enc.model.set_maximize(true);
  return enc;
}

TEST(EarlyExit, InputSplitStopsAtThreshold) {
  const Network net = craft_net();
  const SafetyProperty prop = craft_property(0.55);
  const InputSplitResult full =
      InputSplitVerifier().maximize(net, prop.region, prop.expr);
  ASSERT_TRUE(full.exact);
  InputSplitResult ref;
  for (int workers : {1, 2, 4}) {
    InputSplitOptions o;
    o.num_workers = workers;
    InputSplitResult r;
    EXPECT_EQ(InputSplitVerifier(o).prove(net, prop, &r), Verdict::kProved);
    EXPECT_FALSE(r.exact);
    EXPECT_GE(r.upper_bound, 0.5);
    EXPECT_LE(r.upper_bound, 0.55);
    EXPECT_LT(r.boxes_explored, full.boxes_explored);
    if (workers == 1) ref = r;
    EXPECT_EQ(r.upper_bound, ref.upper_bound) << workers;  // bitwise
    EXPECT_EQ(r.boxes_explored, ref.boxes_explored) << workers;
    InputSplitResult v;
    EXPECT_EQ(InputSplitVerifier(o).prove(net, craft_property(0.499), &v),
              Verdict::kViolated);
    EXPECT_LT(v.boxes_explored, full.boxes_explored);
  }
}

// On the fixture every one of the MILP's 5 nodes is needed for any t in
// [0.5, 0.625): the root and its active child relax to 0.625, so both
// must branch. The strict "fewer nodes" checks run on a random 2-6-6-1
// network whose tree has slack; its threshold sits midway between the
// exact maximum and the root relaxation.
SafetyProperty slack_property(const Network& net) {
  SafetyProperty prop = craft_property(0.0, "slack");
  const MaximizeResult full =
      MilpVerifier().maximize(net, prop.region, prop.expr);
  VerifierOptions root_only;
  root_only.bnb.max_nodes = 1;
  const MaximizeResult root =
      MilpVerifier(root_only).maximize(net, prop.region, prop.expr);
  prop.threshold = 0.5 * (full.max_value + root.upper_bound);
  return prop;
}

Network slack_net() {
  Rng rng(7);
  return Network::make_mlp({2, 6, 6, 1}, Activation::kRelu,
                           Activation::kIdentity, rng);
}

TEST(EarlyExit, BranchAndBoundStopsAtThreshold) {
  const EncodedNetwork enc = craft_milp();
  const milp::MilpResult full = milp::BranchAndBound().solve(enc.model);
  ASSERT_EQ(full.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(full.objective, 0.5, 1e-6);
  milp::BnbOptions o;
  o.decision_threshold = 0.55;
  const milp::MilpResult r = milp::BranchAndBound(o).solve(enc.model);
  EXPECT_GE(r.best_bound, 0.5 - 1e-9);
  EXPECT_LE(r.best_bound, 0.55);
  EXPECT_LE(r.nodes_explored, full.nodes_explored);
  // Below the optimum the bound never clears t: the solve runs to the
  // optimum, whose incumbent refutes t.
  o.decision_threshold = 0.499;
  const milp::MilpResult below = milp::BranchAndBound(o).solve(enc.model);
  EXPECT_EQ(below.status, milp::MilpStatus::kOptimal);
  EXPECT_GT(below.objective, 0.499);

  const Network net = slack_net();
  const SafetyProperty prop = slack_property(net);
  EncodedNetwork slack = encode_network(net, prop.region);
  slack.model.set_objective(slack.output_vars[0], 1.0);
  slack.model.set_maximize(true);
  const milp::MilpResult exact = milp::BranchAndBound().solve(slack.model);
  o.decision_threshold = prop.threshold;
  const milp::MilpResult at = milp::BranchAndBound(o).solve(slack.model);
  EXPECT_EQ(at.status, milp::MilpStatus::kThresholdReached);
  EXPECT_GE(at.best_bound, exact.objective);
  EXPECT_LE(at.best_bound, prop.threshold);
  EXPECT_LT(at.nodes_explored, exact.nodes_explored);
}

TEST(EarlyExit, MilpVerifierStopsAtThreshold) {
  for (const bool on_fixture : {true, false}) {
    const Network net = on_fixture ? craft_net() : slack_net();
    const SafetyProperty prop =
        on_fixture ? craft_property(0.55) : slack_property(net);
    const MaximizeResult full =
        MilpVerifier().maximize(net, prop.region, prop.expr);
    ASSERT_EQ(full.status, milp::MilpStatus::kOptimal);
    const ProveResult proved = MilpVerifier().prove(net, prop);
    EXPECT_EQ(proved.verdict, Verdict::kProved);
    if (on_fixture) {
      EXPECT_LE(proved.nodes, full.nodes);
    } else {
      EXPECT_LT(proved.nodes, full.nodes);
    }
    // The bound prove() stops at, read through maximize() with the same
    // decision threshold.
    VerifierOptions at;
    at.bnb.decision_threshold = prop.threshold;
    const MaximizeResult m =
        MilpVerifier(at).maximize(net, prop.region, prop.expr);
    EXPECT_GE(m.upper_bound, full.max_value - 1e-9);
    EXPECT_LE(m.upper_bound, prop.threshold);
    EXPECT_EQ(m.nodes, proved.nodes);
    SafetyProperty refuted = prop;
    refuted.threshold = full.max_value - 1e-3;
    EXPECT_EQ(MilpVerifier().prove(net, refuted).verdict, Verdict::kViolated);
  }
}

// -------------------------------------------------------------------------
// Racing mode: sound verdicts under full sharing and cancellation.
// -------------------------------------------------------------------------

// The warm-start sweep runs its in-region samples as one batch; the root
// outcome must be the per-sample forward() loop's first strict maximum,
// bit for bit, whether the root decides alone or the race runs.
TEST(PortfolioWarmStart, BatchedSweepMatchesPerSampleLoopBitwise) {
  Rng net_rng(77);
  const Network net = Network::make_mlp({3, 12, 12, 2}, Activation::kRelu,
                                        Activation::kIdentity, net_rng);
  SafetyProperty prop;
  prop.region.box = Box(3, Interval{-1.0, 1.0});
  // x0 + x1 <= 0.25 rejects about a third of the box samples.
  prop.region.constraints.push_back(
      InputConstraint{{{0, 1.0}, {1, 1.0}}, lp::Relation::kLe, 0.25});
  prop.expr.terms = {{0, 1.0}, {1, -0.5}};

  Rng rng(kWarmStartSeed);
  bool has = false;
  double best = 0.0;
  Vector best_x;
  long rejected = 0;
  for (long t = 0; t < kWarmStartSamples; ++t) {
    Vector x(3);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.uniform(prop.region.box[i].lo, prop.region.box[i].hi);
    }
    if (!prop.region.contains(x)) {
      ++rejected;
      continue;
    }
    const double val = prop.expr.evaluate(net.forward(x));
    if (!has || val > best) {
      has = true;
      best = val;
      best_x = x;
    }
  }
  ASSERT_TRUE(has);
  ASSERT_GT(rejected, 0);

  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  // 1e9: the root bound decides alone. best + 1e-3: the race runs.
  for (const double threshold : {1e9, best + 1e-3}) {
    prop.threshold = threshold;
    for (const int workers : {1, 3}) {
      PortfolioOptions o;
      o.num_workers = workers;
      o.time_limit_seconds = 2.0;
      const PortfolioResult r = PortfolioVerifier(o).prove(net, prop);
      ASSERT_FALSE(r.engines.empty());
      const EngineOutcome& root = r.engines.front();
      ASSERT_EQ(root.engine, PortfolioEngine::kRoot);
      EXPECT_TRUE(root.has_value);
      EXPECT_TRUE(same_bits(root.max_value, best))
          << root.max_value << " vs " << best;
      ASSERT_EQ(root.witness.size(), best_x.size());
      for (std::size_t i = 0; i < best_x.size(); ++i) {
        EXPECT_TRUE(same_bits(root.witness[i], best_x[i])) << i;
      }
      EXPECT_EQ(r.engines.size(), threshold == 1e9 ? 1u : 4u) << workers;
    }
  }
}

TEST(PortfolioRacing, AgreesWithDeterministicVerdicts) {
  const Network net = craft_net();
  for (double threshold : {0.85, 0.60, 0.55, 0.499}) {
    const SafetyProperty prop = craft_property(threshold);
    const Verdict det_verdict =
        PortfolioVerifier(det_options()).prove(net, prop).verdict;
    PortfolioOptions o;
    o.time_limit_seconds = 30.0;
    o.num_workers = 3;
    o.sat_frac_bits = 6;
    const PortfolioResult r = PortfolioVerifier(o).prove(net, prop);
    if (det_verdict != Verdict::kUnknown && r.verdict != Verdict::kUnknown) {
      EXPECT_EQ(r.verdict, det_verdict) << "threshold " << threshold;
    }
    if (r.verdict == Verdict::kViolated) {
      ASSERT_TRUE(r.has_value);
      EXPECT_GT(prop.expr.evaluate(net.forward(r.witness)), prop.threshold);
    }
    if (r.verdict == Verdict::kProved) {
      EXPECT_LE(0.5, r.upper_bound + 1e-9);  // bound covers the true max
    }
  }
}

TEST(PortfolioRacing, SharedDeadlineProducesUnknownNotHang) {
  Rng rng(7);
  const Network net =
      Network::make_mlp({4, 24, 24, 2}, Activation::kRelu,
                        Activation::kIdentity, rng);
  SafetyProperty prop;
  prop.name = "hard";
  prop.region.box = Box(4, Interval{-2.0, 2.0});
  prop.expr.terms = {{0, 1.0}, {1, -1.0}};
  prop.threshold = 0.0;  // far below the reachable maximum spread? if a
  // witness exists it is found fast; otherwise the deadline binds.
  PortfolioOptions o;
  o.time_limit_seconds = 0.5;
  o.num_workers = 3;
  const PortfolioResult r = PortfolioVerifier(o).prove(net, prop);
  // Whatever the verdict, the result is sound and the call returned —
  // this is a hang check, so the ceiling is generous enough to absorb a
  // sanitizer build's 10-20x slowdown of one polling stride.
  EXPECT_LT(r.seconds, 60.0);
  if (r.verdict == Verdict::kViolated) {
    EXPECT_GT(prop.expr.evaluate(net.forward(r.witness)), prop.threshold);
  }
}

// -------------------------------------------------------------------------
// Deadline: one instant per query bounds every engine, set-up included.
// -------------------------------------------------------------------------

/// A query no engine closes in half a second on a 4-core host: a random
/// network (8-30-30-1 unless `widths` says otherwise) whose threshold
/// sits 5% of the way from the sampled maximum to the root symbolic
/// bound. All three engines run on it.
struct OpenQuery {
  Network net;
  SafetyProperty prop;
};

OpenQuery make_open_query(
    const std::vector<std::size_t>& widths = {8, 30, 30, 1}) {
  Rng rng(11);
  OpenQuery q{Network::make_mlp(widths, Activation::kRelu,
                                Activation::kIdentity, rng),
              {}};
  q.prop.name = "open";
  q.prop.region.box = Box(8, Interval{-1.0, 1.0});
  q.prop.expr.terms = {{0, 1.0}};
  const SymbolicPropagator sym(q.net);
  const double root = SymbolicPropagator::objective_interval(
                          sym.propagate(q.prop.region.box),
                          q.prop.region.box, q.prop.expr.terms)
                          .hi;
  double sampled = -kInf;
  Rng xs(12);
  for (int t = 0; t < 2000; ++t) {
    Vector x(8);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = xs.uniform(-1.0, 1.0);
    sampled = std::max(sampled, q.net.forward(x)[0]);
  }
  q.prop.threshold = sampled + 0.05 * (root - sampled);
  return q;
}

TEST(PortfolioDeadline, OpenQueryReturnsWithinDeadline) {
  const OpenQuery q = make_open_query();
  PortfolioOptions o;
  o.time_limit_seconds = 0.5;
  o.num_workers = 3;
  const PortfolioResult r = PortfolioVerifier(o).prove(q.net, q.prop);
  // Deadline + 150 ms: one node, box round, conflict or circuit neuron of
  // overrun, plus scheduling on a loaded host.
  EXPECT_LT(r.seconds, 0.65) << to_string(r.verdict);
  for (const EngineOutcome& e : r.engines) {
    EXPECT_LT(e.seconds, 0.65) << to_string(e.engine) << " " << e.detail;
  }
  if (r.verdict == Verdict::kViolated) {
    EXPECT_GT(q.prop.expr.evaluate(q.net.forward(r.witness)),
              q.prop.threshold);
  }
}

// -------------------------------------------------------------------------
// Cancellation: a raised flag stops each engine within one unit of work —
// one node, one decision or conflict, one neuron of set-up.
// -------------------------------------------------------------------------

TEST(PortfolioCancel, RaisedFlagStopsBranchAndBoundBeforeANode) {
  const std::atomic<bool> flag{true};
  milp::BnbOptions o;
  o.cancel = &flag;
  const milp::MilpResult r = milp::BranchAndBound(o).solve(craft_milp().model);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.nodes_explored, 0);
  EXPECT_TRUE(std::isinf(r.best_bound));  // no dual bound was proven
}

TEST(PortfolioCancel, RaisedFlagStopsSatBeforeADecision) {
  const nn::QuantizedNetwork qnet =
      nn::QuantizedNetwork::quantize(craft_net(), 6, 1.0);
  const std::atomic<bool> flag{true};
  smt::QnnVerifierOptions qo;
  qo.solver.cancel = &flag;
  const smt::QnnVerdict v = smt::prove_quantized_output_bound(
      qnet, craft_property(0.0).region.box, 0, 0.3, qo);
  EXPECT_EQ(v.sat, sat::SatResult::kUnknown);
  // Stopped inside the circuit build, before any clause reached a solver.
  EXPECT_EQ(v.cnf_clauses, 0u);
  EXPECT_EQ(v.solver_stats.decisions, 0);

  // And a solver handed a finished formula stops before its first
  // decision.
  sat::Cnf cnf;
  const sat::Var a = cnf.new_var();
  const sat::Var b = cnf.new_var();
  cnf.add_clause({a, b});
  cnf.add_clause({-a, b});
  sat::SolverOptions so;
  so.cancel = &flag;
  sat::Solver solver(so);
  EXPECT_EQ(solver.solve(cnf), sat::SatResult::kUnknown);
  EXPECT_EQ(solver.stats().decisions, 0);
  EXPECT_EQ(solver.stats().conflicts, 0);
}

TEST(PortfolioCancel, FiredTokenSkipsBoundTighteningLps) {
  // A fired token leaves every neuron at its (sound, looser) symbolic
  // seed: no min/max LP pair runs after the stop.
  const OpenQuery q = make_open_query();
  const std::atomic<bool> flag{true};
  const std::vector<LayerBounds> seed =
      symbolic_bounds(q.net, q.prop.region.box);
  const std::vector<LayerBounds> stopped = lp_tightened_bounds(
      q.net, q.prop.region, &seed, CancelToken(Deadline(), &flag));
  ASSERT_EQ(stopped.size(), seed.size());
  for (std::size_t li = 0; li < seed.size(); ++li) {
    for (std::size_t r = 0; r < seed[li].pre.size(); ++r) {
      EXPECT_EQ(stopped[li].pre[r].lo, seed[li].pre[r].lo);
      EXPECT_EQ(stopped[li].pre[r].hi, seed[li].pre[r].hi);
    }
  }
}

TEST(PortfolioCancel, LosersStopOnceInputSplitDecides) {
  // Threshold between the root box's triangle-LP bound and its symbolic
  // bound: input splitting proves it after its first box, while the MILP
  // is still tightening bounds and the SAT engine building its circuit.
  // Six narrow layers keep the MILP's encoding (two LPs per unstable
  // neuron, each layer's from one kept basis) about 10x longer than that
  // one box (113 vs 11 ms on a 4-vCPU x86-64 host, idle or running four
  // copies at once); the 8-30-30-1 open query's encoding took only
  // ~3.6x its first box once LP tightening kept its basis.
  const OpenQuery q = make_open_query({8, 15, 15, 15, 15, 15, 15, 1});
  InputSplitOptions one_box;
  one_box.max_boxes = 1;
  const InputSplitResult first =
      InputSplitVerifier(one_box).maximize(q.net, q.prop.region, q.prop.expr);
  const SymbolicPropagator sym(q.net);
  const double root = SymbolicPropagator::objective_interval(
                          sym.propagate(q.prop.region.box),
                          q.prop.region.box, q.prop.expr.terms)
                          .hi;
  ASSERT_LT(first.upper_bound, root);
  SafetyProperty prop = q.prop;
  prop.threshold = 0.5 * (first.upper_bound + root);

  Stopwatch encode_clock;
  (void)encode_network(q.net, prop.region);
  const double full_encode_s = encode_clock.seconds();

  PortfolioOptions o;
  o.time_limit_seconds = 60.0;
  o.num_workers = 3;
  const PortfolioResult r = PortfolioVerifier(o).prove(q.net, prop);
  ASSERT_EQ(r.verdict, Verdict::kProved);
  ASSERT_EQ(r.engine_name, "input_split");
  for (const EngineOutcome& e : r.engines) {
    if (e.engine == PortfolioEngine::kMilp && e.ran) {
      EXPECT_TRUE(e.cancelled);
      // Stopped in its encoding or before its first node.
      EXPECT_EQ(e.detail.rfind("nodes=0 ", 0), 0u) << e.detail;
    }
    if (e.engine == PortfolioEngine::kSatQuantized && e.ran) {
      EXPECT_TRUE(e.cancelled);
      EXPECT_EQ(e.detail.rfind("probes=", 0), 0u) << e.detail;
      EXPECT_LE(std::stoi(e.detail.substr(7)), 1) << e.detail;
    }
  }
  // The query returned before one uncancelled encoding would have ended.
  EXPECT_LT(r.seconds, full_encode_s) << full_encode_s;
}

// -------------------------------------------------------------------------
// Portfolio + cache: warm answers are the recorded fresh run, bit for bit.
// -------------------------------------------------------------------------

TEST_F(CacheTest, PortfolioWarmHitIsBitwiseEqual) {
  const Network net = craft_net();
  const SafetyProperty prop = craft_property(0.55);

  VerificationCache cache(dir_);
  const PortfolioResult fresh =
      PortfolioVerifier(det_options(), &cache).prove(net, prop);
  EXPECT_FALSE(fresh.from_cache);
  EXPECT_EQ(cache.stats().stores, 1);

  // New cache instance on the same directory: a later session.
  VerificationCache warm_cache(dir_);
  const PortfolioResult warm =
      PortfolioVerifier(det_options(), &warm_cache).prove(net, prop);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm_cache.stats().hits, 1);
  EXPECT_EQ(warm.verdict, fresh.verdict);
  EXPECT_EQ(warm.engine_name, fresh.engine_name);
  EXPECT_EQ(warm.upper_bound, fresh.upper_bound);  // bitwise
  EXPECT_EQ(warm.has_value, fresh.has_value);
  EXPECT_EQ(warm.max_value, fresh.max_value);      // bitwise
}

TEST_F(CacheTest, PortfolioCachesUnknownResults) {
  PortfolioOptions o = det_options();
  o.det_max_boxes = 1;
  o.det_max_nodes = 1;
  o.use_sat = false;
  VerificationCache cache(dir_);
  const PortfolioResult fresh =
      PortfolioVerifier(o, &cache).prove(craft_net(), craft_property(0.60));
  EXPECT_EQ(fresh.verdict, Verdict::kUnknown);
  const PortfolioResult warm =
      PortfolioVerifier(o, &cache).prove(craft_net(), craft_property(0.60));
  EXPECT_TRUE(warm.from_cache);
  EXPECT_TRUE(warm.timed_out);
  EXPECT_EQ(warm.upper_bound, fresh.upper_bound);
}

TEST_F(CacheTest, RetrainMissesAndReverifies) {
  VerificationCache cache(dir_);
  const SafetyProperty prop = craft_property(0.55);
  PortfolioVerifier verifier(det_options(), &cache);
  EXPECT_FALSE(verifier.prove(craft_net(), prop).from_cache);
  EXPECT_TRUE(verifier.prove(craft_net(), prop).from_cache);

  Network retrained = craft_net();
  retrained.layer(1).weights().at(0, 0) = 0.53125;  // still on the grid
  const PortfolioResult r = verifier.prove(retrained, prop);
  EXPECT_FALSE(r.from_cache);  // retrain invalidated the key
  EXPECT_EQ(cache.stats().stores, 2);
}

}  // namespace
}  // namespace safenn::verify
