#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>

#include "common/cancel.hpp"
#include "common/compress.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/numtext.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"

namespace safenn {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(10);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaledMoments) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(12);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto idx = rng.uniform_index(7);
    EXPECT_LT(idx, 7u);
    seen.insert(idx);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(13);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(14);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(15);
  Rng child = parent.split();
  // Child stream should not replicate the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, BernoulliRate) {
  Rng rng(16);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformStaysInRangeAndNonConstant) {
  Rng rng(GetParam());
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  EXPECT_LT(lo, hi);  // stream is not constant
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 42ull, 12345ull,
                                           0xFFFFFFFFFFFFFFFFull));

TEST(Stopwatch, MeasuresNonNegativeTime) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GE(sw.seconds(), 0.0);
  EXPECT_GE(sw.millis(), sw.seconds() * 999.0);
}

TEST(Stopwatch, ResetRestartsClock) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const double before = sw.seconds();
  sw.reset();
  EXPECT_LE(sw.seconds(), before + 1.0);
}

TEST(Deadline, UnlimitedNeverExpires) {
  Deadline d(0.0);
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining()));
}

TEST(Deadline, FarFutureNotExpired) {
  Deadline d(3600.0);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), 3500.0);
}

TEST(Deadline, PastDeadlineExpires) {
  Deadline d(1e-9);
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining(), 0.0);
}

TEST(Deadline, DefaultIsUnlimitedAndSecondsConvert) {
  EXPECT_TRUE(Deadline().unlimited());
  // Options typed Deadline accept a number of seconds; the clock starts
  // at the assignment.
  Deadline d;
  d = 3600.0;
  EXPECT_FALSE(d.unlimited());
  EXPECT_GT(d.remaining(), 3500.0);
  d = 0.0;
  EXPECT_TRUE(d.unlimited());
}

TEST(CancelToken, FlagLatchesCancelledCause) {
  std::atomic<bool> flag{false};
  CancelToken token(Deadline(3600.0), &flag);
  EXPECT_FALSE(token.should_stop());
  EXPECT_EQ(token.cause(), StopCause::kNone);
  flag.store(true);
  EXPECT_TRUE(token.check_now());
  EXPECT_EQ(token.cause(), StopCause::kNone);  // check_now does not latch
  EXPECT_TRUE(token.should_stop());
  EXPECT_EQ(token.cause(), StopCause::kCancelled);
  flag.store(false);
  EXPECT_TRUE(token.should_stop());  // sticky
}

TEST(CancelToken, ExpiredDeadlineStopsOnTheFirstPoll) {
  // No stride: the very first poll after the instant passes stops.
  CancelToken token{Deadline(1e-9)};
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_TRUE(token.check_now());
  EXPECT_TRUE(token.should_stop());
  EXPECT_EQ(token.cause(), StopCause::kDeadline);
  EXPECT_FALSE(CancelToken().should_stop());
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows) {
  CsvWriter w;
  w.set_header({"name", "value"});
  w.add_row({"alpha", "1"});
  w.add_row({"beta", "2"});
  std::ostringstream os;
  w.write(os);
  EXPECT_EQ(os.str(), "name,value\nalpha,1\nbeta,2\n");
  EXPECT_EQ(w.row_count(), 2u);
}

TEST(Csv, RejectsMismatchedRowWidth) {
  CsvWriter w;
  w.set_header({"a", "b"});
  EXPECT_THROW(w.add_row({"only-one"}), Error);
}

TEST(Csv, CellFormatsDoubles) {
  EXPECT_EQ(CsvWriter::cell(1.5), "1.5");
  EXPECT_EQ(CsvWriter::cell(0.125, 3), "0.125");
}

TEST(ErrorHelpers, RequireThrowsWithMessage) {
  EXPECT_NO_THROW(require(true, "ok"));
  try {
    require(false, "broken invariant");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "broken invariant");
  }
}

}  // namespace
}  // namespace safenn

// ---------------------------------------------------------------------------
// Thread-safe logging (appended suite).
// ---------------------------------------------------------------------------
#include <thread>
#include <vector>

#include "common/log.hpp"

namespace safenn {
namespace {

/// Restores level + sink even when an assertion fails mid-test.
struct LogGuard {
  LogGuard(LogLevel level, std::ostream* sink) {
    set_log_level(level);
    set_log_sink(sink);
  }
  ~LogGuard() {
    set_log_sink(nullptr);
    set_log_level(LogLevel::kWarn);
  }
};

TEST(Log, SinkRedirectAndLevelFilter) {
  std::ostringstream sink;
  LogGuard guard(LogLevel::kInfo, &sink);
  log_debug("dropped");
  log_info("kept ", 42);
  log_warn("also kept");
  const std::string text = sink.str();
  EXPECT_EQ(text.find("dropped"), std::string::npos);
  EXPECT_NE(text.find("[safenn INFO] kept 42"), std::string::npos);
  EXPECT_NE(text.find("[safenn WARN] also kept"), std::string::npos);
}

TEST(Log, ConcurrentWritersNeverInterleaveLines) {
  std::ostringstream sink;
  constexpr int kThreads = 8, kPerThread = 250;
  {
    LogGuard guard(LogLevel::kInfo, &sink);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t] {
        for (int i = 0; i < kPerThread; ++i) {
          log_info("thread=", t, " msg=", i, " payload=xxxxxxxxxxxxxxxx");
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  // Every line must be whole: correct prefix, correct suffix, right count.
  std::istringstream in(sink.str());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_TRUE(line.rfind("[safenn INFO] thread=", 0) == 0) << line;
    ASSERT_NE(line.find(" payload=xxxxxxxxxxxxxxxx"), std::string::npos)
        << line;
  }
  EXPECT_EQ(lines, kThreads * kPerThread);
}

}  // namespace
}  // namespace safenn

// --- TaskPool: the repo-wide deterministic execution substrate. ---

#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "common/task_pool.hpp"

namespace safenn {
namespace {

TEST(TaskPool, RunsEveryTaskExactlyOnce) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    TaskPool pool(workers);
    EXPECT_EQ(pool.workers(), workers);
    std::vector<std::atomic<int>> hits(37);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
    }
    pool.run(tasks);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(TaskPool, ReusableAcrossBatchesWithBarrierBetween) {
  TaskPool pool(4);
  std::vector<int> values(16, 0);
  std::vector<std::function<void()>> fill, doubler;
  for (std::size_t i = 0; i < values.size(); ++i) {
    fill.push_back([&values, i] { values[i] = static_cast<int>(i); });
    // Reads what the previous batch wrote: correct only because run()
    // is a full barrier.
    doubler.push_back([&values, i] { values[i] *= 2; });
  }
  for (int round = 0; round < 8; ++round) {
    pool.run(fill);
    pool.run(doubler);
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(values[i], static_cast<int>(2 * i)) << "round " << round;
    }
  }
}

TEST(TaskPool, ZeroWorkersClampedToOne) {
  TaskPool pool(0);
  EXPECT_EQ(pool.workers(), 1u);
  int ran = 0;
  pool.run({[&] { ++ran; }});
  EXPECT_EQ(ran, 1);
}

TEST(TaskPool, EmptyBatchIsANoOp) {
  TaskPool pool(2);
  pool.run({});  // must not hang waiting for completions
}

TEST(TaskPool, RethrowsLowestIndexedFailure) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    TaskPool pool(workers);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i) {
      tasks.push_back([i] {
        if (i == 3 || i == 6) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
    }
    try {
      pool.run(tasks);
      FAIL() << "expected a rethrow (workers=" << workers << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3") << "workers=" << workers;
    }
    // The pool must stay usable after a failed batch.
    int ran = 0;
    pool.run({[&] { ++ran; }});
    EXPECT_EQ(ran, 1);
  }
}

// --- Rng stream independence: the parallel generation contract. ---

TEST(Rng, StreamSeedIsPureFunctionOfBaseAndIndex) {
  // Distinct, draw-independent seeds per index; recomputing in any order
  // gives the same values.
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t s = Rng::stream_seed(7, i);
    EXPECT_EQ(s, Rng::stream_seed(7, i));
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_NE(Rng::stream_seed(7, 0), Rng::stream_seed(8, 0));
}

TEST(Rng, DerivedStreamsIndependentOfDrawInterleaving) {
  // Two schedules over the same per-index streams: (a) drain stream 0
  // fully, then stream 1; (b) alternate draws. Every stream must produce
  // the same sequence either way — workers may interleave arbitrarily.
  Rng a0(Rng::stream_seed(42, 0)), a1(Rng::stream_seed(42, 1));
  std::vector<std::uint64_t> seq0, seq1;
  for (int i = 0; i < 100; ++i) seq0.push_back(a0.next_u64());
  for (int i = 0; i < 100; ++i) seq1.push_back(a1.next_u64());

  Rng b0(Rng::stream_seed(42, 0)), b1(Rng::stream_seed(42, 1));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(b0.next_u64(), seq0[static_cast<std::size_t>(i)]);
    EXPECT_EQ(b1.next_u64(), seq1[static_cast<std::size_t>(i)]);
  }
}

// --- safenn-pack codec: the bitwise round-trip is the whole contract. ---

TEST(Compress, RoundTripsCanonicalNumericText) {
  // The shape registry payloads actually have: setprecision(17) doubles
  // and small ints, whitespace separated, with a few keyword literals.
  std::ostringstream os;
  os.precision(17);
  Rng rng(21);
  os << "layer 0 dense 4 3 relu\n";
  for (int i = 0; i < 200; ++i) {
    os << rng.uniform(-1, 1) << (i % 5 == 4 ? '\n' : ' ');
  }
  os << "\nquantized-weights 128\n";
  for (int i = 0; i < 128; ++i) {
    os << static_cast<int>(rng.next_u64() % 255) - 127 << ' ';
  }
  os << "\nend\n";
  const std::string text = os.str();

  const std::string blob = compress_text(text);
  EXPECT_EQ(decompress_text(blob), text);
  // Doubles dominate; binary packing must at least halve them.
  EXPECT_LT(blob.size(), text.size() / 2) << blob.size() << "/" << text.size();
  // Deterministic: same text, same bytes (content addressing upstream).
  EXPECT_EQ(compress_text(text), blob);
}

TEST(Compress, ArbitraryTextRoundTripsViaLiteralRuns) {
  const std::string cases[] = {
      "",
      "no numbers here at all",
      "almost 1.5e but-not +.e3 nan inf 1e999 007 1.10\n",  // reprint fails
      std::string("\x00\xff\x7f binary\n\n\n", 12),
      "-0 0.5 -1e-300 9223372036854775807 -9223372036854775808",
  };
  for (const std::string& text : cases) {
    EXPECT_EQ(decompress_text(compress_text(text)), text) << text;
  }
}

TEST(Compress, MalformedBlobsThrowInsteadOfYieldingWrongText) {
  const std::string blob = compress_text("0.123456789012345678 42 end\n");
  EXPECT_THROW(decompress_text("not-a-pack-blob"), Error);
  EXPECT_THROW(decompress_text(blob.substr(0, blob.size() - 3)), Error);
  // Declared-size mismatch: graft a wrong varint after the magic.
  std::string resized = blob;
  resized[kPackMagic.size()] ^= 0x01;
  EXPECT_THROW(decompress_text(resized), Error);
}

TEST(Compress, SubnormalTokensStayLiteral) {
  // The pack format's first encoder parsed with strtod, which reports
  // subnormals as range errors and so left them literal. Packing them
  // now would change the bytes of every blob that holds one.
  const std::string subnormal = "4.9406564584124654e-324";
  const std::string normal = "0.12345678901234568";
  const std::string text = subnormal + ' ' + normal + '\n';
  const std::string blob = compress_text(text);
  EXPECT_NE(blob.find(subnormal), std::string::npos);
  EXPECT_EQ(blob.find(normal), std::string::npos);
  EXPECT_EQ(decompress_text(blob), text);
}

// --- numtext: the exact number codec every canonical format shares. ---

std::string printf_g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <class T>
std::string written(T v) {
  char buf[numtext::kMaxChars];
  return std::string(buf, numtext::write(buf, v));
}

TEST(NumText, EdgeValuesMatchPrintf) {
  const double inf = std::numeric_limits<double>::infinity();
  const double edges[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          std::bit_cast<double>(0x000fffffffffffffull),
                          DBL_MIN,
                          -DBL_MIN,
                          DBL_MAX,
                          -DBL_MAX,
                          0.1,
                          1.0 / 3.0,
                          1e21,
                          1e-5,
                          9007199254740993.0,  // 2^53 + 1 (rounds to 2^53)
                          std::ldexp(1.0, 53) + 2.0,
                          123456789012345678.0,
                          inf,
                          -inf};
  for (const double v : edges) {
    EXPECT_EQ(written(v), printf_g17(v)) << printf_g17(v);
    double back = 0.0;
    ASSERT_TRUE(numtext::parse(written(v), back)) << written(v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v))
        << written(v);
  }

  const long long ints[] = {0,
                            1,
                            -1,
                            42,
                            -9007199254740993LL,
                            std::numeric_limits<long long>::max(),
                            std::numeric_limits<long long>::min()};
  for (const long long v : ints) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", v);
    EXPECT_EQ(written(static_cast<std::int64_t>(v)), buf);
    std::int64_t back = 0;
    ASSERT_TRUE(numtext::parse(written(static_cast<std::int64_t>(v)), back));
    EXPECT_EQ(back, v);
  }
  const std::size_t big = std::numeric_limits<std::size_t>::max();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%zu", big);
  EXPECT_EQ(written(big), buf);
}

TEST(NumText, RandomBitPatternsMatchPrintfAndParseBackBitwise) {
  Rng rng(2026);
  int mismatches = 0;
  int checked = 0;
  while (checked < 120000) {
    const std::uint64_t bits = rng.next_u64();
    const double v = std::bit_cast<double>(bits);
    if (!std::isfinite(v)) continue;
    ++checked;
    const std::string text = written(v);
    double back = 0.0;
    if (text != printf_g17(v) || !numtext::parse(text, back) ||
        std::bit_cast<std::uint64_t>(back) != bits) {
      if (++mismatches <= 5) ADD_FAILURE() << text << " vs " << printf_g17(v);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(NumText, ParseTakesWholeTokensOnly) {
  double d = 7.0;
  for (const char* bad : {"", " 1", "1 ", "+1", "1.5abc", "0x1p3", "1e400",
                          "--1", "1,5"}) {
    EXPECT_FALSE(numtext::parse(bad, d)) << '"' << bad << '"';
  }
  EXPECT_EQ(d, 7.0);  // failed parses leave the target alone
  std::int64_t i = 7;
  for (const char* bad : {"", "1.0", "+1", "9223372036854775808", "1e3"}) {
    EXPECT_FALSE(numtext::parse(bad, i)) << '"' << bad << '"';
  }
  std::size_t u = 7;
  EXPECT_FALSE(numtext::parse("-1", u));
  EXPECT_TRUE(numtext::parse("-2.5e-3", d));
  EXPECT_EQ(d, -2.5e-3);
}

TEST(NumText, WriterSinksYieldTheSameBytes) {
  std::string text;
  Fnv1a64 hash;
  numtext::Writer(text) << "layer " << std::size_t{3} << ' ' << -0.1 << '\n';
  numtext::Writer(hash) << "layer " << std::size_t{3} << ' ' << -0.1 << '\n';
  EXPECT_EQ(text, "layer 3 -0.10000000000000001\n");
  EXPECT_EQ(hash.digest(), fnv1a64(text));
}

TEST(NumText, ReaderDemandsTheWrittenLayout) {
  {
    numtext::Reader r("layer 3 0.5\n7\n");
    std::size_t n = 0;
    double v = 0.0;
    int k = 0;
    EXPECT_TRUE(r.skip("layer "));
    EXPECT_TRUE(r.read(n, ' '));
    EXPECT_TRUE(r.read(v, '\n'));
    EXPECT_TRUE(r.read(k, '\n'));
    EXPECT_TRUE(r.rest().empty());
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(v, 0.5);
    EXPECT_EQ(k, 7);
  }
  double v = 0.0;
  // Wrong separator, doubled or foreign whitespace, glued bytes, no
  // terminator, non-finite values.
  for (const char* bad : {"0.5 ", "0.5\t\n", " 0.5\n", "0.5\r\n", "0.5x\n",
                          "0.5", "inf\n", "-nan\n", "\n"}) {
    numtext::Reader r(bad);
    EXPECT_FALSE(r.read(v, '\n')) << '"' << bad << '"';
  }
  EXPECT_TRUE(numtext::Reader("a\n").word(' ').empty());
  // Declared counts are bounded by the bytes left.
  numtext::Reader r("1 2 3\n");
  EXPECT_TRUE(r.room_for(3));
  EXPECT_FALSE(r.room_for(4));
  EXPECT_FALSE(r.room_for(std::numeric_limits<std::size_t>::max(), 2));
}

TEST(Rng, SplitChildrenIndependentOfDrawInterleaving) {
  // split() fixes each child's state at split time: a copy of the child
  // drawn later, interleaved with its sibling, replays the same stream.
  Rng parent(99);
  Rng c0 = parent.split();
  Rng c1 = parent.split();
  Rng c0_copy = c0;
  Rng c1_copy = c1;

  std::vector<std::uint64_t> s0, s1;
  for (int i = 0; i < 50; ++i) s0.push_back(c0.next_u64());
  for (int i = 0; i < 50; ++i) s1.push_back(c1.next_u64());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(c0_copy.next_u64(), s0[static_cast<std::size_t>(i)]);
    EXPECT_EQ(c1_copy.next_u64(), s1[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace safenn
