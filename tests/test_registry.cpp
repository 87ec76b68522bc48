#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "highway/safety_rules.hpp"
#include "nn/serialize.hpp"
#include "registry/live_model.hpp"
#include "registry/registry.hpp"

namespace safenn::registry {
namespace {

namespace fs = std::filesystem;
using linalg::Vector;

// -------------------------------------------------------------------------
// Fixtures: hand-crafted predictors (identity layer, no training) over the
// highway scene encoding, so artifacts are cheap yet realistically shaped.
// -------------------------------------------------------------------------

core::TrainedPredictor make_craft_predictor(std::uint64_t seed = 11) {
  core::TrainedPredictor p;
  p.head = nn::MdnHead(1, highway::kActionDims);
  nn::DenseLayer layer(highway::kSceneFeatures, p.head.raw_output_size(),
                       nn::Activation::kIdentity);
  Rng rng(seed);
  const std::size_t lat = p.head.mean_index(0, highway::kActionLateral);
  layer.biases()[lat] = 1.0;
  layer.biases()[p.head.mean_index(0, highway::kActionAccel)] = -0.25;
  for (std::size_t i = 0; i < 16; ++i) {
    layer.weights().at(lat, i) = rng.uniform(-0.6, 0.6);
  }
  nn::Network net;
  net.add_layer(std::move(layer));
  p.network = std::move(net);
  return p;
}

MonitorConfig make_monitor_config(double threshold = 1.0) {
  highway::SceneEncoder encoder;
  MonitorConfig config;
  config.region = highway::make_vehicle_on_left_region(encoder);
  config.lateral_threshold = threshold;
  return config;
}

ModelArtifact make_test_artifact(const std::string& version,
                                 std::uint64_t seed = 11,
                                 double threshold = 1.0) {
  return make_artifact(version, make_craft_predictor(seed),
                       make_monitor_config(threshold));
}

std::vector<Vector> make_probe_scenes(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> scenes;
  scenes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Vector x(highway::kSceneFeatures);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    scenes.push_back(std::move(x));
  }
  return scenes;
}

std::string artifact_text(const ModelArtifact& artifact) {
  std::ostringstream os;
  save_artifact(os, artifact);
  return os.str();
}

RegistryError::Kind load_kind(const std::string& text) {
  std::istringstream is(text);
  try {
    load_artifact(is);
  } catch (const RegistryError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected RegistryError";
  return RegistryError::Kind::kIo;
}

/// Fresh scratch directory per test, removed on teardown.
class RegistryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::path(::testing::TempDir()) /
            (std::string("safenn_registry_") + info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

// -------------------------------------------------------------------------
// Artifact round trip and content hashing.
// -------------------------------------------------------------------------

TEST(Artifact, RoundTripPreservesEverything) {
  ModelArtifact original = make_test_artifact("v1", 11, 0.75);
  std::stringstream ss;
  const std::uint64_t hash = save_artifact(ss, original);
  EXPECT_NE(hash, 0u);

  const ModelArtifact loaded = load_artifact(ss);
  EXPECT_EQ(loaded.version, "v1");
  EXPECT_EQ(loaded.content_hash, hash);
  EXPECT_EQ(loaded.head.components(), original.head.components());
  EXPECT_EQ(loaded.head.dims(), original.head.dims());
  EXPECT_DOUBLE_EQ(loaded.monitor.lateral_threshold, 0.75);
  ASSERT_EQ(loaded.monitor.region.box.size(),
            original.monitor.region.box.size());
  for (std::size_t i = 0; i < loaded.monitor.region.box.size(); ++i) {
    EXPECT_EQ(loaded.monitor.region.box[i].lo,
              original.monitor.region.box[i].lo);
    EXPECT_EQ(loaded.monitor.region.box[i].hi,
              original.monitor.region.box[i].hi);
  }
  ASSERT_EQ(loaded.monitor.region.constraints.size(),
            original.monitor.region.constraints.size());
  for (std::size_t i = 0; i < loaded.monitor.region.constraints.size(); ++i) {
    const auto& a = loaded.monitor.region.constraints[i];
    const auto& b = original.monitor.region.constraints[i];
    EXPECT_EQ(a.terms, b.terms);
    EXPECT_EQ(a.relation, b.relation);
    EXPECT_EQ(a.rhs, b.rhs);
  }

  // The materialized predictor is bitwise identical on probes: the
  // setprecision(17) payload round-trips doubles exactly.
  const core::TrainedPredictor p0 = original.predictor();
  const core::TrainedPredictor p1 = loaded.predictor();
  for (const Vector& x : make_probe_scenes(8, 3)) {
    const Vector y0 = p0.network.forward(x);
    const Vector y1 = p1.network.forward(x);
    ASSERT_EQ(y0.size(), y1.size());
    for (std::size_t d = 0; d < y0.size(); ++d) EXPECT_EQ(y0[d], y1[d]);
  }
}

TEST(Artifact, SerializationIsDeterministic) {
  const ModelArtifact artifact = make_test_artifact("v1");
  EXPECT_EQ(artifact_text(artifact), artifact_text(artifact));

  // Any semantic change moves the hash.
  ModelArtifact other = make_test_artifact("v1", 12);
  std::stringstream a, b;
  EXPECT_NE(save_artifact(a, artifact), save_artifact(b, other));
}

TEST(Artifact, MakeArtifactValidates) {
  const core::TrainedPredictor predictor = make_craft_predictor();
  EXPECT_THROW(make_artifact("", predictor, make_monitor_config()), Error);
  EXPECT_THROW(make_artifact("two words", predictor, make_monitor_config()),
               Error);
  MonitorConfig narrow = make_monitor_config();
  narrow.region.box.pop_back();  // dims mismatch vs network input
  EXPECT_THROW(make_artifact("v1", predictor, narrow), Error);
  // A side constraint on an input the region does not have.
  const int width = static_cast<int>(make_monitor_config().region.dims());
  for (const int idx : {-1, width}) {
    MonitorConfig outside = make_monitor_config();
    outside.region.constraints.push_back(
        verify::InputConstraint{{{idx, 1.0}}, lp::Relation::kLe, 0.0});
    EXPECT_THROW(make_artifact("v1", predictor, outside), Error) << idx;
  }
}

// -------------------------------------------------------------------------
// Rejection paths: corrupt, truncated, tampered, mismatched artifacts are
// refused with typed errors — never partially loaded.
// -------------------------------------------------------------------------

TEST(Artifact, RejectsCorruptTruncatedAndForeignInputs) {
  const std::string text = artifact_text(make_test_artifact("v1"));
  ASSERT_EQ(text.rfind("safenn-artifact v1\n", 0), 0u);

  // Flipping one payload digit breaks the recorded content hash.
  {
    std::string corrupt = text;
    const std::size_t pos = corrupt.find("monitor-threshold ") + 18;
    corrupt[pos] = corrupt[pos] == '2' ? '3' : '2';
    EXPECT_EQ(load_kind(corrupt), RegistryError::Kind::kHashMismatch);
  }

  // Truncation loses the artifact-checksum trailer.
  for (const std::size_t keep :
       {text.find('\n') + 1, text.size() / 3, text.size() / 2}) {
    EXPECT_EQ(load_kind(text.substr(0, keep)),
              RegistryError::Kind::kBadArtifact)
        << "kept " << keep;
  }

  // Not an artifact / unknown format version.
  EXPECT_EQ(load_kind("some random file\n"),
            RegistryError::Kind::kBadArtifact);
  {
    std::string skewed = text;
    skewed.replace(0, skewed.find('\n'), "safenn-artifact v9");
    EXPECT_EQ(load_kind(skewed), RegistryError::Kind::kBadArtifact);
  }
}

TEST(Artifact, RejectsInternallyInconsistentPayloads) {
  // A correctly checksummed artifact whose head layout disagrees with the
  // network must still be refused: the hash gate is necessary, not
  // sufficient.
  ModelArtifact artifact = make_test_artifact("v1");
  artifact.head = nn::MdnHead(2, highway::kActionDims);  // network is K=1
  EXPECT_EQ(load_kind(artifact_text(artifact)),
            RegistryError::Kind::kBadArtifact);

  // A monitor region whose side constraint names an input outside its
  // box would throw inside a serving worker on the first in-box scene.
  const int width = static_cast<int>(artifact.monitor.region.dims());
  for (const int idx : {-1, width}) {
    ModelArtifact outside = make_test_artifact("v1");
    outside.monitor.region.constraints.push_back(
        verify::InputConstraint{{{idx, 1.0}}, lp::Relation::kLe, 0.0});
    EXPECT_EQ(load_kind(artifact_text(outside)),
              RegistryError::Kind::kBadArtifact)
        << idx;
  }

  // Tampering with the embedded network text (which re-checksums cleanly
  // at the artifact level) is caught by the inner network checksum.
  ModelArtifact ok = make_test_artifact("v1");
  std::string payload_tamper = artifact_text(ok);
  // Rebuild: corrupt a network parameter but re-stamp the outer hash so
  // only the inner gate can catch it.
  const std::size_t net_pos = payload_tamper.find("safenn-network v2");
  ASSERT_NE(net_pos, std::string::npos);
  const std::size_t digit =
      payload_tamper.find_first_of("123456789",
                                   payload_tamper.find("layer ", net_pos));
  ASSERT_NE(digit, std::string::npos);
  payload_tamper[digit] = payload_tamper[digit] == '9' ? '8' : '9';
  const std::size_t header_end = payload_tamper.find('\n');
  const std::size_t marker = payload_tamper.rfind("\nartifact-checksum ");
  ASSERT_NE(marker, std::string::npos);
  const std::string payload = payload_tamper.substr(
      header_end + 1, marker - header_end);
  const std::string restamped = "safenn-artifact v1\n" + payload +
                                "artifact-checksum " +
                                hex64(fnv1a64(payload)) + '\n';
  EXPECT_EQ(load_kind(restamped), RegistryError::Kind::kBadArtifact);
}

// -------------------------------------------------------------------------
// Directory registry.
// -------------------------------------------------------------------------

TEST_F(RegistryFixture, PublishListLoadRoundTrip) {
  ModelRegistry registry(dir_);
  EXPECT_TRUE(registry.list().empty());
  EXPECT_FALSE(registry.contains("v1"));

  ModelArtifact v1 = make_test_artifact("v1", 11);
  ModelArtifact v2 = make_test_artifact("v2", 12);
  const std::string path = registry.save(v1);
  registry.save(v2);
  EXPECT_NE(v1.content_hash, 0u);  // save assigns the hash
  EXPECT_TRUE(fs::exists(path));
  EXPECT_EQ(path, registry.path_for("v1"));

  EXPECT_TRUE(registry.contains("v1"));
  EXPECT_TRUE(registry.contains("v2"));
  EXPECT_EQ(registry.list(), (std::vector<std::string>{"v1", "v2"}));

  const ModelArtifact loaded = registry.load("v2");
  EXPECT_EQ(loaded.version, "v2");
  EXPECT_EQ(loaded.content_hash, v2.content_hash);
}

TEST_F(RegistryFixture, VersionsAreImmutableAndMissingIsTyped) {
  ModelRegistry registry(dir_);
  ModelArtifact v1 = make_test_artifact("v1");
  registry.save(v1);

  ModelArtifact again = make_test_artifact("v1", 99);
  try {
    registry.save(again);
    FAIL() << "duplicate version must be refused";
  } catch (const RegistryError& e) {
    EXPECT_EQ(e.kind(), RegistryError::Kind::kDuplicateVersion);
  }

  try {
    registry.load("v404");
    FAIL() << "missing version must be kNotFound";
  } catch (const RegistryError& e) {
    EXPECT_EQ(e.kind(), RegistryError::Kind::kNotFound);
  }
}

TEST_F(RegistryFixture, LoadRejectsRenamedArtifact) {
  // A valid artifact parked under the wrong filename must not load as
  // that version: the declared version is part of the validation.
  ModelRegistry registry(dir_);
  ModelArtifact v1 = make_test_artifact("v1");
  registry.save(v1);
  fs::copy_file(registry.path_for("v1"), registry.path_for("v7"));
  try {
    registry.load("v7");
    FAIL() << "renamed artifact must be refused";
  } catch (const RegistryError& e) {
    EXPECT_EQ(e.kind(), RegistryError::Kind::kBadArtifact);
  }
}

TEST_F(RegistryFixture, LoadAllQuarantinesDamagedFiles) {
  ModelRegistry registry(dir_);
  ModelArtifact v1 = make_test_artifact("v1", 11);
  ModelArtifact v2 = make_test_artifact("v2", 12);
  ModelArtifact v3 = make_test_artifact("v3", 13);
  registry.save(v1);
  registry.save(v2);
  registry.save(v3);

  // Corrupt v2 in place (flip one payload byte) and truncate v3.
  {
    std::ifstream is(registry.path_for("v2"));
    std::ostringstream buffer;
    buffer << is.rdbuf();
    std::string text = buffer.str();
    const std::size_t pos = text.find("monitor-threshold ") + 18;
    text[pos] = text[pos] == '2' ? '3' : '2';
    std::ofstream os(registry.path_for("v2"));
    os << text;
  }
  {
    std::ifstream is(registry.path_for("v3"));
    std::ostringstream buffer;
    buffer << is.rdbuf();
    const std::string text = buffer.str();
    std::ofstream os(registry.path_for("v3"));
    os << text.substr(0, text.size() / 2);
  }

  const ModelRegistry::ScanResult scan = registry.load_all();
  ASSERT_EQ(scan.artifacts.size(), 1u);
  EXPECT_EQ(scan.artifacts[0].version, "v1");
  ASSERT_EQ(scan.rejected.size(), 2u);
  EXPECT_NE(scan.rejected[0].find("hash-mismatch"), std::string::npos)
      << scan.rejected[0];
  EXPECT_NE(scan.rejected[1].find("bad-artifact"), std::string::npos)
      << scan.rejected[1];
}

// -------------------------------------------------------------------------
// Packed (v3) encoding in the directory registry.
// -------------------------------------------------------------------------

TEST_F(RegistryFixture, PackedArtifactRoundTripsBitwise) {
  ModelRegistry registry(dir_);
  ModelArtifact v1 = make_test_artifact("v1");
  const std::string canonical = artifact_text(v1);
  const std::string path = registry.save(v1, ArtifactEncoding::kPacked);
  EXPECT_EQ(path, registry.path_for("v1", ArtifactEncoding::kPacked));
  EXPECT_EQ(registry.path_for("v1"), path);  // resolves to the packed file
  EXPECT_TRUE(registry.contains("v1"));

  // The canonical (uncompressed) serialization and the content hash are
  // encoding-independent: what comes back is bitwise what went in.
  const ModelArtifact loaded = registry.load("v1");
  EXPECT_EQ(artifact_text(loaded), canonical);
  EXPECT_EQ(loaded.content_hash, v1.content_hash);
  EXPECT_NE(loaded.content_hash, 0u);
}

TEST_F(RegistryFixture, SaveRefusesRepublishingUnderOtherEncoding) {
  // Immutability is per VERSION, not per (version, encoding): a packed
  // re-publication of an existing plain version must be refused.
  ModelRegistry registry(dir_);
  ModelArtifact v1 = make_test_artifact("v1");
  registry.save(v1);
  ModelArtifact again = make_test_artifact("v1", 99);
  try {
    registry.save(again, ArtifactEncoding::kPacked);
    FAIL() << "cross-encoding duplicate must be refused";
  } catch (const RegistryError& e) {
    EXPECT_EQ(e.kind(), RegistryError::Kind::kDuplicateVersion);
  }
}

TEST_F(RegistryFixture, LoadAllAcceptsMixedEncodingsAndQuarantinesDamage) {
  // A realistic mixed directory: plain v1 + packed v2 (healthy), packed
  // v3 truncated mid-blob, packed v4 with a forged checksum, and v5
  // present under BOTH encodings. Healthy artifacts load regardless of
  // encoding; each damaged/ambiguous one is quarantined with its typed
  // kind, never silently skipped or half-loaded.
  ModelRegistry registry(dir_);
  ModelArtifact v1 = make_test_artifact("v1", 11);
  ModelArtifact v2 = make_test_artifact("v2", 12);
  ModelArtifact v3 = make_test_artifact("v3", 13);
  ModelArtifact v4 = make_test_artifact("v4", 14);
  ModelArtifact v5 = make_test_artifact("v5", 15);
  registry.save(v1);
  registry.save(v2, ArtifactEncoding::kPacked);
  registry.save(v3, ArtifactEncoding::kPacked);
  registry.save(v4, ArtifactEncoding::kPacked);
  registry.save(v5);
  // Forge the dual-encoding state behind the registry's back (save()
  // itself refuses it — see SaveRefusesRepublishingUnderOtherEncoding).
  save_artifact_file(registry.path_for("v5", ArtifactEncoding::kPacked), v5,
                     ArtifactEncoding::kPacked);

  const auto read_file = [](const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
  };
  const auto write_file = [](const std::string& path,
                             const std::string& bytes) {
    std::ofstream os(path, std::ios::binary);
    os << bytes;
  };
  {  // Truncate v3 mid-blob: malformed pack stream -> kBadArtifact.
    const std::string path = registry.path_for("v3");
    const std::string bytes = read_file(path);
    write_file(path, bytes.substr(0, bytes.size() / 2));
  }
  {  // Flip one digit of v4's checksum: the blob decompresses fine but
     // the declared hash no longer matches -> kHashMismatch.
    const std::string path = registry.path_for("v4");
    std::string bytes = read_file(path);
    const std::size_t pos = bytes.find("artifact-checksum ") + 18;
    bytes[pos] = bytes[pos] == 'a' ? 'b' : 'a';
    write_file(path, bytes);
  }

  EXPECT_EQ(registry.list(),
            (std::vector<std::string>{"v1", "v2", "v3", "v4", "v5"}));
  const ModelRegistry::ScanResult scan = registry.load_all();
  ASSERT_EQ(scan.artifacts.size(), 2u);
  EXPECT_EQ(scan.artifacts[0].version, "v1");
  EXPECT_EQ(scan.artifacts[1].version, "v2");
  EXPECT_EQ(scan.artifacts[1].content_hash, v2.content_hash);
  ASSERT_EQ(scan.rejected.size(), 3u);
  EXPECT_NE(scan.rejected[0].find("bad-artifact"), std::string::npos)
      << scan.rejected[0];
  EXPECT_NE(scan.rejected[1].find("hash-mismatch"), std::string::npos)
      << scan.rejected[1];
  EXPECT_NE(scan.rejected[2].find("duplicate-version"), std::string::npos)
      << scan.rejected[2];
}

// -------------------------------------------------------------------------
// LiveModel: atomic hot-swap slot.
// -------------------------------------------------------------------------

TEST(LiveModel, SnapshotFromArtifactOwnsBitwiseIdenticalModel) {
  const core::TrainedPredictor predictor = make_craft_predictor();
  ModelArtifact artifact =
      make_artifact("v1", predictor, make_monitor_config(0.5));
  {
    std::stringstream ss;
    artifact.content_hash = save_artifact(ss, artifact);
  }
  const ModelSnapshot snapshot(artifact, linalg::KernelBackend::kReference);
  EXPECT_EQ(snapshot.version(), "v1");
  EXPECT_EQ(snapshot.backend(), linalg::KernelBackend::kReference);
  EXPECT_EQ(snapshot.content_hash(), artifact.content_hash);
  EXPECT_NE(snapshot.content_hash(), 0u);
  for (const Vector& x : make_probe_scenes(6, 5)) {
    const Vector y0 = predictor.network.forward(x);
    const Vector y1 = snapshot.predictor().network.forward(x);
    for (std::size_t d = 0; d < y0.size(); ++d) EXPECT_EQ(y0[d], y1[d]);
  }
  EXPECT_EQ(snapshot.monitor().safe_action().size(), highway::kActionDims);
}

TEST(LiveModel, SwapPublishesNextAndReturnsPrevious) {
  LiveModel live(std::make_shared<const ModelSnapshot>(
      make_test_artifact("v1", 11), linalg::KernelBackend::kReference));
  EXPECT_EQ(live.current()->version(), "v1");
  EXPECT_EQ(live.swap_count(), 0u);

  const ModelArtifact v2 = make_test_artifact("v2", 12);
  const std::shared_ptr<const ModelSnapshot> held = live.current();
  const std::shared_ptr<const ModelSnapshot> previous = live.swap(
      std::make_shared<const ModelSnapshot>(
          v2, linalg::KernelBackend::kReference));
  EXPECT_EQ(previous->version(), "v1");
  EXPECT_EQ(live.current()->version(), "v2");
  EXPECT_EQ(live.swap_count(), 1u);
  // A reader that pinned the old snapshot before the swap still holds a
  // fully usable model — RCU semantics.
  EXPECT_EQ(held->version(), "v1");
  EXPECT_EQ(held->predictor().network.input_size(),
            highway::kSceneFeatures);
}

TEST(LiveModel, ConcurrentReadersNeverSeeATornSnapshot) {
  // Writers swap between two artifacts while readers hammer current().
  // Every observed snapshot must be internally consistent: its version
  // must match the content hash and model it carries.
  ModelArtifact a = make_test_artifact("va", 21);
  ModelArtifact b = make_test_artifact("vb", 22);
  {
    std::stringstream sa, sb;
    a.content_hash = save_artifact(sa, a);
    b.content_hash = save_artifact(sb, b);
    ASSERT_NE(a.content_hash, b.content_hash);
  }
  LiveModel live(std::make_shared<const ModelSnapshot>(
      a, linalg::KernelBackend::kReference));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::set<std::string> seen_versions;
  std::mutex seen_mu;
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      Vector probe(highway::kSceneFeatures);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<const ModelSnapshot> snap = live.current();
        ASSERT_TRUE(snap != nullptr);
        const bool is_a = snap->version() == "va";
        ASSERT_TRUE(is_a || snap->version() == "vb") << snap->version();
        // The snapshot's model must be the one its version promises.
        const Vector y = snap->predictor().network.forward(probe);
        const std::uint64_t expected =
            is_a ? a.content_hash : b.content_hash;
        ASSERT_EQ(snap->content_hash(), expected);
        ASSERT_EQ(y.size(), snap->predictor().head.raw_output_size());
        reads.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(seen_mu);
        seen_versions.insert(snap->version());
      }
    });
  }

  for (int i = 0; i < 50; ++i) {
    const ModelArtifact& next = i % 2 == 0 ? b : a;
    live.swap(std::make_shared<const ModelSnapshot>(
        next, linalg::KernelBackend::kReference));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(live.swap_count(), 50u);
  EXPECT_GT(reads.load(), 0u);
  // With 50 paced swaps the readers must have observed both versions.
  EXPECT_EQ(seen_versions.size(), 2u);
}

// -------------------------------------------------------------------------
// Quantized payload: one immutable file, both representations.
// -------------------------------------------------------------------------

TEST(Artifact, QuantizedPayloadRoundTripsBitwise) {
  ModelArtifact original = make_test_artifact("vq", 11, 0.75);
  const std::uint64_t qhash = attach_quantized(original, 8, 4.0);
  EXPECT_NE(qhash, 0u);
  ASSERT_TRUE(original.quantized.has_value());
  EXPECT_EQ(original.quantized->content_hash, qhash);

  const std::string text = artifact_text(original);
  // Quantized artifacts use format v2; the quantized section precedes
  // the network and is separately checksummed (content-addressed).
  EXPECT_EQ(text.rfind("safenn-artifact v2\n", 0), 0u);
  EXPECT_NE(text.find("quantized-checksum "), std::string::npos);

  std::istringstream is(text);
  const ModelArtifact loaded = load_artifact(is);
  ASSERT_TRUE(loaded.quantized.has_value());
  EXPECT_EQ(loaded.quantized->content_hash, qhash);
  EXPECT_EQ(loaded.quantized->input_limit, 4.0);
  const nn::QuantizedNetwork& q0 = original.quantized->network;
  const nn::QuantizedNetwork& q1 = loaded.quantized->network;
  ASSERT_EQ(q1.num_layers(), q0.num_layers());
  EXPECT_EQ(q1.frac_bits(), q0.frac_bits());
  for (std::size_t li = 0; li < q0.num_layers(); ++li) {
    EXPECT_EQ(q1.layer(li).weights, q0.layer(li).weights);
    EXPECT_EQ(q1.layer(li).biases, q0.layer(li).biases);
  }
  // The integer semantics survive the round trip bit for bit.
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::int64_t> in(q0.input_size());
    for (auto& v : in) v = q0.to_fixed(rng.uniform(-4.0, 4.0));
    EXPECT_EQ(q0.forward_fixed(in), q1.forward_fixed(in));
  }
}

TEST(Artifact, QuantizedWeightsAreContentAddressed) {
  // Same float network, same frac_bits -> same quantized hash; any
  // semantic difference moves it.
  ModelArtifact a = make_test_artifact("va", 11);
  ModelArtifact b = make_test_artifact("vb", 11);
  ModelArtifact c = make_test_artifact("vc", 12);
  const std::uint64_t ha = attach_quantized(a, 8, 4.0);
  const std::uint64_t hb = attach_quantized(b, 8, 4.0);
  const std::uint64_t hc = attach_quantized(c, 8, 4.0);
  const std::uint64_t ha6 = [&] {
    ModelArtifact a6 = make_test_artifact("va6", 11);
    return attach_quantized(a6, 6, 4.0);
  }();
  EXPECT_EQ(ha, hb);  // version label is not part of the content address
  EXPECT_NE(ha, hc);
  EXPECT_NE(ha, ha6);
}

TEST(Artifact, CorruptQuantizedSectionIsRejectedAfterRestamp) {
  // Corrupt one quantized weight, then re-stamp the OUTER artifact hash
  // so only the quantized content address can catch the tamper.
  ModelArtifact artifact = make_test_artifact("vq", 11);
  attach_quantized(artifact, 8, 4.0);
  std::string text = artifact_text(artifact);
  const std::size_t qpos = text.find("quantized-input-limit ");
  ASSERT_NE(qpos, std::string::npos);
  const std::size_t digit = text.find_first_of("123456789", qpos + 21);
  ASSERT_NE(digit, std::string::npos);
  text[digit] = text[digit] == '9' ? '8' : '9';
  const std::size_t header_end = text.find('\n');
  const std::size_t marker = text.rfind("\nartifact-checksum ");
  ASSERT_NE(marker, std::string::npos);
  const std::string payload = text.substr(header_end + 1,
                                          marker - header_end);
  const std::string restamped = "safenn-artifact v2\n" + payload +
                                "artifact-checksum " +
                                hex64(fnv1a64(payload)) + '\n';
  EXPECT_EQ(load_kind(restamped), RegistryError::Kind::kHashMismatch);
}

TEST(Artifact, AttachQuantizedRunsAdmissionAnalysis) {
  ModelArtifact artifact = make_test_artifact("vq", 11);
  // An absurd input domain overflows the bound analysis — typed error,
  // no payload attached.
  EXPECT_THROW(attach_quantized(artifact, 24, 1e8), nn::QuantizeError);
  EXPECT_FALSE(artifact.quantized.has_value());
}

TEST(Artifact, PlainArtifactsStillWriteFormatV1) {
  const std::string text = artifact_text(make_test_artifact("v1"));
  EXPECT_EQ(text.rfind("safenn-artifact v1\n", 0), 0u);
  EXPECT_EQ(text.find("quantized"), std::string::npos);
}

// -------------------------------------------------------------------------
// Committed artifacts pin the byte format; the parsers accept only it.
// -------------------------------------------------------------------------

std::string read_bytes(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

// Every committed artifact loads with the content hash and network
// checksum it was published with and re-saves, packed, to the same file.
TEST(Artifact, CommittedArtifactsResaveByteIdentically) {
  struct Committed {
    const char* path;
    const char* content_hash;
    const char* network_checksum;
  };
  const Committed committed[] = {
      {"serve_predictor_registry/alpha-v1.safennz", "32c12db6fb735134",
       "a90075057c950928"},
      {"serve_predictor_registry/beta-v1.safennz", "88fcce13480b45ad",
       "a90075057c950928"},
      {"serve_predictor_registry/beta-v2.safennz", "87f1ae20aae6ec7c",
       "a90075057c950928"},
      {"perfbench/data/fleet/alpha-v1.safennz", "5aebc638190767a9",
       "fc0a8605efa94b5d"},
      {"perfbench/data/fleet/beta-v1.safennz", "1b411a55026b6d11",
       "92025f3b92db5805"},
  };
  for (const Committed& c : committed) {
    const fs::path path = fs::path(SAFENN_SOURCE_DIR) / c.path;
    const ModelArtifact artifact = load_artifact_file(path.string());
    EXPECT_EQ(hex64(artifact.content_hash), c.content_hash) << c.path;
    EXPECT_EQ(hex64(nn::network_checksum(artifact.network)),
              c.network_checksum)
        << c.path;
    std::ostringstream os;
    save_artifact(os, artifact, ArtifactEncoding::kPacked);
    EXPECT_EQ(os.str(), read_bytes(path)) << c.path;
  }
}

std::string stamp(const std::string& version, const std::string& payload) {
  return "safenn-artifact " + version + "\n" + payload +
         "artifact-checksum " + hex64(fnv1a64(payload)) + '\n';
}

std::string payload_of(const std::string& text) {
  const std::size_t header_end = text.find('\n');
  const std::size_t marker = text.rfind("\nartifact-checksum ");
  return text.substr(header_end + 1, marker - header_end);
}

// A checksum-valid payload still has to be what save_artifact writes:
// tokens or separators no writer emits are kBadArtifact, never a guess.
TEST(Artifact, RejectsTokensTheWriterCannotEmit) {
  ModelArtifact artifact = make_test_artifact("vq", 11, 0.75);
  attach_quantized(artifact, 8, 4.0);
  const std::string good = payload_of(artifact_text(artifact));
  ASSERT_EQ(stamp("v2", good), artifact_text(artifact));

  const std::pair<std::string, std::string> swaps[] = {
      {"monitor-threshold 0.75", "monitor-threshold inf"},
      {"monitor-threshold 0.75", "monitor-threshold nan"},
      {"monitor-threshold 0.75", "monitor-threshold +0.75"},
      {"monitor-threshold 0.75", "monitor-threshold 0x1p3"},
      {"monitor-threshold 0.75", "monitor-threshold 0.75abc"},
      {"monitor-threshold 0.75", "monitor-threshold\t0.75"},
      {"monitor-threshold 0.75\n", "monitor-threshold 0.75\r\n"},
      {"quantized-frac-bits 8", "quantized-frac-bits +8"},
      {"quantized-input-limit 4", "quantized-input-limit 4abc"},
      {"mdn 1 ", "mdn\t1 "},
      {"version vq\n", "version vq\t\n"},
  };
  for (const auto& [from, to] : swaps) {
    std::string payload = good;
    payload.replace(payload.find(from), from.size(), to);
    EXPECT_EQ(load_kind(stamp("v2", payload)),
              RegistryError::Kind::kBadArtifact)
        << to;
  }
  // The header's format version must match the payload, and the trailer
  // must be whole.
  EXPECT_EQ(load_kind(stamp("v1", good)), RegistryError::Kind::kBadArtifact);
  const std::string text = stamp("v2", good);
  EXPECT_EQ(load_kind(text.substr(0, text.size() - 1)),
            RegistryError::Kind::kBadArtifact);

  // Packed container: a signed or wrapping length, bytes after the blob.
  std::ostringstream os;
  save_artifact(os, artifact, ArtifactEncoding::kPacked);
  const std::string packed = os.str();
  const std::size_t length_at = packed.find("payload-bytes ") + 14;
  const std::size_t length_end = packed.find('\n', length_at);
  for (const char* length : {"+1", "18446744073709551615"}) {
    std::string bad = packed;
    bad.replace(length_at, length_end - length_at, length);
    EXPECT_EQ(load_kind(bad), RegistryError::Kind::kBadArtifact) << length;
    // The same line with no blob after it at all.
    bad.resize(bad.find('\n', length_at) + 1);
    EXPECT_EQ(load_kind(bad), RegistryError::Kind::kBadArtifact) << length;
  }
  EXPECT_EQ(load_kind(packed + "x"), RegistryError::Kind::kBadArtifact);
}

// Deterministic mutation sweep over a committed packed artifact and a
// quantized artifact in both encodings: byte flips at a fixed stride and a
// cut at every line start. Each input must end in a typed RegistryError
// or load an artifact that re-saves to exactly the input bytes.
TEST(Artifact, MutationSweepEndsTypedOrRoundTrips) {
  ModelArtifact quantized = make_test_artifact("vq", 11);
  attach_quantized(quantized, 8, 4.0);
  std::ostringstream packed;
  save_artifact(packed, quantized, ArtifactEncoding::kPacked);
  const std::pair<std::string, ArtifactEncoding> seeds[] = {
      {read_bytes(fs::path(SAFENN_SOURCE_DIR) /
                  "serve_predictor_registry/beta-v2.safennz"),
       ArtifactEncoding::kPacked},
      {packed.str(), ArtifactEncoding::kPacked},
      {artifact_text(quantized), ArtifactEncoding::kPlain},
  };
  int round_trips = 0;
  for (const auto& entry : seeds) {
    const std::string& seed = entry.first;
    const ArtifactEncoding encoding = entry.second;
    const auto probe = [&](const std::string& input, const std::string& what) {
      try {
        std::istringstream is(input);
        const ModelArtifact loaded = load_artifact(is);
        std::ostringstream os;
        save_artifact(os, loaded, encoding);
        EXPECT_EQ(os.str(), input) << what;
        ++round_trips;
      } catch (const RegistryError&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << what << ": untyped " << e.what();
      }
    };
    for (std::size_t pos = 0; pos < seed.size(); pos += 5) {
      for (const unsigned char mask : {0x01, 0x20, 0x80}) {
        std::string mutated = seed;
        mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
        probe(mutated, "flip " + std::to_string(mask) + " at " +
                           std::to_string(pos));
      }
    }
    for (std::size_t pos = 0; pos <= seed.size(); ++pos) {
      if (pos == 0 || seed[pos - 1] == '\n') {
        probe(seed.substr(0, pos), "cut at " + std::to_string(pos));
      }
    }
  }
  EXPECT_EQ(round_trips, 3);  // each uncut seed, nothing else
}

TEST(LiveModel, QuantizedSnapshotBuildsPackedEngine) {
  ModelArtifact artifact = make_test_artifact("vq", 11);
  const std::uint64_t qhash = attach_quantized(artifact, 8, 4.0);
  {
    std::stringstream ss;
    artifact.content_hash = save_artifact(ss, artifact);
  }
  const ModelSnapshot snapshot(artifact, linalg::KernelBackend::kQuantized,
                               linalg::KernelBackend::kReference);
  EXPECT_EQ(snapshot.backend(), linalg::KernelBackend::kQuantized);
  EXPECT_EQ(snapshot.quantized_hash(), qhash);
  ASSERT_NE(snapshot.quantized_engine(), nullptr);
  EXPECT_EQ(snapshot.quantized_engine()->kernel_backend(),
            linalg::KernelBackend::kReference);
  EXPECT_EQ(snapshot.quantized_engine()->input_size(),
            highway::kSceneFeatures);

  // Float snapshots carry no engine; requesting kQuantized without a
  // payload is refused.
  const ModelSnapshot plain(artifact, linalg::KernelBackend::kReference);
  EXPECT_EQ(plain.quantized_engine(), nullptr);
  ModelArtifact no_payload = make_test_artifact("vf", 12);
  {
    std::stringstream ss;
    no_payload.content_hash = save_artifact(ss, no_payload);
  }
  EXPECT_THROW(ModelSnapshot(no_payload, linalg::KernelBackend::kQuantized),
               Error);
}

}  // namespace
}  // namespace safenn::registry
