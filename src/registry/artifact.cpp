#include "registry/artifact.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "common/compress.hpp"
#include "common/hash.hpp"
#include "common/numtext.hpp"
#include "nn/qengine.hpp"
#include "nn/serialize.hpp"

namespace safenn::registry {
namespace {

constexpr std::string_view kMagic = "safenn-artifact";
constexpr const char* kVersionPlain = "v1";
constexpr const char* kVersionQuantized = "v2";
constexpr const char* kVersionPacked = "v3";
constexpr const char* kChecksumMarker = "artifact-checksum ";
constexpr const char* kPayloadBytesMarker = "payload-bytes ";
constexpr const char* kQuantChecksumToken = "quantized-checksum ";

[[noreturn]] void fail(RegistryError::Kind kind, const std::string& what) {
  throw RegistryError(kind, "load_artifact: " + what);
}

void check(bool cond, const std::string& what) {
  if (!cond) fail(RegistryError::Kind::kBadArtifact, what);
}

lp::Relation relation_from_name(std::string_view name) {
  for (const lp::Relation r :
       {lp::Relation::kLe, lp::Relation::kGe, lp::Relation::kEq}) {
    if (name == lp::to_string(r)) return r;
  }
  fail(RegistryError::Kind::kBadArtifact,
       "unknown constraint relation '" + std::string(name) + "'");
}

std::uint64_t checksum_value(std::string_view hex) {
  try {
    return parse_hex64(hex);
  } catch (const Error&) {
    fail(RegistryError::Kind::kBadArtifact, "unparseable checksum value");
  }
}

bool is_single_token(std::string_view s) {
  return !s.empty() && std::none_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isspace(c);
  });
}

/// Canonical text of a quantized payload — the byte range its content
/// address covers. Integer weights/biases serialize exactly; the input
/// limit round-trips at 17 significant digits, so re-serializing a
/// parsed payload reproduces these bytes and the hash can be verified
/// structurally on load.
template <class Sink>
void write_quantized_section(Sink& sink, const QuantizedPayload& payload) {
  numtext::Writer w(sink);
  const nn::QuantizedNetwork& qnet = payload.network;
  w << "quantized-frac-bits " << qnet.frac_bits() << '\n';
  w << "quantized-input-limit " << payload.input_limit << '\n';
  w << "quantized-layers " << qnet.num_layers() << '\n';
  for (std::size_t li = 0; li < qnet.num_layers(); ++li) {
    const nn::QuantizedLayer& l = qnet.layer(li);
    w << "qlayer " << l.out_size() << ' ' << l.in_size() << ' '
      << nn::to_string(l.activation) << '\n';
    for (const auto& row : l.weights) w.row(row.data(), row.size());
    w.row(l.biases.data(), l.biases.size());
  }
}

std::uint64_t quantized_hash(const QuantizedPayload& payload) {
  Fnv1a64 hash;
  write_quantized_section(hash, payload);
  return hash.digest();
}

/// Parses a quantized section from after "quantized-frac-bits ".
std::optional<QuantizedPayload> parse_quantized_section(numtext::Reader& r) {
  int frac_bits = 0;
  double input_limit = 0.0;
  std::size_t num_layers = 0;
  check(r.read(frac_bits, '\n') && frac_bits > 0, "bad quantized frac_bits");
  check(r.skip("quantized-input-limit ") && r.read(input_limit, '\n') &&
            input_limit > 0.0,
        "bad quantized-input-limit line");
  check(r.skip("quantized-layers ") && r.read(num_layers, '\n') &&
            num_layers > 0 && r.room_for(num_layers),
        "bad quantized-layers line");

  std::vector<nn::QuantizedLayer> layers(num_layers);
  for (std::size_t li = 0; li < num_layers; ++li) {
    nn::QuantizedLayer& l = layers[li];
    std::size_t out = 0, in = 0;
    check(r.skip("qlayer ") && r.read(out, ' ') && r.read(in, ' ') &&
              out > 0 && in > 0 && r.room_for(out, in),
          "bad qlayer shape");
    const std::string activation(r.word('\n'));
    try {
      l.activation = nn::activation_from_string(activation);
    } catch (const Error&) {
      fail(RegistryError::Kind::kBadArtifact,
           "unknown qlayer activation '" + activation + "'");
    }
    check(li == 0 || in == layers[li - 1].out_size(),
          "qlayer input width does not match the previous qlayer");
    l.weights.assign(out, std::vector<std::int64_t>(in, 0));
    l.biases.assign(out, 0);
    for (auto& row : l.weights) {
      check(r.read_row(row.data(), in), "bad quantized weight");
    }
    check(r.read_row(l.biases.data(), out), "bad quantized bias");
  }

  check(r.skip(kQuantChecksumToken), "expected 'quantized-checksum'");
  const std::string_view recorded_hex = r.word('\n');
  const std::uint64_t recorded = checksum_value(recorded_hex);

  std::optional<QuantizedPayload> payload;
  try {
    payload.emplace(input_limit,
                    nn::QuantizedNetwork(frac_bits, std::move(layers)));
  } catch (const Error& e) {
    fail(RegistryError::Kind::kBadArtifact,
         std::string("quantized payload rejected: ") + e.what());
  }
  // Content-address verification: the canonical re-serialization of what
  // we just parsed must hash to the recorded value bit for bit.
  const std::uint64_t actual = quantized_hash(*payload);
  if (actual != recorded) {
    fail(RegistryError::Kind::kHashMismatch,
         "quantized content hash " + hex64(actual) + " != recorded " +
             std::string(recorded_hex));
  }
  payload->content_hash = actual;
  return payload;
}

/// Everything between the header line and the checksum trailer — the
/// byte range the content hash covers.
std::string payload_text(const ModelArtifact& artifact) {
  std::string text;
  numtext::Writer w(text);
  w << "version " << artifact.version << '\n';
  w << "mdn " << artifact.head.components() << ' ' << artifact.head.dims()
    << '\n';
  w << "monitor-threshold " << artifact.monitor.lateral_threshold << '\n';
  const verify::InputRegion& region = artifact.monitor.region;
  w << "region-box " << region.box.size() << '\n';
  for (const verify::Interval& iv : region.box) {
    w << iv.lo << ' ' << iv.hi << '\n';
  }
  w << "region-constraints " << region.constraints.size() << '\n';
  for (const verify::InputConstraint& c : region.constraints) {
    w << c.terms.size();
    for (const auto& [idx, coeff] : c.terms) w << ' ' << idx << ' ' << coeff;
    w << ' ' << lp::to_string(c.relation) << ' ' << c.rhs << '\n';
  }
  if (artifact.quantized) {
    const std::size_t section_begin = text.size();
    write_quantized_section(text, *artifact.quantized);
    const std::uint64_t section_hash =
        fnv1a64(std::string_view(text).substr(section_begin));
    w << kQuantChecksumToken << hex64(section_hash) << '\n';
  }
  // The embedded network text is the v2 serialized form verbatim — it
  // carries its own checksum, so the network is double-pinned.
  w << "network\n" << nn::network_to_string(artifact.network);
  return text;
}

ModelArtifact parse_payload(std::string_view payload) {
  numtext::Reader r(payload);
  ModelArtifact artifact;

  check(r.skip("version "), "expected 'version'");
  artifact.version = std::string(r.word('\n'));
  check(is_single_token(artifact.version), "bad version token");

  std::size_t components = 0, dims = 0;
  check(r.skip("mdn ") && r.read(components, ' ') && r.read(dims, '\n') &&
            components > 0 && dims > 0,
        "bad mdn head shape");
  artifact.head = nn::MdnHead(components, dims);
  check(r.skip("monitor-threshold ") &&
            r.read(artifact.monitor.lateral_threshold, '\n'),
        "bad monitor-threshold line");

  std::size_t box_dims = 0;
  check(r.skip("region-box ") && r.read(box_dims, '\n') && box_dims > 0 &&
            r.room_for(box_dims, 2),
        "bad region box size");
  artifact.monitor.region.box.resize(box_dims);
  for (verify::Interval& iv : artifact.monitor.region.box) {
    check(r.read(iv.lo, ' ') && r.read(iv.hi, '\n') && iv.lo <= iv.hi,
          "bad region interval");
  }

  std::size_t num_constraints = 0;
  check(r.skip("region-constraints ") && r.read(num_constraints, '\n') &&
            r.room_for(num_constraints, 5),
        "bad constraint count");
  artifact.monitor.region.constraints.resize(num_constraints);
  for (verify::InputConstraint& c : artifact.monitor.region.constraints) {
    std::size_t terms = 0;
    check(r.read(terms, ' ') && terms > 0 && r.room_for(terms, 2),
          "bad constraint term count");
    c.terms.resize(terms);
    for (auto& [idx, coeff] : c.terms) {
      check(r.read(idx, ' ') && r.read(coeff, ' '), "bad constraint term");
    }
    c.relation = relation_from_name(r.word(' '));
    check(r.read(c.rhs, '\n'), "bad constraint rhs");
  }
  check(artifact.monitor.region.well_formed(),
        "region constraint names an input outside the box");

  if (r.skip("quantized-frac-bits ")) {
    artifact.quantized = parse_quantized_section(r);
  }
  check(r.skip("network\n"), "expected 'network'");
  try {
    artifact.network = nn::network_from_string(r.rest());
  } catch (const nn::SerializeError& e) {
    fail(RegistryError::Kind::kBadArtifact,
         std::string("embedded network rejected: ") + e.what());
  }
  check(artifact.network.output_size() == artifact.head.raw_output_size(),
        "network output width does not match mdn head layout");
  check(artifact.network.input_size() == artifact.monitor.region.dims(),
        "network input width does not match monitor region");
  if (artifact.quantized) {
    const nn::QuantizedNetwork& qnet = artifact.quantized->network;
    check(qnet.input_size() == artifact.network.input_size() &&
              qnet.output_size() == artifact.network.output_size(),
          "quantized payload shape does not match the float network");
  }
  return artifact;
}

}  // namespace

core::TrainedPredictor ModelArtifact::predictor() const {
  core::TrainedPredictor p;
  p.network = network;
  p.head = head;
  return p;
}

ModelArtifact make_artifact(std::string version,
                            const core::TrainedPredictor& predictor,
                            MonitorConfig monitor) {
  require(is_single_token(version),
          "make_artifact: version must be a non-empty whitespace-free token");
  require(predictor.network.input_size() == monitor.region.dims(),
          "make_artifact: monitor region dims != network input width");
  require(monitor.region.well_formed(),
          "make_artifact: region constraint names an input outside the box");
  ModelArtifact artifact;
  artifact.version = std::move(version);
  artifact.head = predictor.head;
  artifact.network = predictor.network;
  artifact.monitor = std::move(monitor);
  return artifact;
}

std::uint64_t attach_quantized(ModelArtifact& artifact, int frac_bits,
                               double input_limit) {
  nn::QuantizedNetwork qnet =
      nn::QuantizedNetwork::quantize(artifact.network, frac_bits, input_limit);
  // Run the packed engine's full admission analysis now: an artifact
  // that registers with a quantized payload is servable by construction.
  (void)nn::QuantizedEngine(qnet, input_limit,
                            linalg::KernelBackend::kReference);
  artifact.quantized.emplace(input_limit, std::move(qnet));
  artifact.quantized->content_hash = quantized_hash(*artifact.quantized);
  return artifact.quantized->content_hash;
}

std::uint64_t save_artifact(std::ostream& os, const ModelArtifact& artifact,
                            ArtifactEncoding encoding) {
  const std::string payload = payload_text(artifact);
  const std::uint64_t hash = fnv1a64(payload);
  if (encoding == ArtifactEncoding::kPacked) {
    // v3: checksum (over the UNCOMPRESSED payload) and blob length come
    // before the blob, so the loader never searches binary data for a
    // trailer and truncation is detected by the declared length.
    const std::string blob = compress_text(payload);
    os << kMagic << ' ' << kVersionPacked << '\n'
       << kChecksumMarker << hex64(hash) << '\n'
       << kPayloadBytesMarker << blob.size() << '\n';
    os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    os << '\n';
    return hash;
  }
  os << kMagic << ' '
     << (artifact.quantized ? kVersionQuantized : kVersionPlain) << '\n'
     << payload << kChecksumMarker << hex64(hash) << '\n';
  return hash;
}

ModelArtifact load_artifact(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = std::move(buffer).str();
  const std::string_view view(text);

  const std::size_t header_end = view.find('\n');
  check(header_end != std::string_view::npos, "missing header line");
  const std::string_view header = view.substr(0, header_end);
  check(header.substr(0, header.find(' ')) == kMagic,
        "not a safenn-artifact file");
  const std::string_view version =
      header.substr(std::min(header.size(), kMagic.size() + 1));
  check(version == kVersionPlain || version == kVersionQuantized ||
            version == kVersionPacked,
        "unsupported artifact format version '" + std::string(version) + "'");

  std::string_view recorded_hex, payload;
  std::string unpacked;
  if (version == kVersionPacked) {
    // v3: `artifact-checksum` and `payload-bytes` lines, then the
    // length-framed safenn-pack blob and a final '\n'.
    numtext::Reader r(view.substr(header_end + 1));
    std::size_t blob_size = 0;
    check(r.skip(kChecksumMarker), "expected 'artifact-checksum' line");
    recorded_hex = r.word('\n');
    check(r.skip(kPayloadBytesMarker) && r.read(blob_size, '\n'),
          "bad 'payload-bytes' line");
    const std::string_view rest = r.rest();
    check(rest.ends_with('\n') && rest.size() - 1 == blob_size,
          "packed payload is not the declared " + std::to_string(blob_size) +
              " bytes and a newline");
    try {
      unpacked = decompress_text(rest.substr(0, blob_size));
    } catch (const Error& e) {
      fail(RegistryError::Kind::kBadArtifact,
           std::string("packed payload rejected: ") + e.what());
    }
    payload = unpacked;
  } else {
    // v1/v2: the payload, then a final `artifact-checksum` line.
    const std::size_t marker_pos =
        view.rfind(std::string("\n") + kChecksumMarker);
    check(marker_pos != std::string_view::npos && marker_pos > header_end,
          "missing artifact-checksum trailer (truncated file?)");
    numtext::Reader trailer(view.substr(marker_pos + 1));
    trailer.skip(kChecksumMarker);
    recorded_hex = trailer.word('\n');
    check(trailer.rest().empty(), "bytes after the artifact-checksum line");
    payload = view.substr(header_end + 1, marker_pos - header_end);
  }

  const std::uint64_t recorded = checksum_value(recorded_hex);
  const std::uint64_t actual = fnv1a64(payload);
  if (actual != recorded) {
    fail(RegistryError::Kind::kHashMismatch,
         "content hash " + hex64(actual) + " != recorded " +
             std::string(recorded_hex));
  }
  ModelArtifact artifact = parse_payload(payload);
  check(version == kVersionPacked ||
            artifact.quantized.has_value() == (version == kVersionQuantized),
        "format version does not match the quantized section");
  artifact.content_hash = actual;
  return artifact;
}

void save_artifact_file(const std::string& path, ModelArtifact& artifact,
                        ArtifactEncoding encoding) {
  std::ofstream os(path, std::ios::binary);
  if (!os.is_open()) {
    throw RegistryError(RegistryError::Kind::kIo,
                        "save_artifact_file: cannot open '" + path + "'");
  }
  artifact.content_hash = save_artifact(os, artifact, encoding);
  if (!os.good()) {
    throw RegistryError(RegistryError::Kind::kIo,
                        "save_artifact_file: write failure on '" + path + "'");
  }
}

ModelArtifact load_artifact_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) {
    throw RegistryError(RegistryError::Kind::kIo,
                        "load_artifact_file: cannot open '" + path + "'");
  }
  return load_artifact(is);
}

}  // namespace safenn::registry
