#include "nn/serialize.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/hash.hpp"
#include "common/numtext.hpp"

namespace safenn::nn {
namespace {

constexpr std::string_view kMagic = "safenn-network";
constexpr std::string_view kHeader = "safenn-network v2";
constexpr std::string_view kChecksumMarker = "checksum ";

[[noreturn]] void fail(SerializeError::Kind kind, const std::string& what) {
  throw SerializeError(kind, "load_network: " + what);
}

void check(bool cond, SerializeError::Kind kind, const std::string& what) {
  if (!cond) fail(kind, what);
}

/// Writes the layer payload, the byte range the checksum covers (between
/// the header line and the checksum line), into a string or a hash.
template <class Sink>
void write_payload(Sink& sink, const Network& net) {
  numtext::Writer w(sink);
  w << "layers " << net.num_layers() << '\n';
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const DenseLayer& l = net.layer(li);
    w << "layer " << l.in_size() << ' ' << l.out_size() << ' '
      << to_string(l.activation()) << '\n';
    w.row(l.biases().data(), l.out_size());
    for (std::size_t r = 0; r < l.out_size(); ++r) {
      w.row(l.weights().data() + r * l.in_size(), l.in_size());
    }
  }
}

Network parse_payload(std::string_view payload) {
  constexpr SerializeError::Kind kMalformed = SerializeError::Kind::kMalformed;
  numtext::Reader r(payload);
  std::size_t num_layers = 0;
  check(r.skip("layers ") && r.read(num_layers, '\n') && num_layers > 0,
        kMalformed, "bad layer count");

  Network net;
  for (std::size_t li = 0; li < num_layers; ++li) {
    std::size_t in = 0, out = 0;
    check(r.skip("layer ") && r.read(in, ' ') && r.read(out, ' ') && in > 0 &&
              out > 0 && r.room_for(out, in),
          kMalformed, "bad layer shape");
    check(li == 0 || in == net.output_size(), kMalformed,
          "layer input width does not match the previous layer");
    const std::string act_name(r.word('\n'));
    Activation act = Activation::kIdentity;
    try {
      act = activation_from_string(act_name);
    } catch (const Error&) {
      fail(kMalformed, "unknown activation '" + act_name + "'");
    }
    DenseLayer layer(in, out, act);
    bool ok = r.read_row(layer.biases().data(), out);
    for (std::size_t row = 0; ok && row < out; ++row) {
      ok = r.read_row(&layer.weights()(row, 0), in);
    }
    check(ok, kMalformed, "malformed parameter value");
    net.add_layer(std::move(layer));
  }
  check(r.rest().empty(), kMalformed, "trailing bytes after the last layer");
  return net;
}

}  // namespace

const char* to_string(SerializeError::Kind kind) {
  switch (kind) {
    case SerializeError::Kind::kBadMagic: return "bad-magic";
    case SerializeError::Kind::kUnsupportedVersion:
      return "unsupported-version";
    case SerializeError::Kind::kTruncated: return "truncated";
    case SerializeError::Kind::kChecksumMismatch: return "checksum-mismatch";
    case SerializeError::Kind::kMalformed: return "malformed";
    case SerializeError::Kind::kIo: return "io";
  }
  return "?";
}

void save_network(std::ostream& os, const Network& net) {
  os << network_to_string(net);
}

Network load_network(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return network_from_string(std::move(buffer).str());
}

std::uint64_t network_checksum(const Network& net) {
  Fnv1a64 hash;
  write_payload(hash, net);
  return hash.digest();
}

std::string network_to_string(const Network& net) {
  std::string text;
  numtext::Writer(text) << kHeader << '\n';
  const std::size_t payload_begin = text.size();
  write_payload(text, net);
  const std::uint64_t sum =
      fnv1a64(std::string_view(text).substr(payload_begin));
  numtext::Writer(text) << kChecksumMarker << hex64(sum) << '\n';
  return text;
}

Network network_from_string(std::string_view text) {
  // Header line: "safenn-network v2\n".
  const std::size_t header_end = text.find('\n');
  check(header_end != std::string_view::npos, SerializeError::Kind::kBadMagic,
        "missing header line");
  const std::string_view header = text.substr(0, header_end);
  check(header.substr(0, header.find(' ')) == kMagic,
        SerializeError::Kind::kBadMagic, "not a safenn-network file");
  check(header == kHeader, SerializeError::Kind::kUnsupportedVersion,
        "unsupported format '" + std::string(header) + "' (want '" +
            std::string(kHeader) + "')");

  // Trailing line: "checksum <16-hex>\n" — its absence means the file was
  // cut short; nothing is parsed until the payload hashes correctly.
  const std::size_t marker_pos = text.rfind("\nchecksum ");
  check(marker_pos != std::string_view::npos && marker_pos > header_end,
        SerializeError::Kind::kTruncated,
        "missing checksum trailer (truncated file?)");
  numtext::Reader trailer(text.substr(marker_pos + 1));
  trailer.skip(kChecksumMarker);
  const std::string_view recorded_hex = trailer.word('\n');
  std::uint64_t recorded = 0;
  try {
    recorded = parse_hex64(recorded_hex);
  } catch (const Error&) {
    fail(SerializeError::Kind::kMalformed, "unparseable checksum value");
  }
  check(trailer.rest().empty(), SerializeError::Kind::kMalformed,
        "bytes after the checksum line");

  const std::string_view payload =
      text.substr(header_end + 1, marker_pos - header_end);
  const std::uint64_t actual = fnv1a64(payload);
  check(actual == recorded, SerializeError::Kind::kChecksumMismatch,
        "payload checksum " + hex64(actual) + " != recorded " +
            std::string(recorded_hex));

  return parse_payload(payload);
}

void save_network_file(const std::string& path, const Network& net) {
  std::ofstream os(path);
  if (!os.is_open()) {
    throw SerializeError(SerializeError::Kind::kIo,
                         "save_network_file: cannot open '" + path + "'");
  }
  save_network(os, net);
  if (!os.good()) {
    throw SerializeError(SerializeError::Kind::kIo,
                         "save_network_file: write failure on '" + path + "'");
  }
}

Network load_network_file(const std::string& path) {
  std::ifstream is(path);
  if (!is.is_open()) {
    throw SerializeError(SerializeError::Kind::kIo,
                         "load_network_file: cannot open '" + path + "'");
  }
  return load_network(is);
}

}  // namespace safenn::nn
