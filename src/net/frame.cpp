#include "net/frame.h"

#include "cache/bytes.h"
#include "cache/hash.h"
#include "fault/injector.h"
#include "obs/registry.h"

namespace vdbench::net {

namespace {

constexpr char kMagic[4] = {'V', 'D', 'N', 'F'};
// version + type + reserved + length — the checksummed fixed prefix.
constexpr std::size_t kHeaderBytes = 8;
constexpr std::size_t kChecksumBytes = 8;

bool known_type(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(FrameType::kRequest) &&
         type <= static_cast<std::uint8_t>(FrameType::kStatus);
}

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  if (payload.size() > kMaxPayloadBytes)
    throw TransportError("payload of " + std::to_string(payload.size()) +
                         " bytes exceeds the frame cap");
  std::string wire;
  wire.reserve(sizeof(kMagic) + kHeaderBytes + payload.size() +
               kChecksumBytes);
  wire.append(kMagic, sizeof(kMagic));
  wire.push_back(static_cast<char>(kWireVersion));
  wire.push_back(static_cast<char>(type));
  cache::put_le(wire, std::uint16_t{0});  // reserved
  cache::put_le(wire, static_cast<std::uint32_t>(payload.size()));
  wire.append(payload);
  cache::put_checksum(wire, sizeof(kMagic));
  return wire;
}

void write_frame(const WriteAllFn& write, FrameType type,
                 std::string_view payload, std::string_view role) {
  switch (fault::Injector::global().hit("net.write", role)) {
    case fault::Action::kIoError:
    case fault::Action::kThrow:
      throw TransportError("injected net.write fault");
    case fault::Action::kTimeout:
      throw TransportError("injected net.write deadline expiry");
    case fault::Action::kCorrupt:
    case fault::Action::kTruncate:
    case fault::Action::kNone:
      break;  // mutations are modelled on the receive side (net.frame)
  }
  const std::string wire = encode_frame(type, payload);
  write(wire.data(), wire.size());
  if (role == kRoleServer)
    obs::count(obs::Counter::kNetBytesOut, wire.size());
}

Frame read_frame(const ReadExactFn& read, std::string_view role) {
  switch (fault::Injector::global().hit("net.read", role)) {
    case fault::Action::kIoError:
    case fault::Action::kThrow:
      throw TransportError("injected net.read fault");
    case fault::Action::kTimeout:
      throw TransportError("injected net.read deadline expiry");
    case fault::Action::kCorrupt:
    case fault::Action::kTruncate:
    case fault::Action::kNone:
      break;
  }

  char magic[sizeof(kMagic)];
  read(magic, sizeof(magic));
  if (std::string_view(magic, sizeof(magic)) !=
      std::string_view(kMagic, sizeof(kMagic)))
    throw FrameCorrupt("bad magic");

  char header[kHeaderBytes];
  read(header, sizeof(header));
  const auto version = static_cast<std::uint8_t>(header[0]);
  const auto raw_type = static_cast<std::uint8_t>(header[1]);
  const std::uint32_t length = cache::get_le<std::uint32_t>(header + 4);
  if (version != kWireVersion)
    throw FrameCorrupt("wire version " + std::to_string(version) +
                       " (expected " + std::to_string(kWireVersion) + ")");
  if (length > kMaxPayloadBytes)
    throw FrameCorrupt("implausible payload length " +
                       std::to_string(length));

  std::string body(header, sizeof(header));
  body.resize(sizeof(header) + length);
  if (length > 0) read(body.data() + sizeof(header), length);
  char trailer[kChecksumBytes];
  read(trailer, sizeof(trailer));
  std::uint64_t declared = cache::get_le<std::uint64_t>(trailer);

  // The net.frame point mangles the bytes AFTER they were received and
  // BEFORE validation — modelling a torn or bit-rotted frame that the
  // checksum discipline must reject rather than misparse.
  switch (fault::Injector::global().hit("net.frame", role)) {
    case fault::Action::kCorrupt:
      fault::flip_one_bit(body, fault::Injector::global().total_fired());
      break;
    case fault::Action::kTruncate:
      fault::truncate_tail(body);
      break;
    case fault::Action::kIoError:
    case fault::Action::kThrow:
    case fault::Action::kTimeout:
      declared ^= 1;  // any other action: damage the declared checksum
      break;
    case fault::Action::kNone:
      break;
  }

  if (cache::fnv1a64(body) != declared)
    throw FrameCorrupt("checksum mismatch on " +
                       std::to_string(body.size()) + "-byte frame body");
  if (!known_type(raw_type))
    throw FrameCorrupt("unknown frame type " + std::to_string(raw_type));

  if (role == kRoleServer)
    obs::count(obs::Counter::kNetBytesIn,
               sizeof(kMagic) + body.size() + kChecksumBytes);

  Frame frame;
  frame.type = static_cast<FrameType>(raw_type);
  frame.payload = body.substr(kHeaderBytes);
  return frame;
}

}  // namespace vdbench::net
