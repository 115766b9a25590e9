// Wire framing for the vdbench daemon protocol.
//
// Every message between `vdbench-client` and `vdbenchd` travels as one
// length-prefixed, checksummed frame — the same discipline as the
// `VDRLOG01` report log (stream/report_log.h), applied to a socket:
//
//   magic     4 bytes "VDNF"
//   version   u8  (kWireVersion, 2; a mismatch is rejected loudly)
//   type      u8  (FrameType)
//   reserved  u16 (must be zero)
//   length    u32 LE payload byte count (capped at kMaxPayloadBytes)
//   payload   `length` bytes
//   checksum  u32 LE CRC-32C over (version, type, reserved, length, payload)
//
// Integers and the trailer use the byte codec shared with the report log
// (cache/bytes.h), so the protocol is platform-independent. Corruption
// policy mirrors the report log: any structural damage — bad magic,
// version skew, an implausible length, a checksum mismatch, an unknown
// type — raises the typed FrameCorrupt error instead of silently yielding
// a short or garbled message. Transport failures (EOF, I/O error, deadline
// expiry) raise the distinct TransportError so callers can tell a torn
// frame from a dead peer.
//
// The frame codec is transport-agnostic: read_frame/write_frame take byte
// source/sink callbacks, so unit tests exercise the codec on in-memory
// buffers and the daemon plugs in deadline-aware socket I/O. The `role`
// argument ("server" or "client") keys the net.read/net.write/net.frame
// fault-injection points and scopes byte counters to the server side.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace vdbench::net {

inline constexpr std::uint8_t kWireVersion = 2;
inline constexpr std::uint32_t kMaxPayloadBytes = 64u * 1024u * 1024u;

/// Peer roles, as passed for fault keys and counter attribution.
inline constexpr const char* kRoleServer = "server";
inline constexpr const char* kRoleClient = "client";

/// Message kinds. A session is one kRequest from the client followed by a
/// server stream of zero or more kProgress frames, then (on success)
/// kExport and optionally kManifest, and always exactly one final kStatus.
enum class FrameType : std::uint8_t {
  kRequest = 1,   ///< client → server: StudyRequest JSON
  kProgress = 2,  ///< server → client: human-readable progress text
  kExport = 3,    ///< server → client: the study's JSON export, verbatim
  kManifest = 4,  ///< server → client: the session's run manifest JSON
  kStatus = 5,    ///< server → client: final StudyStatus JSON
};

/// Raised for structural damage on the wire: bad magic, version skew,
/// oversized length, checksum mismatch, unknown frame type.
struct FrameCorrupt : std::runtime_error {
  explicit FrameCorrupt(const std::string& what_arg)
      : std::runtime_error("net frame corrupt: " + what_arg) {}
};

/// Raised for transport failures: connect/EOF/read/write errors and
/// deadline expiry. Distinct from FrameCorrupt so a dead peer and a torn
/// frame are handled differently (reconnect vs protocol error).
struct TransportError : std::runtime_error {
  explicit TransportError(const std::string& what_arg)
      : std::runtime_error("net transport: " + what_arg) {}
};

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kStatus;
  std::string payload;
};

/// Byte source: fill exactly [dst, dst+n) or throw TransportError.
using ReadExactFn = std::function<void(char* dst, std::size_t n)>;
/// Byte sink: write exactly [src, src+n) or throw TransportError.
using WriteAllFn = std::function<void(const char* src, std::size_t n)>;

/// Encode a frame into its wire bytes (no I/O, no fault hooks).
[[nodiscard]] std::string encode_frame(FrameType type,
                                       std::string_view payload);

/// Encode and send one frame through `write`. Consults the net.write
/// fault point (key = role); io_error raises TransportError. Counts
/// net.bytes.out when role is "server".
void write_frame(const WriteAllFn& write, FrameType type,
                 std::string_view payload, std::string_view role);

/// Read and validate one frame from `read`. Consults net.read (key =
/// role; io_error/timeout raise TransportError) before reading and
/// net.frame (corrupt/truncate mangle the received bytes so validation
/// rejects them) before checksum verification. Counts net.bytes.in when
/// role is "server". Throws FrameCorrupt on structural damage and
/// propagates TransportError from `read`.
[[nodiscard]] Frame read_frame(const ReadExactFn& read, std::string_view role);

}  // namespace vdbench::net
