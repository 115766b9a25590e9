// Message bodies for the vdbench daemon protocol: the JSON documents that
// travel inside kRequest and kStatus frames (net/frame.h).
//
// Requests carry the same knobs as the `vdbench` CLI — experiment
// selection, thread count, seed and cache overrides — because the daemon's
// contract is that a study submitted over the wire exports byte-identically
// to the same study run in-process. Statuses extend the PR 4 exit-code
// taxonomy (cli/driver.h: 0 ok / 3 partial / 1 unusable / 2 usage) with
// session-level outcomes the single-process CLI cannot have: admission
// rejection, drain refusal, a blown per-connection deadline, and transport
// or protocol failure.
//
// Decoding is strict-but-total: a structurally invalid document returns
// nullopt (the server answers with a "usage" status) rather than throwing,
// mirroring the cache's corrupt-entry policy.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace vdbench::net {

/// Session exit codes layered on top of the driver taxonomy. The driver
/// owns 0–3; these identify failures of the session itself.
inline constexpr int kExitBusy = 4;       ///< admission queue full / draining
inline constexpr int kExitTransport = 5;  ///< connect, frame, or deadline

/// A study submission. Field defaults mean "use the daemon's setting".
struct StudyRequest {
  std::string experiments = "all";  ///< CSV selection, as the CLI flag
  std::size_t threads = 0;          ///< 0 = daemon default
  /// Study-seed override; 0 = the daemon's configured seed. Part of every
  /// cache key, so override runs can never serve another seed's results.
  /// Encoded as a decimal string on the wire: JSON numbers decode as
  /// doubles and would silently corrupt seeds above 2^53.
  std::uint64_t study_seed = 0;
  bool use_cache = true;   ///< false = bypass the shared cache entirely
  bool refresh = false;    ///< recompute and overwrite cache entries
  bool quiet = true;       ///< suppress report text in progress frames
  std::size_t retries = 0;
  double timeout_sec = 0.0;  ///< per-experiment deadline; 0 = session only
  bool want_manifest = false;  ///< also stream the session run manifest
};

/// The final word on a session, sent as the last frame.
struct StudyStatus {
  /// "ok" | "partial" | "unusable" | "usage" (driver outcomes) or
  /// "busy" | "draining" | "deadline" | "protocol_error" (session
  /// outcomes).
  std::string status = "ok";
  int exit_code = 0;
  std::string error;  ///< human-readable detail; empty when ok
};

[[nodiscard]] std::string encode_request(const StudyRequest& request);
[[nodiscard]] std::optional<StudyRequest> decode_request(
    std::string_view json);

[[nodiscard]] std::string encode_status(const StudyStatus& status);
[[nodiscard]] std::optional<StudyStatus> decode_status(std::string_view json);

}  // namespace vdbench::net
