#include "net/client.h"

#include <cstddef>

#include "net/frame.h"
#include "net/socket.h"
#include "stats/parallel.h"

namespace vdbench::net {

namespace {

ClientOutcome transport_failure(const std::string& detail) {
  ClientOutcome outcome;
  outcome.status.status = "transport_error";
  outcome.status.exit_code = kExitTransport;
  outcome.status.error = detail;
  return outcome;
}

}  // namespace

ClientOutcome run_study(const ClientOptions& options, std::ostream& progress) {
  const Deadline deadline = stats::deadline_after(options.deadline_sec);
  ClientOutcome outcome;
  std::string request_error;
  try {
    Socket socket = connect_unix(options.socket_path);
    try {
      write_frame(
          [&](const char* src, std::size_t n) {
            socket.write_all(src, n, deadline);
          },
          FrameType::kRequest, encode_request(options.request), kRoleClient);
    } catch (const TransportError& error) {
      // A daemon that rejects at admission (busy/draining) answers with a
      // status frame and closes without reading the request, so this write
      // can fail on a perfectly healthy rejection. Keep reading — the
      // status below explains; a genuinely dead daemon fails there.
      request_error = error.what();
    }

    // The response stream: progress frames until export/manifest land,
    // terminated by exactly one status frame.
    for (;;) {
      const Frame frame = read_frame(
          [&](char* dst, std::size_t n) {
            socket.read_exact(dst, n, deadline);
          },
          kRoleClient);
      switch (frame.type) {
        case FrameType::kProgress:
          progress << frame.payload;
          progress.flush();
          break;
        case FrameType::kExport:
          outcome.export_json = frame.payload;
          break;
        case FrameType::kManifest:
          outcome.manifest_json = frame.payload;
          break;
        case FrameType::kStatus: {
          const std::optional<StudyStatus> status =
              decode_status(frame.payload);
          if (!status.has_value())
            return transport_failure("undecodable status frame");
          outcome.status = *status;
          return outcome;
        }
        case FrameType::kRequest:
          return transport_failure("unexpected request frame from daemon");
      }
    }
  } catch (const FrameCorrupt& error) {
    return transport_failure(error.what());
  } catch (const TransportError& error) {
    return transport_failure(request_error.empty() ? error.what()
                                                   : request_error);
  }
}

}  // namespace vdbench::net
