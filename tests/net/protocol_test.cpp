#include "net/protocol.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

namespace vdbench::net {
namespace {

TEST(StudyRequestTest, RoundTripsEveryField) {
  StudyRequest request;
  request.experiments = "e2,e6,e13";
  request.threads = 3;
  request.study_seed = 20150622;
  request.use_cache = false;
  request.refresh = true;
  request.quiet = false;
  request.retries = 2;
  request.timeout_sec = 1.5;
  request.want_manifest = true;

  const std::optional<StudyRequest> decoded =
      decode_request(encode_request(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->experiments, "e2,e6,e13");
  EXPECT_EQ(decoded->threads, 3u);
  EXPECT_EQ(decoded->study_seed, 20150622u);
  EXPECT_FALSE(decoded->use_cache);
  EXPECT_TRUE(decoded->refresh);
  EXPECT_FALSE(decoded->quiet);
  EXPECT_EQ(decoded->retries, 2u);
  EXPECT_DOUBLE_EQ(decoded->timeout_sec, 1.5);
  EXPECT_TRUE(decoded->want_manifest);
}

TEST(StudyRequestTest, RoundTripsSeedsAboveDoublePrecision) {
  // Seeds ride the wire as decimal strings: a JSON number decodes as a
  // double and silently alters integers above 2^53.
  StudyRequest request;
  request.study_seed = 18446744073709551615ull;  // UINT64_MAX
  std::optional<StudyRequest> decoded =
      decode_request(encode_request(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->study_seed, 18446744073709551615ull);

  request.study_seed = (1ull << 53) + 1;  // first double-unrepresentable
  decoded = decode_request(encode_request(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->study_seed, (1ull << 53) + 1);
}

TEST(StudyRequestTest, AcceptsSmallNumericSeedsForCompatibility) {
  const std::optional<StudyRequest> decoded =
      decode_request("{\"study_seed\": 42}");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->study_seed, 42u);
}

TEST(StudyRequestTest, AbsentFieldsKeepDefaults) {
  const std::optional<StudyRequest> decoded = decode_request("{}");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->experiments, "all");
  EXPECT_EQ(decoded->threads, 0u);
  EXPECT_EQ(decoded->study_seed, 0u);
  EXPECT_TRUE(decoded->use_cache);
  EXPECT_FALSE(decoded->refresh);
  EXPECT_TRUE(decoded->quiet);
  EXPECT_EQ(decoded->retries, 0u);
  EXPECT_DOUBLE_EQ(decoded->timeout_sec, 0.0);
  EXPECT_FALSE(decoded->want_manifest);
}

TEST(StudyRequestTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(decode_request("").has_value());
  EXPECT_FALSE(decode_request("not json").has_value());
  EXPECT_FALSE(decode_request("[]").has_value());
  EXPECT_FALSE(decode_request("{\"experiments\": 7}").has_value());
  EXPECT_FALSE(decode_request("{\"experiments\": \"\"}").has_value());
  EXPECT_FALSE(decode_request("{\"threads\": -1}").has_value());
  EXPECT_FALSE(decode_request("{\"threads\": 1.5}").has_value());
  EXPECT_FALSE(decode_request("{\"use_cache\": \"yes\"}").has_value());
  EXPECT_FALSE(decode_request("{\"timeout_sec\": -2}").has_value());
  EXPECT_FALSE(decode_request("{\"retries\": \"three\"}").has_value());
  EXPECT_FALSE(decode_request("{\"study_seed\": \"\"}").has_value());
  EXPECT_FALSE(decode_request("{\"study_seed\": \"12x\"}").has_value());
  // One past UINT64_MAX must be rejected, not wrapped.
  EXPECT_FALSE(
      decode_request("{\"study_seed\": \"18446744073709551616\"}")
          .has_value());
  // A pool above stats::kMaxThreads could end the daemon for every client.
  EXPECT_TRUE(decode_request("{\"threads\": 256}").has_value());
  EXPECT_FALSE(decode_request("{\"threads\": 257}").has_value());
  EXPECT_FALSE(decode_request("{\"threads\": 9000000000000000}").has_value());
}

TEST(StudyStatusTest, RoundTripsStatusAndError) {
  StudyStatus status;
  status.status = "partial";
  status.exit_code = 3;
  status.error = "e13 failed after retries";
  const std::optional<StudyStatus> decoded =
      decode_status(encode_status(status));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, "partial");
  EXPECT_EQ(decoded->exit_code, 3);
  EXPECT_EQ(decoded->error, "e13 failed after retries");
}

TEST(StudyStatusTest, SessionExitCodesExtendTheDriverTaxonomy) {
  // 0–3 belong to the driver (cli/driver.h); the session codes must not
  // collide with them.
  EXPECT_EQ(kExitBusy, 4);
  EXPECT_EQ(kExitTransport, 5);
}

TEST(StudyStatusTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(decode_status("").has_value());
  EXPECT_FALSE(decode_status("[]").has_value());
  EXPECT_FALSE(decode_status("{\"status\": 1}").has_value());
  EXPECT_FALSE(decode_status("{\"status\": \"\"}").has_value());
  EXPECT_FALSE(decode_status("{\"exit_code\": 999}").has_value());
  EXPECT_FALSE(decode_status("{\"exit_code\": \"ok\"}").has_value());
}

}  // namespace
}  // namespace vdbench::net
