#include "net/frame.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>

#include "fault/injector.h"

namespace vdbench::net {
namespace {

// In-memory byte source over `bytes`, advancing `pos`; a read past the end
// throws TransportError exactly like a socket EOF.
ReadExactFn string_reader(const std::string& bytes, std::size_t& pos) {
  return [&bytes, &pos](char* dst, std::size_t n) {
    if (pos + n > bytes.size())
      throw TransportError("short read in test source");
    std::memcpy(dst, bytes.data() + pos, n);
    pos += n;
  };
}

class FrameTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::global().disarm(); }
  void TearDown() override { fault::Injector::global().disarm(); }
};

// Bytes of the lowercase hex string `text` (even length, no separators).
std::string from_hex(std::string_view text) {
  std::string out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2)
    out.push_back(static_cast<char>(
        std::stoi(std::string(text.substr(i, 2)), nullptr, 16)));
  return out;
}

// One frame of each type, with its head (magic .. length) and trailer.
struct DocumentedFrame {
  FrameType type;
  std::string payload;
  std::string_view head_hex;
  std::string_view trailer_hex;
};

// The bytes of frame.h's layout, spelled out for one frame of each type:
// magic, version, type, reserved u16, payload length u32 LE, the payload,
// then the u32 LE CRC-32C of everything after the magic. The expected hex
// was computed from the layout comment with a bitwise CRC-32C
// (tests/support/envelope_pins.py), not from the encoder, so a codec that
// changed byte order, checksum or coverage fails here even though its own
// encoder and reader still agree.
TEST_F(FrameTest, EncodesTheDocumentedBytes) {
  const DocumentedFrame cases[] = {
      {FrameType::kRequest, R"({"experiments":"e1"})",
       "56444e46" "02" "01" "0000" "14000000", "b6aab62a"},
      {FrameType::kProgress, "ok\n",
       "56444e46" "02" "02" "0000" "03000000", "169c9682"},
      {FrameType::kExport, "",
       "56444e46" "02" "03" "0000" "00000000", "9c3d55a6"},
      {FrameType::kManifest, "{}",
       "56444e46" "02" "04" "0000" "02000000", "58b4c4ad"},
      {FrameType::kStatus, std::string(258, 's'),
       "56444e46" "02" "05" "0000" "02010000", "dbb90d1f"},
  };
  for (const DocumentedFrame& c : cases) {
    const std::string expected =
        from_hex(c.head_hex) + c.payload + from_hex(c.trailer_hex);
    EXPECT_EQ(encode_frame(c.type, c.payload), expected)
        << "frame type " << static_cast<int>(c.type);
    // The reader takes the documented bytes back to the same frame.
    std::size_t pos = 0;
    const Frame frame = read_frame(string_reader(expected, pos), kRoleClient);
    EXPECT_EQ(frame.type, c.type);
    EXPECT_EQ(frame.payload, c.payload);
  }
}

// The same frames as wire version 1 sent them, each closed by a u64 LE
// FNV-1a (`envelope_pins.py --version 1`). The reader refuses each by its
// version byte, before any trailer is read.
TEST_F(FrameTest, RejectsTheVersion1Bytes) {
  const DocumentedFrame cases[] = {
      {FrameType::kRequest, R"({"experiments":"e1"})",
       "56444e46" "01" "01" "0000" "14000000", "87fcd8092003cea2"},
      {FrameType::kProgress, "ok\n",
       "56444e46" "01" "02" "0000" "03000000", "63bfacec5f60f6d5"},
      {FrameType::kExport, "",
       "56444e46" "01" "03" "0000" "00000000", "3568a612c8a3c4d9"},
      {FrameType::kManifest, "{}",
       "56444e46" "01" "04" "0000" "02000000", "ea877a26b8feefbb"},
      {FrameType::kStatus, std::string(258, 's'),
       "56444e46" "01" "05" "0000" "02010000", "b4f6cb64abb98918"},
  };
  for (const DocumentedFrame& c : cases) {
    const std::string wire =
        from_hex(c.head_hex) + c.payload + from_hex(c.trailer_hex);
    std::size_t pos = 0;
    try {
      (void)read_frame(string_reader(wire, pos), kRoleClient);
      ADD_FAILURE() << "a version 1 frame was read";
    } catch (const FrameCorrupt& error) {
      EXPECT_EQ(std::string(error.what()),
                "net frame corrupt: wire version 1 (expected 2)");
    }
  }
}

TEST_F(FrameTest, RoundTripsEveryFrameType) {
  for (const FrameType type :
       {FrameType::kRequest, FrameType::kProgress, FrameType::kExport,
        FrameType::kManifest, FrameType::kStatus}) {
    const std::string wire = encode_frame(type, "payload bytes");
    std::size_t pos = 0;
    const Frame frame = read_frame(string_reader(wire, pos), kRoleClient);
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, "payload bytes");
    EXPECT_EQ(pos, wire.size());  // nothing left over
  }
}

TEST_F(FrameTest, RoundTripsEmptyAndBinaryPayloads) {
  std::string binary("\x00\x01\xff\xfe-binary\n\r", 11);
  for (const std::string& payload : {std::string(), binary}) {
    const std::string wire = encode_frame(FrameType::kExport, payload);
    std::size_t pos = 0;
    const Frame frame = read_frame(string_reader(wire, pos), kRoleClient);
    EXPECT_EQ(frame.payload, payload);
  }
}

TEST_F(FrameTest, WriteFrameEmitsTheEncodedBytes) {
  std::string sent;
  write_frame([&](const char* src,
                  std::size_t n) { sent.append(src, n); },
              FrameType::kStatus, "{}", kRoleClient);
  EXPECT_EQ(sent, encode_frame(FrameType::kStatus, "{}"));
}

TEST_F(FrameTest, RejectsBadMagic) {
  std::string wire = encode_frame(FrameType::kStatus, "x");
  wire[0] = 'X';
  std::size_t pos = 0;
  EXPECT_THROW(read_frame(string_reader(wire, pos), kRoleClient),
               FrameCorrupt);
}

TEST_F(FrameTest, RejectsVersionSkew) {
  std::string wire = encode_frame(FrameType::kStatus, "x");
  wire[4] = static_cast<char>(kWireVersion + 1);
  std::size_t pos = 0;
  EXPECT_THROW(read_frame(string_reader(wire, pos), kRoleClient),
               FrameCorrupt);
}

TEST_F(FrameTest, TruncatedTailIsATransportErrorNotAShortFrame) {
  const std::string wire = encode_frame(FrameType::kExport, "payload");
  for (const std::size_t keep : {wire.size() - 1, wire.size() / 2,
                                 std::size_t{5}, std::size_t{0}}) {
    const std::string cut = wire.substr(0, keep);
    std::size_t pos = 0;
    EXPECT_THROW(read_frame(string_reader(cut, pos), kRoleClient),
                 TransportError);
  }
}

TEST_F(FrameTest, RejectsUnknownFrameType) {
  // Type byte 9 is unassigned; rebuild the checksum so only the type is
  // wrong — the reader must still reject it.
  const std::string payload = "x";
  std::string wire = encode_frame(FrameType::kStatus, payload);
  // Patch type and recompute: easiest is to encode with a valid type and
  // assert the reader checks the range AFTER the checksum.
  wire = encode_frame(static_cast<FrameType>(9), payload);
  std::size_t pos = 0;
  EXPECT_THROW(read_frame(string_reader(wire, pos), kRoleClient),
               FrameCorrupt);
}

TEST_F(FrameTest, NetReadFaultRaisesTransportError) {
  fault::Injector::global().arm("net.read=io_error@client:1");
  const std::string wire = encode_frame(FrameType::kStatus, "{}");
  std::size_t pos = 0;
  EXPECT_THROW(read_frame(string_reader(wire, pos), kRoleClient),
               TransportError);
  // The schedule fired once; the retry reads clean.
  pos = 0;
  EXPECT_EQ(read_frame(string_reader(wire, pos), kRoleClient).payload, "{}");
}

TEST_F(FrameTest, NetReadFaultKeyFilterScopesToOneRole) {
  fault::Injector::global().arm("net.read=io_error@server:1");
  const std::string wire = encode_frame(FrameType::kStatus, "{}");
  std::size_t pos = 0;
  // Client-role reads never match a server-keyed rule.
  EXPECT_NO_THROW(
      (void)read_frame(string_reader(wire, pos), kRoleClient));
  pos = 0;
  EXPECT_THROW(read_frame(string_reader(wire, pos), kRoleServer),
               TransportError);
}

TEST_F(FrameTest, NetFrameCorruptFaultIsRejectedByChecksum) {
  fault::Injector::global().arm("net.frame=corrupt@client:1");
  const std::string wire = encode_frame(FrameType::kExport, "payload");
  std::size_t pos = 0;
  EXPECT_THROW(read_frame(string_reader(wire, pos), kRoleClient),
               FrameCorrupt);
}

TEST_F(FrameTest, NetFrameTruncateFaultIsRejectedByChecksum) {
  fault::Injector::global().arm("net.frame=truncate@client:1");
  const std::string wire = encode_frame(FrameType::kExport, "payload");
  std::size_t pos = 0;
  EXPECT_THROW(read_frame(string_reader(wire, pos), kRoleClient),
               FrameCorrupt);
}

TEST_F(FrameTest, NetWriteFaultRaisesTransportErrorBeforeAnyBytes) {
  fault::Injector::global().arm("net.write=io_error@client:1");
  std::string sent;
  EXPECT_THROW(
      write_frame([&](const char* src,
                      std::size_t n) { sent.append(src, n); },
                  FrameType::kStatus, "{}", kRoleClient),
      TransportError);
  EXPECT_TRUE(sent.empty());  // the fault fires before the torn write
}

TEST_F(FrameTest, OversizedDeclaredLengthIsRejected) {
  std::string wire = encode_frame(FrameType::kExport, "x");
  // Declared length field lives at offset 8..11 (after magic + ver + type
  // + reserved); blow it past the cap.
  wire[8] = '\xff';
  wire[9] = '\xff';
  wire[10] = '\xff';
  wire[11] = '\x7f';
  std::size_t pos = 0;
  EXPECT_THROW(read_frame(string_reader(wire, pos), kRoleClient),
               FrameCorrupt);
}

}  // namespace
}  // namespace vdbench::net
