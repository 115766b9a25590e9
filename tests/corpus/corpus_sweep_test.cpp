// Every-truncation-point-is-loud sweep: for a representative manifest and
// SARIF report, EVERY strict prefix must be rejected with a typed,
// offset-bearing CorpusError — the readers never degrade to a silent short
// parse. A companion bit-flip sweep checks single-bit damage is either
// rejected or visibly changes the parse (JSON extensibility makes a small
// number of flips in ignorable member names legitimately silent; the sweep
// bounds that fraction).
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "corpus/error.h"
#include "corpus/manifest.h"
#include "corpus/sarif.h"
#include "corpus/synthetic.h"
#include "sweep_corpus.h"

namespace vdbench::corpus {
namespace {

using sweep::sweep_manifest_doc;
using sweep::sweep_sarif_doc;

template <typename ParseFn>
void expect_every_prefix_loud(const std::string& doc, ParseFn parse) {
  ASSERT_FALSE(doc.empty());
  for (std::size_t len = 0; len < doc.size(); ++len) {
    const std::string prefix = doc.substr(0, len);
    try {
      parse(prefix);
      FAIL() << "prefix of length " << len << " of " << doc.size()
             << " bytes parsed silently";
    } catch (const CorpusError& e) {
      // The offset always points inside (or just past) the prefix.
      EXPECT_LE(e.offset, prefix.size()) << "prefix length " << len;
    }
  }
}

// Flip each byte's bit (cycling through the 8 bit positions) and demand the
// damage is loud: a CorpusError, or a parse whose canonical re-render
// differs from the original. Returns the number of silent flips.
template <typename ParseRender>
std::size_t flip_sweep(const std::string& doc, ParseRender parse_render) {
  std::size_t silent = 0;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    std::string flipped = doc;
    flipped[i] = static_cast<char>(
        static_cast<unsigned char>(flipped[i]) ^ (1u << (i % 8)));
    try {
      if (parse_render(flipped) == doc) ++silent;
    } catch (const CorpusError&) {
      // loud: rejected outright
    }
  }
  return silent;
}

TEST(CorpusSweepTest, EveryManifestTruncationPointIsLoud) {
  expect_every_prefix_loud(sweep_manifest_doc(), [](const std::string& text) {
    return parse_manifest(text);
  });
}

TEST(CorpusSweepTest, EverySarifTruncationPointIsLoud) {
  expect_every_prefix_loud(sweep_sarif_doc(), [](const std::string& text) {
    return parse_sarif(text);
  });
}

TEST(CorpusSweepTest, ManifestBitFlipsAreRejectedOrChangeTheParse) {
  const std::string doc = sweep_manifest_doc();
  const std::size_t silent = flip_sweep(doc, [](const std::string& text) {
    return render_manifest(parse_manifest(text));
  });
  // The only legitimately silent flips land in an optional member's name
  // (the member becomes an ignored unknown and its default coincides with
  // the original value). That is a tiny sliver of the document.
  EXPECT_LE(silent * 20, doc.size()) << silent << " silent flips of "
                                     << doc.size();
}

TEST(CorpusSweepTest, SarifBitFlipsAreRejectedOrChangeTheParse) {
  const std::string doc = sweep_sarif_doc();
  const std::size_t silent = flip_sweep(doc, [](const std::string& text) {
    return render_sarif_report(parse_sarif(text));
  });
  EXPECT_LE(silent * 20, doc.size()) << silent << " silent flips of "
                                     << doc.size();
}

TEST(CorpusSweepTest, TornTailReportsAnOffsetInsideTheDocument) {
  // The specific shape CI's torn-corpus leg exercises: the tail half gone.
  const std::string doc = sweep_manifest_doc();
  const std::string torn = doc.substr(0, doc.size() / 2);
  try {
    (void)parse_manifest(torn);
    FAIL() << "torn manifest accepted";
  } catch (const CorpusError& e) {
    EXPECT_GT(e.offset, 0u);
    EXPECT_LE(e.offset, torn.size());
    EXPECT_NE(std::string(e.what()).find("corrupt"), std::string::npos);
  }
}

}  // namespace
}  // namespace vdbench::corpus
