// Memory regression: a parsed JSON document costs a small multiple of its
// input. A ground-truth manifest once parsed into 10.7 times its size in
// heap, a node per value with an inline string, vector and map each. The
// compact document (16-byte values in one array, see the static_assert in
// report/json_reader.h, with unescaped strings viewing the input) must
// stay within 3 times. What it holds is the growth of malloc's heap while
// it is alive plus the blocks it mapped outside malloc.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstddef>
#include <optional>
#include <string>

#include "corpus/synthetic.h"
#include "experiments.h"
#include "report/json_reader.h"

// Sanitizer runtimes replace malloc, so glibc's statistics see nothing of
// what the document allocates there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VDBENCH_SANITIZER_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define VDBENCH_SANITIZER_HEAP 1
#endif
#endif

namespace vdbench::corpus {
namespace {

// Bytes the program holds from malloc: in-use arena chunks plus mmapped
// blocks.
std::ptrdiff_t heap_in_use() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<std::ptrdiff_t>(info.uordblks + info.hblkhd);
}

TEST(DocumentMemoryTest, ParsedManifestHoldsAtMostThreeTimesItsInput) {
#ifdef VDBENCH_SANITIZER_HEAP
  GTEST_SKIP() << "sanitizer build: its allocator bypasses glibc malloc, "
                  "so mallinfo2 cannot see the document";
#endif
  // E19's four ecosystems (prevalences and CWE mixes) at 12,500 sites each.
  SyntheticCorpusSpec spec;
  spec.name = "memory";
  spec.seed = 7;
  for (const SyntheticCorpusSpec& e19 : bench::e19_corpus_specs()) {
    for (SyntheticEcosystemSpec eco : e19.ecosystems) {
      eco.sites = 12'500;
      spec.ecosystems.push_back(eco);
    }
  }
  const std::string text = render_manifest(synthesize_manifest(spec));

  const std::ptrdiff_t before = heap_in_use();
  const std::optional<report::JsonDocument> doc = report::parse_json(text);
  ASSERT_TRUE(doc.has_value());
  const std::ptrdiff_t held = heap_in_use() - before +
                              static_cast<std::ptrdiff_t>(doc->mapped_bytes());
  EXPECT_GT(held, 0);
  ASSERT_EQ(doc->root().member("ecosystems")->as_array()->size(), 4u);

  const auto input = static_cast<std::ptrdiff_t>(text.size());
  EXPECT_LE(held, 3 * input)
      << "a " << input << "-byte manifest's document holds " << held
      << " bytes, " << static_cast<double>(held) / static_cast<double>(input)
      << "x its input";
}

}  // namespace
}  // namespace vdbench::corpus
