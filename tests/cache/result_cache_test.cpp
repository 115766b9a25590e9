#include "cache/result_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "cache/hash.h"
#include "cli/experiment.h"
#include "fault/injector.h"

namespace vdbench::cache {
namespace {

namespace fs = std::filesystem;

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vdcache_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ResultCache make_cache(std::uint64_t max_bytes = 1ULL << 20) {
    return ResultCache({dir_, max_bytes});
  }

  fs::path entry_file(const CacheKey& key) const {
    return dir_ / (key.hex() + ".vdc");
  }

  fs::path dir_;
};

CacheKey sample_key() { return {"e1", "cfg{x=1}", 42, 1}; }

TEST(CacheKeyTest, DigestMatchesGoldenValue) {
  // Computed independently (reference FNV-1a implementation); pins the key
  // schema so cached entries stay addressable across processes and builds.
  EXPECT_EQ(sample_key().digest(), 0xeb607be78fdd1ca4ULL);
  EXPECT_EQ(sample_key().hex(), "eb607be78fdd1ca4");
}

TEST(CacheKeyTest, EveryFieldChangesTheDigest) {
  const CacheKey base = sample_key();
  CacheKey k = base;
  k.experiment_id = "e2";
  EXPECT_NE(k.digest(), base.digest());
  k = base;
  k.config = "cfg{x=2}";
  EXPECT_NE(k.digest(), base.digest());
  k = base;
  k.seed = 43;
  EXPECT_NE(k.digest(), base.digest());
  k = base;
  k.schema_version = 2;
  EXPECT_NE(k.digest(), base.digest());
}

TEST_F(ResultCacheTest, EngineSchemaBumpInvalidatesOldEntries) {
  // E17 landed with a schema bump; entries addressed under the previous
  // engine schema must be cache misses for the current engine.
  static_assert(cli::kEngineSchemaVersion >= 2,
                "schema must have been bumped when E17 landed");
  ResultCache cache = make_cache();
  CacheKey stale{"e17", "realtool{services=120}", 42,
                 cli::kEngineSchemaVersion - 1};
  ASSERT_TRUE(cache.store(stale, "old-schema payload", 1));

  CacheKey current = stale;
  current.schema_version = cli::kEngineSchemaVersion;
  EXPECT_FALSE(cache.fetch(current, 2).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  // The stale entry itself is still addressable under its own version.
  EXPECT_TRUE(cache.fetch(stale, 3).has_value());
}

TEST(CacheKeyTest, LengthPrefixPreventsConcatenationCollisions) {
  // Same concatenated bytes, different field split.
  const CacheKey a{"e1x", "y", 0, 1};
  const CacheKey b{"e1", "xy", 0, 1};
  EXPECT_NE(a.digest(), b.digest());
}

TEST(HashTest, Fnv1a64MatchesReferenceVector) {
  EXPECT_EQ(fnv1a64("hello"), 0xa430d84680aabd0bULL);
  std::uint64_t v = 0;
  EXPECT_TRUE(from_hex64("a430d84680aabd0b", v));
  EXPECT_EQ(v, 0xa430d84680aabd0bULL);
  EXPECT_EQ(to_hex64(v), "a430d84680aabd0b");
  EXPECT_FALSE(from_hex64("not-hex", v));
  EXPECT_FALSE(from_hex64("abcd", v));  // wrong width
}

TEST_F(ResultCacheTest, MissThenStoreThenHit) {
  ResultCache cache = make_cache();
  const CacheKey key = sample_key();
  EXPECT_FALSE(cache.fetch(key, 1).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);

  ASSERT_TRUE(cache.store(key, "payload-bytes", 2));
  const auto hit = cache.fetch(key, 3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-bytes");
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

TEST_F(ResultCacheTest, StoreOverwritesPreviousPayload) {
  ResultCache cache = make_cache();
  const CacheKey key = sample_key();
  ASSERT_TRUE(cache.store(key, "old", 1));
  ASSERT_TRUE(cache.store(key, "new-longer-payload", 2));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.total_bytes(), 18u);
  EXPECT_EQ(cache.fetch(key, 3).value(), "new-longer-payload");
}

TEST_F(ResultCacheTest, EntriesSurviveAcrossInstances) {
  const CacheKey key = sample_key();
  {
    ResultCache cache = make_cache();
    ASSERT_TRUE(cache.store(key, "persisted", 1));
  }
  ResultCache reopened = make_cache();
  EXPECT_EQ(reopened.entry_count(), 1u);
  EXPECT_EQ(reopened.fetch(key, 2).value(), "persisted");
}

TEST_F(ResultCacheTest, TruncatedEntryIsCorruptionNotACrash) {
  ResultCache cache = make_cache();
  const CacheKey key = sample_key();
  ASSERT_TRUE(cache.store(key, "some payload", 1));
  // Truncate the file mid-payload.
  std::ofstream(entry_file(key), std::ios::binary | std::ios::trunc)
      << "VDCACHE 1 ";
  EXPECT_FALSE(cache.fetch(key, 2).has_value());
  EXPECT_EQ(cache.stats().corrupt_entries, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // The bad file was deleted; a later store works again.
  EXPECT_FALSE(fs::exists(entry_file(key)));
  ASSERT_TRUE(cache.store(key, "fresh", 3));
  EXPECT_EQ(cache.fetch(key, 4).value(), "fresh");
}

TEST_F(ResultCacheTest, BitFlipFailsTheChecksum) {
  ResultCache cache = make_cache();
  const CacheKey key = sample_key();
  ASSERT_TRUE(cache.store(key, "checksummed payload", 1));
  // Flip one payload byte in place.
  std::string raw;
  {
    std::ifstream in(entry_file(key), std::ios::binary);
    raw.assign(std::istreambuf_iterator<char>(in), {});
  }
  raw.back() ^= 0x01;
  std::ofstream(entry_file(key), std::ios::binary | std::ios::trunc) << raw;
  EXPECT_FALSE(cache.fetch(key, 2).has_value());
  EXPECT_EQ(cache.stats().corrupt_entries, 1u);
}

TEST_F(ResultCacheTest, ForeignFileUnderTheEntryNameIsAMiss) {
  ResultCache cache = make_cache();
  const CacheKey key = sample_key();
  std::ofstream(entry_file(key), std::ios::binary) << "not a cache entry";
  EXPECT_FALSE(cache.fetch(key, 1).has_value());
  EXPECT_EQ(cache.stats().corrupt_entries, 1u);
}

TEST_F(ResultCacheTest, EntryStoredUnderWrongNameIsRejected) {
  ResultCache cache = make_cache();
  const CacheKey key = sample_key();
  CacheKey other = key;
  other.seed = 99;
  ASSERT_TRUE(cache.store(other, "other payload", 1));
  // Copy other's (valid) entry file over key's name: header digest will not
  // match the requested key.
  fs::copy_file(entry_file(other), entry_file(key));
  EXPECT_FALSE(cache.fetch(key, 2).has_value());
  EXPECT_EQ(cache.stats().corrupt_entries, 1u);
  // The impostor is gone, the real entry is untouched.
  EXPECT_FALSE(fs::exists(entry_file(key)));
  EXPECT_EQ(cache.fetch(other, 3).value(), "other payload");
}

TEST_F(ResultCacheTest, LruEvictionRespectsSizeCapAndRecency) {
  ResultCache cache = make_cache(/*max_bytes=*/30);
  const CacheKey k1{"e1", "", 0, 1};
  const CacheKey k2{"e2", "", 0, 1};
  const CacheKey k3{"e3", "", 0, 1};
  ASSERT_TRUE(cache.store(k1, std::string(10, 'a'), 1));
  ASSERT_TRUE(cache.store(k2, std::string(10, 'b'), 2));
  // Touch k1 so k2 is now the least recently used.
  EXPECT_TRUE(cache.fetch(k1, 3).has_value());
  // 10 more bytes exceeds the 30-byte cap => k2 is evicted.
  ASSERT_TRUE(cache.store(k3, std::string(15, 'c'), 4));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.fetch(k1, 5).has_value());
  EXPECT_FALSE(cache.fetch(k2, 6).has_value());
  EXPECT_TRUE(cache.fetch(k3, 7).has_value());
  EXPECT_LE(cache.total_bytes(), 30u);
}

TEST_F(ResultCacheTest, OversizedSinglePayloadStillCaches) {
  ResultCache cache = make_cache(/*max_bytes=*/4);
  const CacheKey key = sample_key();
  ASSERT_TRUE(cache.store(key, "way past the cap", 1));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_TRUE(cache.fetch(key, 2).has_value());
}

TEST_F(ResultCacheTest, AdoptsEntriesMissingFromTheIndex) {
  const CacheKey key = sample_key();
  {
    ResultCache cache = make_cache();
    ASSERT_TRUE(cache.store(key, "orphan", 1));
  }
  // Simulate a crash between entry rename and index rename.
  fs::remove(dir_ / "index.tsv");
  ResultCache reopened = make_cache();
  EXPECT_EQ(reopened.entry_count(), 1u);
  EXPECT_EQ(reopened.fetch(key, 2).value(), "orphan");
}

TEST_F(ResultCacheTest, CorruptIndexLinesAreSkipped) {
  const CacheKey key = sample_key();
  {
    ResultCache cache = make_cache();
    ASSERT_TRUE(cache.store(key, "indexed", 1));
  }
  std::ofstream(dir_ / "index.tsv", std::ios::app)
      << "zzzz-not-hex\t10\t5\n";
  ResultCache reopened = make_cache();
  EXPECT_EQ(reopened.entry_count(), 1u);
  EXPECT_EQ(reopened.fetch(key, 2).value(), "indexed");
}

TEST_F(ResultCacheTest, ResolveDirPrefersExplicitOverEnvironment) {
  EXPECT_EQ(ResultCache::resolve_dir("/explicit/path"),
            fs::path("/explicit/path"));
  EXPECT_EQ(ResultCache::resolve_dir(""), fs::path(".vdbench-cache"));
}

TEST_F(ResultCacheTest, ResolveMaxBytesPrefersExplicitThenDefault) {
  EXPECT_EQ(ResultCache::resolve_max_bytes(123), 123u);
  EXPECT_EQ(ResultCache::resolve_max_bytes(0), 256ULL << 20);
}

// --- injector-driven fault drills ----------------------------------------
//
// The same corruption classes the hand-crafted tests above exercise, but
// produced through the `cache.read` / `cache.write` fault points — the
// exact machinery CI's fault matrix arms via VDBENCH_FAULTS. Every drill
// asserts the recovery invariant: after the fault, a recompute-and-restore
// cycle yields a payload byte-identical to the uninjected run.

class ResultCacheFaultTest : public ResultCacheTest {
 protected:
  void TearDown() override {
    fault::Injector::global().disarm();
    ResultCacheTest::TearDown();
  }
};

TEST_F(ResultCacheFaultTest, InjectedReadIoErrorIsAMissEntryIntact) {
  ResultCache cache = make_cache();
  const CacheKey key = sample_key();
  ASSERT_TRUE(cache.store(key, "payload", 1));
  fault::Injector::global().arm("cache.read=io_error@e1:1");
  EXPECT_FALSE(cache.fetch(key, 2).has_value());  // injected: plain miss
  EXPECT_EQ(cache.stats().corrupt_entries, 0u);   // not corruption
  EXPECT_TRUE(fs::exists(entry_file(key)));       // entry left intact
  const auto again = cache.fetch(key, 3);         // schedule exhausted
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, "payload");
}

TEST_F(ResultCacheFaultTest, InjectedBitFlipFailsChecksumThenRecomputes) {
  ResultCache cache = make_cache();
  const CacheKey key = sample_key();
  ASSERT_TRUE(cache.store(key, "payload", 1));
  fault::Injector::global().arm("cache.read=corrupt@e1:1");
  EXPECT_FALSE(cache.fetch(key, 2).has_value());
  EXPECT_EQ(cache.stats().corrupt_entries, 1u);
  // Recompute-and-store round trip restores the uninjected bytes.
  ASSERT_TRUE(cache.store(key, "payload", 3));
  const auto restored = cache.fetch(key, 4);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, "payload");
}

TEST_F(ResultCacheFaultTest, InjectedTruncationIsCorruptionThenRecomputes) {
  ResultCache cache = make_cache();
  const CacheKey key = sample_key();
  ASSERT_TRUE(cache.store(key, "a payload long enough to truncate", 1));
  fault::Injector::global().arm("cache.read=truncate@e1:1");
  EXPECT_FALSE(cache.fetch(key, 2).has_value());
  EXPECT_EQ(cache.stats().corrupt_entries, 1u);
  EXPECT_FALSE(fs::exists(entry_file(key)));  // bad entry deleted
  ASSERT_TRUE(cache.store(key, "a payload long enough to truncate", 3));
  const auto restored = cache.fetch(key, 4);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, "a payload long enough to truncate");
}

TEST_F(ResultCacheFaultTest, InjectedWriteIoErrorFailsTheStoreCleanly) {
  // Simulates ENOSPC: the store reports failure, nothing lands on disk, and
  // the retry (schedule exhausted) persists the identical entry bytes a
  // clean first-try store would have produced.
  ResultCache cache = make_cache();
  const CacheKey key = sample_key();
  fault::Injector::global().arm("cache.write=io_error@e1:1");
  EXPECT_FALSE(cache.store(key, "payload", 1));
  EXPECT_FALSE(fs::exists(entry_file(key)));
  EXPECT_EQ(cache.stats().stores, 0u);
  ASSERT_TRUE(cache.store(key, "payload", 2));
  const std::string injected_then_stored = [&] {
    std::ifstream in(entry_file(key), std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in), {}};
  }();
  fault::Injector::global().disarm();
  fs::remove(entry_file(key));
  ASSERT_TRUE(cache.store(key, "payload", 3));
  std::ifstream in(entry_file(key), std::ios::binary);
  const std::string clean{std::istreambuf_iterator<char>(in), {}};
  EXPECT_EQ(injected_then_stored, clean);
}

TEST_F(ResultCacheFaultTest, InjectedWriteCorruptionIsCaughtOnNextFetch) {
  // A store that persists damaged bytes (torn write survived the rename) is
  // caught by the checksum on the next fetch and degrades to recompute.
  ResultCache cache = make_cache();
  const CacheKey key = sample_key();
  fault::Injector::global().arm("cache.write=corrupt@e1:1");
  ASSERT_TRUE(cache.store(key, "payload", 1));  // store "succeeds"...
  fault::Injector::global().disarm();
  EXPECT_FALSE(cache.fetch(key, 2).has_value());  // ...fetch catches it
  EXPECT_EQ(cache.stats().corrupt_entries, 1u);
  ASSERT_TRUE(cache.store(key, "payload", 3));
  const auto restored = cache.fetch(key, 4);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, "payload");
}

TEST_F(ResultCacheFaultTest, InjectedThrowPropagatesToTheCaller) {
  ResultCache cache = make_cache();
  const CacheKey key = sample_key();
  fault::Injector::global().arm(
      "cache.read=throw@e1:1;cache.write=throw@e1:1");
  EXPECT_THROW((void)cache.store(key, "payload", 1), fault::InjectedFault);
  EXPECT_THROW((void)cache.fetch(key, 2), fault::InjectedFault);
}

TEST_F(ResultCacheFaultTest, KeyFilteredFaultLeavesOtherExperimentsAlone) {
  ResultCache cache = make_cache();
  const CacheKey e1 = sample_key();
  CacheKey e2 = sample_key();
  e2.experiment_id = "e2";
  ASSERT_TRUE(cache.store(e1, "p1", 1));
  ASSERT_TRUE(cache.store(e2, "p2", 2));
  fault::Injector::global().arm("cache.read=io_error@e2:1");
  EXPECT_TRUE(cache.fetch(e1, 3).has_value());   // unaffected
  EXPECT_FALSE(cache.fetch(e2, 4).has_value());  // injected miss
  EXPECT_TRUE(cache.fetch(e2, 5).has_value());   // schedule exhausted
}

}  // namespace
}  // namespace vdbench::cache
