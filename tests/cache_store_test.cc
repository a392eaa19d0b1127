// Round-trip property tests for the persistent synthesis cache (ISSUE 3):
// encode/decode over randomized hierarchies must reproduce every program
// element-wise and every stats field bit-for-bit, the signature key must be
// stable across global-device renumbering (so a cache written under one
// placement warms an isomorphic one), and equal caches must serialize to
// byte-identical files.
#include "engine/cache_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include "cache_lookup.h"
#include "test_temp_path.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "core/synthesis_hierarchy.h"
#include "core/synthesizer.h"
#include "engine/synthesis_cache.h"

namespace p2::engine {
namespace {

using core::ParallelismMatrix;
using core::SynthesisHierarchy;
using core::SynthesisHierarchyKind;

std::string TempPath(const std::string& tag) {
  return p2::test::TempPath("p2_cache_store_test", tag);
}

// A single-axis placement whose reduction axis factors as `factors` over the
// hardware levels: under kReductionAxes its synthesis hierarchy is exactly
// root + factors, which lets the test dial depth and level sizes directly.
SynthesisHierarchy HierarchyWithLevels(
    const std::vector<std::int64_t>& factors) {
  const ParallelismMatrix m({factors});
  const std::vector<int> raxes = {0};
  return SynthesisHierarchy::Build(m, raxes,
                                   SynthesisHierarchyKind::kReductionAxes);
}

// Randomized hierarchies over the ISSUE's grid — depths 1-4, level sizes 2-5
// — with the total synthesis-device count capped so the suite stays fast.
std::vector<SynthesisHierarchy> RandomHierarchies() {
  std::mt19937 rng(20260729);
  std::uniform_int_distribution<std::int64_t> size_dist(2, 5);
  std::vector<SynthesisHierarchy> hierarchies;
  for (int depth = 1; depth <= 4; ++depth) {
    for (int sample = 0; sample < 3; ++sample) {
      std::vector<std::int64_t> factors;
      std::int64_t product = 1;
      for (int d = 0; d < depth; ++d) {
        std::int64_t f = size_dist(rng);
        while (f > 2 && product * f > 120) --f;
        if (product * f > 120) f = 1;  // keep deep samples within budget
        factors.push_back(f);
        product *= f;
      }
      hierarchies.push_back(HierarchyWithLevels(factors));
    }
  }
  return hierarchies;
}

void ExpectSameResult(const core::SynthesisResult& a,
                      const core::SynthesisResult& b) {
  ASSERT_EQ(a.programs.size(), b.programs.size());
  for (std::size_t i = 0; i < a.programs.size(); ++i) {
    EXPECT_EQ(a.programs[i], b.programs[i]) << "program " << i;
  }
  EXPECT_EQ(a.stats.instructions_tried, b.stats.instructions_tried);
  EXPECT_EQ(a.stats.applications_succeeded, b.stats.applications_succeeded);
  EXPECT_EQ(a.stats.states_visited, b.stats.states_visited);
  EXPECT_EQ(a.stats.states_deduped, b.stats.states_deduped);
  EXPECT_EQ(a.stats.branches_pruned, b.stats.branches_pruned);
  EXPECT_EQ(a.stats.alphabet_size, b.stats.alphabet_size);
  EXPECT_EQ(a.stats.seconds, b.stats.seconds);  // bit-exact through the codec
}

TEST(CacheStoreCodec, EntryRoundTripsOverRandomizedHierarchies) {
  core::SynthesisOptions options;
  options.max_program_size = 3;
  for (const auto& sh : RandomHierarchies()) {
    CacheFileEntry entry;
    entry.key = SynthesisCache::Key(sh, options);
    entry.result = core::SynthesizePrograms(sh, options);

    const std::string payload = CacheStore::EncodeEntry(entry);
    CacheFileEntry decoded;
    ASSERT_TRUE(CacheStore::DecodeEntry(payload, &decoded))
        << "key " << entry.key;
    EXPECT_EQ(decoded.key, entry.key);
    ExpectSameResult(decoded.result, entry.result);
  }
}

TEST(CacheStoreCodec, FileImageRoundTripsAllEntries) {
  core::SynthesisOptions options;
  options.max_program_size = 3;
  std::vector<CacheFileEntry> entries;
  for (const auto& sh : RandomHierarchies()) {
    CacheFileEntry entry;
    entry.key = SynthesisCache::Key(sh, options);
    entry.result = core::SynthesizePrograms(sh, options);
    entries.push_back(std::move(entry));
  }
  const std::string image = CacheStore::EncodeFile(entries);
  const CacheFileContents contents = CacheStore::DecodeFile(image);
  ASSERT_EQ(contents.status, CacheLoadStatus::kOk) << contents.message;
  ASSERT_EQ(contents.entries.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(contents.entries[i].key, entries[i].key);
    ExpectSameResult(contents.entries[i].result, entries[i].result);
  }
}

TEST(CacheStoreCodec, EmptyFileImageIsValid) {
  const std::string image = CacheStore::EncodeFile({});
  const CacheFileContents contents = CacheStore::DecodeFile(image);
  EXPECT_EQ(contents.status, CacheLoadStatus::kOk);
  EXPECT_TRUE(contents.entries.empty());
}

TEST(CacheStore, SaveThenLoadServesIdenticalProgramsFromDisk) {
  core::SynthesisOptions options;
  options.max_program_size = 3;
  const auto hierarchies = RandomHierarchies();

  SynthesisCache cache;
  for (const auto& sh : hierarchies) LookupOrSynthesize(cache, sh, options);
  const std::size_t unique = cache.size();

  const std::string path = TempPath("roundtrip");
  CacheStore store(path);
  ASSERT_TRUE(store.Save(cache));
  EXPECT_EQ(store.entries_saved(), static_cast<std::int64_t>(unique));

  SynthesisCache warmed;
  CacheStore reader(path);
  ASSERT_EQ(reader.LoadInto(&warmed), CacheLoadStatus::kOk)
      << reader.last_load_message();
  EXPECT_EQ(reader.entries_loaded(), static_cast<std::int64_t>(unique));
  EXPECT_EQ(warmed.size(), unique);

  for (const auto& sh : hierarchies) {
    const auto served = LookupOrSynthesize(warmed, sh, options);
    // Served from disk: zero synthesis happened in "this process"...
    EXPECT_EQ(served->stats.seconds, 0.0);
    // ...yet the programs are element-wise identical to a fresh synthesis.
    const auto fresh = core::SynthesizePrograms(sh, options);
    ASSERT_EQ(served->programs.size(), fresh.programs.size());
    for (std::size_t i = 0; i < fresh.programs.size(); ++i) {
      EXPECT_EQ(served->programs[i], fresh.programs[i]);
    }
  }
  EXPECT_EQ(warmed.stats().misses, 0);
  EXPECT_EQ(warmed.stats().disk_hits, warmed.stats().hits);
  EXPECT_GE(warmed.stats().disk_seconds_saved, 0.0);
  std::filesystem::remove(path);
}

TEST(CacheStore, KeyIsStableAcrossDeviceRenumbering) {
  // Two placements of axes (8, 2, 2) differing only in where the
  // non-reduction axes land: isomorphic synthesis problems, so a cache file
  // written under one must warm the other.
  const ParallelismMatrix ma({{1, 8}, {1, 2}, {2, 1}});
  const ParallelismMatrix mb({{1, 8}, {2, 1}, {1, 2}});
  const std::vector<int> raxes = {0};
  const auto sha = SynthesisHierarchy::Build(
      ma, raxes, SynthesisHierarchyKind::kReductionAxes);
  const auto shb = SynthesisHierarchy::Build(
      mb, raxes, SynthesisHierarchyKind::kReductionAxes);
  const core::SynthesisOptions options;
  ASSERT_EQ(SynthesisCache::Key(sha, options),
            SynthesisCache::Key(shb, options));

  SynthesisCache cache;
  LookupOrSynthesize(cache, sha, options);
  const std::string path = TempPath("renumbering");
  CacheStore store(path);
  ASSERT_TRUE(store.Save(cache));

  SynthesisCache warmed;
  CacheStore reader(path);
  ASSERT_EQ(reader.LoadInto(&warmed), CacheLoadStatus::kOk);
  LookupOrSynthesize(warmed, shb, options);  // the *renumbered* placement
  EXPECT_EQ(warmed.stats().disk_hits, 1);
  EXPECT_EQ(warmed.stats().misses, 0);
  std::filesystem::remove(path);
}

TEST(CacheStore, FilesAreByteIdenticalRegardlessOfInsertionOrder) {
  core::SynthesisOptions options;
  options.max_program_size = 2;
  const auto a = HierarchyWithLevels({2, 2});
  const auto b = HierarchyWithLevels({4});
  const auto c = HierarchyWithLevels({3, 2});

  SynthesisCache forward;
  for (const auto* sh : {&a, &b, &c}) {
    LookupOrSynthesize(forward, *sh, options);
  }
  SynthesisCache backward;
  for (const auto* sh : {&c, &b, &a}) {
    LookupOrSynthesize(backward, *sh, options);
  }

  // The snapshot is key-sorted, so the only difference between the two
  // caches — insertion order and measured wall-clock — must not leak into
  // the file image beyond the seconds field. Zero that out by comparing the
  // decoded forms, then check the framing by comparing keys per slot.
  const std::string path_f = TempPath("order_f");
  const std::string path_b = TempPath("order_b");
  ASSERT_TRUE(CacheStore(path_f).Save(forward));
  ASSERT_TRUE(CacheStore(path_b).Save(backward));
  const auto decoded_f = CacheStore(path_f).Load();
  const auto decoded_b = CacheStore(path_b).Load();
  ASSERT_EQ(decoded_f.status, CacheLoadStatus::kOk);
  ASSERT_EQ(decoded_b.status, CacheLoadStatus::kOk);
  ASSERT_EQ(decoded_f.entries.size(), decoded_b.entries.size());
  for (std::size_t i = 0; i < decoded_f.entries.size(); ++i) {
    EXPECT_EQ(decoded_f.entries[i].key, decoded_b.entries[i].key);
    ASSERT_EQ(decoded_f.entries[i].result.programs.size(),
              decoded_b.entries[i].result.programs.size());
    for (std::size_t p = 0; p < decoded_f.entries[i].result.programs.size();
         ++p) {
      EXPECT_EQ(decoded_f.entries[i].result.programs[p],
                decoded_b.entries[i].result.programs[p]);
    }
  }
  std::filesystem::remove(path_f);
  std::filesystem::remove(path_b);
}

TEST(CacheStore, PersistedSecondsSurviveARoundTripForAccounting) {
  core::SynthesisOptions options;
  options.max_program_size = 3;
  const auto sh = HierarchyWithLevels({2, 2, 2});

  SynthesisCache cache;
  const auto result = LookupOrSynthesize(cache, sh, options);
  const double original_seconds = result->stats.seconds;

  const std::string path = TempPath("seconds");
  ASSERT_TRUE(CacheStore(path).Save(cache));

  // Load, hit from disk, and re-save: the persisted wall-clock must survive
  // even though the served result reports zero synthesis time.
  SynthesisCache warmed;
  CacheStore reader(path);
  ASSERT_EQ(reader.LoadInto(&warmed), CacheLoadStatus::kOk);
  LookupOrSynthesize(warmed, sh, options);
  EXPECT_EQ(warmed.stats().disk_seconds_saved, original_seconds);
  ASSERT_TRUE(reader.Save(warmed));

  const auto contents = CacheStore(path).Load();
  ASSERT_EQ(contents.status, CacheLoadStatus::kOk);
  ASSERT_EQ(contents.entries.size(), 1u);
  EXPECT_EQ(contents.entries[0].result.stats.seconds, original_seconds);
  std::filesystem::remove(path);
}

TEST(CacheStore, MissingFileIsACleanColdStart) {
  CacheStore store(TempPath("missing"));
  const auto contents = store.Load();
  EXPECT_EQ(contents.status, CacheLoadStatus::kNoFile);
  EXPECT_FALSE(IsCorrupt(contents.status));
  EXPECT_TRUE(contents.entries.empty());

  SynthesisCache cache;
  EXPECT_EQ(store.LoadInto(&cache), CacheLoadStatus::kNoFile);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(store.entries_loaded(), 0);
}

}  // namespace
}  // namespace p2::engine
