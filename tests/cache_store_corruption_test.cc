// Corruption suite for the persistent synthesis cache (ISSUE 3): a truncated
// file, a flipped payload or checksum byte, a wrong magic or format version,
// an empty file, and trailing garbage must each load as a *cold* cache with
// the stats flagging the reason — never an abort, never a partial load — and
// saving over a corrupt file must recover a valid one.
#include "engine/cache_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include "cache_lookup.h"
#include "test_temp_path.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/synthesis_hierarchy.h"
#include "engine/synthesis_cache.h"

namespace p2::engine {
namespace {

using core::ParallelismMatrix;
using core::SynthesisHierarchy;
using core::SynthesisHierarchyKind;

std::string TempPath(const std::string& tag) {
  return p2::test::TempPath("p2_cache_corruption_test", tag);
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

SynthesisHierarchy SmallHierarchy(std::int64_t inner) {
  const ParallelismMatrix m({{2, inner}});
  const std::vector<int> raxes = {0};
  return SynthesisHierarchy::Build(m, raxes,
                                   SynthesisHierarchyKind::kReductionAxes);
}

// A valid two-entry cache file image to corrupt.
std::string ValidImage() {
  core::SynthesisOptions options;
  options.max_program_size = 2;
  SynthesisCache cache;
  LookupOrSynthesize(cache, SmallHierarchy(2), options);
  LookupOrSynthesize(cache, SmallHierarchy(3), options);
  std::vector<CacheFileEntry> entries;
  for (auto& [key, result] : cache.Snapshot()) {
    entries.push_back(CacheFileEntry{std::move(key), std::move(result)});
  }
  return CacheStore::EncodeFile(entries);
}

// Every corruption must (a) report the expected status, (b) yield zero
// entries, and (c) leave a SynthesisCache cold and usable via LoadInto.
void ExpectColdLoad(const std::string& bytes, CacheLoadStatus expected,
                    const std::string& tag) {
  const std::string path = TempPath(tag);
  WriteFile(path, bytes);
  CacheStore store(path);

  const CacheFileContents contents = store.Load();
  EXPECT_EQ(contents.status, expected) << tag << ": " << contents.message;
  EXPECT_TRUE(IsCorrupt(contents.status)) << tag;
  EXPECT_FALSE(contents.message.empty()) << tag;
  EXPECT_TRUE(contents.entries.empty()) << tag;

  SynthesisCache cache;
  EXPECT_EQ(store.LoadInto(&cache), expected) << tag;
  EXPECT_EQ(store.last_load_status(), expected) << tag;
  EXPECT_EQ(store.entries_loaded(), 0) << tag;
  EXPECT_EQ(cache.size(), 0u) << tag;
  // The cold cache still synthesizes on demand — corruption never wedges it.
  core::SynthesisOptions options;
  options.max_program_size = 2;
  const auto result = LookupOrSynthesize(cache, SmallHierarchy(2), options);
  EXPECT_FALSE(result->programs.empty()) << tag;
  EXPECT_EQ(cache.stats().misses, 1) << tag;
  std::filesystem::remove(path);
}

TEST(CacheStoreCorruption, EmptyFileLoadsCold) {
  ExpectColdLoad("", CacheLoadStatus::kTruncated, "empty");
}

TEST(CacheStoreCorruption, TruncatedHeaderLoadsCold) {
  ExpectColdLoad(ValidImage().substr(0, 10), CacheLoadStatus::kTruncated,
                 "short_header");
}

TEST(CacheStoreCorruption, TruncatedEntryLoadsCold) {
  const std::string image = ValidImage();
  ExpectColdLoad(image.substr(0, image.size() - 7),
                 CacheLoadStatus::kTruncated, "short_entry");
  // Cutting exactly at an entry frame boundary is still a truncation: the
  // header promises more entries than the file holds.
  ExpectColdLoad(image.substr(0, 16), CacheLoadStatus::kTruncated,
                 "frame_boundary");
}

TEST(CacheStoreCorruption, FlippedPayloadByteFailsTheChecksum) {
  std::string image = ValidImage();
  image.back() = static_cast<char>(image.back() ^ 0x40);
  ExpectColdLoad(image, CacheLoadStatus::kChecksumMismatch, "payload_flip");
}

TEST(CacheStoreCorruption, FlippedChecksumByteFailsTheChecksum) {
  std::string image = ValidImage();
  // Byte 20 sits inside the first entry's stored checksum (header is 16
  // bytes, then 4 bytes of payload length).
  image[20] = static_cast<char>(image[20] ^ 0x01);
  ExpectColdLoad(image, CacheLoadStatus::kChecksumMismatch, "checksum_flip");
}

TEST(CacheStoreCorruption, WrongMagicLoadsCold) {
  std::string image = ValidImage();
  image[0] = 'X';
  ExpectColdLoad(image, CacheLoadStatus::kBadMagic, "magic");
  ExpectColdLoad("garbage that is clearly not a cache file",
                 CacheLoadStatus::kBadMagic, "garbage");
}

TEST(CacheStoreCorruption, WrongVersionLoadsCold) {
  std::string image = ValidImage();
  image[4] = static_cast<char>(image[4] ^ 0xff);  // first format-version byte
  ExpectColdLoad(image, CacheLoadStatus::kBadVersion, "version");
}

TEST(CacheStoreCorruption, NeverOverwritesAVersionMismatchedFile) {
  // A version-mismatched file was written by a *different binary*, not
  // corrupted: an old planner must not clobber a newer fleet-shared cache.
  const std::string path = TempPath("version_guard");
  std::string image = ValidImage();
  image[4] = static_cast<char>(image[4] ^ 0xff);
  WriteFile(path, image);

  CacheStore store(path);
  SynthesisCache cache;
  EXPECT_EQ(store.LoadInto(&cache), CacheLoadStatus::kBadVersion);
  core::SynthesisOptions options;
  options.max_program_size = 2;
  LookupOrSynthesize(cache, SmallHierarchy(2), options);
  std::string error;
  EXPECT_FALSE(store.Save(cache, &error));
  EXPECT_NE(error.find("refusing"), std::string::npos);
  EXPECT_EQ(ReadFile(path), image);  // byte-for-byte untouched
  std::filesystem::remove(path);
}

TEST(CacheStoreCorruption, TrailingGarbageLoadsCold) {
  ExpectColdLoad(ValidImage() + "junk", CacheLoadStatus::kBadPayload,
                 "trailing");
}

TEST(CacheStoreCorruption, LyingEntryCountLoadsCold) {
  std::string image = ValidImage();
  image[8] = static_cast<char>(0xff);  // low byte of the entry count
  ExpectColdLoad(image, CacheLoadStatus::kTruncated, "entry_count");
}

TEST(CacheStoreCorruption, ChecksummedButMalformedPayloadLoadsCold) {
  // A payload that passes its checksum yet decodes to an out-of-enum
  // collective: the range checks must reject it, not materialize it.
  CacheFileEntry entry;
  entry.key = "levels:1,2;goal:[0,1];size<=5;cap=1048576";
  entry.result.programs.push_back(
      core::Program{core::Instruction{0, core::Form::InsideGroup(),
                                      core::Collective::kAllReduce}});
  std::vector<CacheFileEntry> entries;
  entries.push_back(entry);
  std::string image = CacheStore::EncodeFile(entries);
  // The collective opcode is the last payload byte before the v2 save-stamp
  // trailer (8 bytes); forge it past the enum and re-stamp the checksum so
  // only the payload validation can catch it.
  const std::size_t payload_begin = 16 + 12;  // header + entry frame
  std::string payload = image.substr(payload_begin);
  const std::size_t opcode_at = payload.size() - 1 - 8;
  payload[opcode_at] = static_cast<char>(200);
  CacheFileEntry decoded;
  EXPECT_FALSE(CacheStore::DecodeEntry(payload, &decoded));

  // Through the file layer the same forgery reads as kBadPayload (checksum
  // re-stamped by rebuilding the frame by hand).
  std::uint64_t h = 14695981039346656037ull;
  for (char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i) {
    image[16 + 4 + static_cast<std::size_t>(i)] =
        static_cast<char>((h >> (8 * i)) & 0xff);
  }
  image[payload_begin + opcode_at] = static_cast<char>(200);
  ExpectColdLoad(image, CacheLoadStatus::kBadPayload, "forged_op");
}

TEST(CacheStoreCorruption, SemanticallyInvalidProgramsLoadCold) {
  // Checksum-valid entries whose programs violate the lowering path's
  // preconditions (out-of-depth slice, non-ancestor form level, junk key)
  // must be rejected at decode time — served as-is they would throw inside
  // core::DeriveGroups and crash the planner.
  const auto image_with = [](const std::string& key,
                             const core::Instruction& instr) {
    CacheFileEntry entry;
    entry.key = key;
    entry.result.programs.push_back(core::Program{instr});
    std::vector<CacheFileEntry> entries;
    entries.push_back(std::move(entry));
    return CacheStore::EncodeFile(entries);
  };
  const std::string key = "levels:1,2;goal:[0,1];size<=5;cap=1048576";

  // Slice level beyond the key's two-level hierarchy.
  ExpectColdLoad(
      image_with(key, core::Instruction{7, core::Form::InsideGroup(),
                                        core::Collective::kAllReduce}),
      CacheLoadStatus::kBadPayload, "slice_out_of_depth");
  // Parallel form whose level is not a strict ancestor of the slice.
  ExpectColdLoad(
      image_with(key, core::Instruction{1, core::Form::Parallel(1),
                                        core::Collective::kAllReduce}),
      CacheLoadStatus::kBadPayload, "non_ancestor_form");
  // InsideGroup must not smuggle an ancestor level.
  ExpectColdLoad(
      image_with(key, core::Instruction{1, core::Form{
                                               core::Form::Kind::kInsideGroup,
                                               0},
                                        core::Collective::kAllReduce}),
      CacheLoadStatus::kBadPayload, "inside_group_ancestor");
  // A key that is not a hierarchy signature gives no depth to validate
  // against, so the entry is rejected outright.
  ExpectColdLoad(
      image_with("not-a-signature",
                 core::Instruction{0, core::Form::InsideGroup(),
                                   core::Collective::kAllReduce}),
      CacheLoadStatus::kBadPayload, "junk_key");
}

TEST(CacheStoreCorruption, SaveOverCorruptFileRecoversAValidOne) {
  const std::string path = TempPath("recover");
  WriteFile(path, "definitely not a cache file");
  CacheStore store(path);
  SynthesisCache cache;
  EXPECT_EQ(store.LoadInto(&cache), CacheLoadStatus::kBadMagic);
  EXPECT_EQ(cache.size(), 0u);

  core::SynthesisOptions options;
  options.max_program_size = 2;
  LookupOrSynthesize(cache, SmallHierarchy(2), options);
  ASSERT_TRUE(store.Save(cache));

  SynthesisCache recovered;
  CacheStore reader(path);
  EXPECT_EQ(reader.LoadInto(&recovered), CacheLoadStatus::kOk)
      << reader.last_load_message();
  EXPECT_EQ(recovered.size(), 1u);
  std::filesystem::remove(path);
}

TEST(CacheStoreCorruption, SaveToUnwritablePathFailsGracefully) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "p2_no_such_dir" /
       "deeper" / "cache.bin")
          .string();
  CacheStore store(path);
  SynthesisCache cache;
  std::string error;
  EXPECT_FALSE(store.Save(cache, &error));
  EXPECT_FALSE(error.empty());
}

TEST(CacheStoreCorruption, SaveIsAtomicAgainstConcurrentReaders) {
  // The save protocol's observable contract: after Save the path holds a
  // complete, checksum-valid file and no temp file is left behind — the
  // rename either happened in full or not at all.
  const std::string path = TempPath("atomic");
  core::SynthesisOptions options;
  options.max_program_size = 2;
  SynthesisCache cache;
  LookupOrSynthesize(cache, SmallHierarchy(2), options);
  CacheStore store(path);
  ASSERT_TRUE(store.Save(cache));
  const auto contents = store.Load();
  EXPECT_EQ(contents.status, CacheLoadStatus::kOk);
  for (const auto& dir_entry : std::filesystem::directory_iterator(
           std::filesystem::path(path).parent_path())) {
    EXPECT_EQ(dir_entry.path().string().find(path + ".tmp."),
              std::string::npos)
        << "temp file left behind: " << dir_entry.path();
  }
  const std::string bytes = ReadFile(path);
  EXPECT_EQ(CacheStore::DecodeFile(bytes).status, CacheLoadStatus::kOk);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace p2::engine
