// Hostile-input fuzzing of the store readers: seeded 1-3 byte mutations
// (overwrite, insert, delete) of a real campaign store. Whatever the bytes,
// recovery-on-open must not throw or crash, must account for every
// non-empty line as either loaded or quarantined, and must leave behind a
// store whose every line verifies and re-opens clean.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <string_view>

#include "vinoc/campaign/campaign_spec.hpp"
#include "vinoc/campaign/engine.hpp"
#include "vinoc/campaign/report.hpp"
#include "vinoc/campaign/result_cache.hpp"
#include "vinoc/campaign/shard_merge.hpp"
#include "vinoc/io/jsonl.hpp"

#include "mutate.hpp"

namespace vinoc::campaign {
namespace {

namespace fs = std::filesystem;
using testing_util::mutate;

constexpr int kMutations = 320;

/// The store a tiny real campaign writes (one synthetic scenario, 8 jobs).
std::string real_store_text(const fs::path& dir) {
  CampaignSpec spec;
  spec.name = "fuzz";
  SyntheticScenario family;
  family.params.cores = 9;
  family.params.hubs = 2;
  spec.synthetic.push_back(family);
  spec.strategies = {"logical", "comm"};
  spec.island_counts = {2, 3};
  spec.widths = {32, 64};
  CampaignOptions opt;
  opt.threads = 1;
  opt.cache_dir = dir.string();
  (void)run_campaign(spec, opt);
  std::string text;
  EXPECT_TRUE(io::read_file((dir / "store.jsonl").string(), text));
  return text;
}

std::size_t non_empty_lines(std::string_view text) {
  std::size_t n = 0;
  while (!text.empty()) {
    if (!io::next_line(text).empty()) ++n;
  }
  return n;
}

TEST(StoreFuzz, MutatedStoresRecoverWithoutLosingCount) {
  const fs::path base = fs::path(testing::TempDir()) / "vinoc_store_fuzz";
  fs::remove_all(base);
  const std::string original = real_store_text(base / "source");
  ASSERT_EQ(non_empty_lines(original), 8u);

  std::mt19937 rng(20260917u);
  std::size_t total_recovered = 0;
  for (int trial = 0; trial < kMutations; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string text = mutate(original, rng);
    const fs::path dir = base / "trial";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "store.jsonl").string();
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    const std::size_t lines = non_empty_lines(text);

    // The read-only readers first: they never rewrite the file.
    VerifyStats verify;
    ASSERT_NO_THROW(verify = verify_stores(dir.string()));
    EXPECT_EQ(verify.records + verify.checksum_failures + verify.parse_failures,
              lines);
    ResultCache side;
    std::size_t side_loaded = 0;
    ASSERT_NO_THROW(side_loaded = side.load_side_store(path));

    ResultCache cache(dir.string());
    StoreRecoveryStats stats;
    ASSERT_NO_THROW(stats = cache.load_store());
    EXPECT_EQ(stats.loaded + stats.recovered, lines);
    EXPECT_EQ(side_loaded, stats.loaded);
    total_recovered += stats.recovered;

    // The store left on disk is clean: no blank line, no torn tail, and
    // every line verifies, is served, and is what the served record
    // re-encodes to.
    std::string after;
    ASSERT_TRUE(io::read_file(path, after));
    EXPECT_EQ(after.find("\n\n"), std::string::npos);
    EXPECT_TRUE(after.empty() || (after.front() != '\n' && after.back() == '\n'));
    EXPECT_EQ(non_empty_lines(after), stats.loaded);
    for (std::string_view rest = after; !rest.empty();) {
      const std::string_view line = io::next_line(rest);
      std::string payload;
      ASSERT_EQ(io::verify_line_checksum(line, &payload),
                io::ChecksumStatus::kOk);
      JobRecord rec;
      ASSERT_TRUE(record_from_jsonl(payload, rec));
      const auto served = cache.find_record(rec.key);
      ASSERT_TRUE(served.has_value());
      const std::string again = io::add_line_checksum(record_to_jsonl(*served));
      EXPECT_EQ(io::verify_line_checksum(again, nullptr),
                io::ChecksumStatus::kOk);
      EXPECT_EQ(again, line);
    }

    // Recovery converges: a second open finds nothing left to repair.
    ResultCache reopened(dir.string());
    const StoreRecoveryStats second = reopened.load_store();
    EXPECT_EQ(second.loaded, stats.loaded);
    EXPECT_EQ(second.recovered, 0u);
    EXPECT_FALSE(second.rewritten);
  }
  // The mutations do reach the checksums, not only blank space.
  EXPECT_GT(total_recovered, static_cast<std::size_t>(kMutations) / 2);
  fs::remove_all(base);
}

}  // namespace
}  // namespace vinoc::campaign
