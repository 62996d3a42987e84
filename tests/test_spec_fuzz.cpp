// Hostile-input fuzzing of the two text parsers a user feeds the CLI: the
// SoC spec format (io::parse_soc_spec_string) and the campaign file format
// (campaign::parse_campaign_spec_string). Seeded 1-3 byte mutations of a
// real d16 spec and of examples/smoke.campaign must never crash or throw:
// a text either fails to parse with its errors listed, or parses into a
// spec that validates. A parsed SoC spec must also survive a write/parse
// round trip, and a parsed campaign either expands into jobs whose
// islanded specs validate or is rejected through expand_jobs' documented
// std::invalid_argument.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "vinoc/campaign/campaign_spec.hpp"
#include "vinoc/io/jsonl.hpp"
#include "vinoc/io/spec_format.hpp"
#include "vinoc/soc/benchmarks.hpp"

#include "mutate.hpp"

namespace vinoc {
namespace {

using testing_util::mutate;

constexpr int kMutations = 600;

/// The characters both line formats are made of: separators, numbers
/// (with exponents, signs, and the letters of "nan" and "inf"), comments
/// and the campaign's `key = value` and `cores:24` spellings.
constexpr std::string_view kSpecSyntax = "\n \t#=:.-+0123456789eEnaif";

TEST(SpecFuzz, MutatedSocSpecsParseOrReportErrors) {
  const std::string original =
      io::write_soc_spec(soc::make_d16_auto_soc().soc);
  const io::ParseResult base = io::parse_soc_spec_string(original);
  ASSERT_TRUE(base.ok);
  ASSERT_TRUE(base.spec.validate().empty());

  std::mt19937 rng(20261020u);
  int parsed = 0;
  for (int trial = 0; trial < kMutations; ++trial) {
    const std::string text = mutate(original, rng, kSpecSyntax);
    SCOPED_TRACE("trial " + std::to_string(trial));
    io::ParseResult r;
    ASSERT_NO_THROW(r = io::parse_soc_spec_string(text));
    if (!r.ok) {
      EXPECT_FALSE(r.errors.empty());
      continue;
    }
    ++parsed;
    // The parser reports the spec's validation problems as its own errors,
    // so whatever parses validates.
    std::vector<std::string> problems;
    ASSERT_NO_THROW(problems = r.spec.validate());
    EXPECT_TRUE(problems.empty()) << problems.front();
    // A parsed spec writes back into text that parses again.
    const io::ParseResult again =
        io::parse_soc_spec_string(io::write_soc_spec(r.spec));
    ASSERT_TRUE(again.ok);
    EXPECT_EQ(again.spec.cores.size(), r.spec.cores.size());
    EXPECT_EQ(again.spec.flows.size(), r.spec.flows.size());
  }
  // The mutations reach both outcomes.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutations);
}

TEST(SpecFuzz, MutatedCampaignFilesParseOrReportErrors) {
  std::string original;
  ASSERT_TRUE(io::read_file(
      std::string(VINOC_SOURCE_DIR) + "/examples/smoke.campaign", original));
  const campaign::CampaignParseResult base =
      campaign::parse_campaign_spec_string(original);
  ASSERT_TRUE(base.ok);

  std::mt19937 rng(20261021u);
  int parsed = 0;
  int expanded = 0;
  for (int trial = 0; trial < kMutations; ++trial) {
    const std::string text = mutate(original, rng, kSpecSyntax);
    SCOPED_TRACE("trial " + std::to_string(trial));
    campaign::CampaignParseResult r;
    ASSERT_NO_THROW(r = campaign::parse_campaign_spec_string(text));
    if (!r.ok) {
      EXPECT_FALSE(r.errors.empty());
      continue;
    }
    ++parsed;
    std::vector<campaign::CampaignJob> jobs;
    try {
      jobs = campaign::expand_jobs(r.spec);
    } catch (const std::invalid_argument&) {
      continue;  // the documented rejection of a well-formed but bad matrix
    }
    ++expanded;
    for (const campaign::CampaignJob& job : jobs) {
      EXPECT_TRUE(job.spec.validate().empty()) << job.name;
      EXPECT_GT(job.width, 0) << job.name;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutations);
  EXPECT_GT(expanded, 0);
}

}  // namespace
}  // namespace vinoc
