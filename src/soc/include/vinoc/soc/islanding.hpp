// Core-to-voltage-island assignment strategies.
//
// The paper (Section 5) studies two ways of grouping the D26 cores into VIs,
// with the island count swept from 1 (reference: everything in one island)
// to 26 (every core its own island):
//   * "logical partitioning": cores grouped by functionality — e.g. all
//     shared memories in one island (which is then never shut down, since
//     shared memories must stay reachable);
//   * "communication based partitioning": cores with high mutual bandwidth
//     grouped together, so heavy flows stay inside an island.
//
// The island assignment is an *input* to topology synthesis; these helpers
// just build the input variants the experiments sweep over.
#pragma once

#include <string>
#include <vector>

#include "vinoc/soc/soc_spec.hpp"

namespace vinoc::soc {

/// Device-level use case expressed on cores (islanding-independent). The
/// islanding helpers translate these into SocSpec::scenarios.
struct UseCase {
  std::string name;
  double time_fraction = 0.0;
  std::vector<std::string> active_cores;
};

/// Ordered functional groups used by logical partitioning; adjacent groups
/// merge first when the island count is smaller than the group count.
/// Group 0 (shared memories) yields a non-shutdown island.
[[nodiscard]] int logical_group_of(CoreKind kind);
[[nodiscard]] int logical_group_count();

/// Rebuilds `base` with AT MOST `island_count` islands assigned by
/// functionality (island_count in [1, core_count()], else
/// std::invalid_argument). Up to logical_group_count() islands, group g
/// goes to island g * island_count / groups; beyond that, the largest
/// groups are split. Islands left without cores (a functional group the
/// SoC does not have) are compacted away, so the result can have fewer
/// islands than asked for: d64 asked for 3 gets 2, asked for 6 gets 4.
/// island_count == core_count() puts every core in its own island.
/// The island containing shared memories (and the single island when
/// only one results) is marked can_shutdown = false.
[[nodiscard]] SocSpec with_logical_islands(const SocSpec& base, int island_count,
                                           const std::vector<UseCase>& use_cases = {});

/// Rebuilds `base` with `island_count` islands by agglomerative clustering of
/// the core communication graph (heaviest-bandwidth pairs merge first).
[[nodiscard]] SocSpec with_communication_islands(
    const SocSpec& base, int island_count,
    const std::vector<UseCase>& use_cases = {});

/// Rebuilds `base` using an explicit assignment (size core_count(), values in
/// [0, island_count)). Used by tests and the text-format loader.
[[nodiscard]] SocSpec with_explicit_islands(const SocSpec& base,
                                            const std::vector<int>& island_of,
                                            int island_count,
                                            const std::vector<UseCase>& use_cases = {});

}  // namespace vinoc::soc
