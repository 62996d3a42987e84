// Host-speed calibration: a fixed shortest-path kernel whose time tracks how
// fast the cores the benchmark runs on are at the moment. On a shared host
// that speed drifts by a third within seconds, so every timing the benchmark
// reports is scaled by the calibration taken around it (see README.md).
//
// The kernel is the benchmark's own code and never changes with the
// program: Dijkstra with a binary heap over a fixed pseudo-random graph that
// fits in L2, the same kind of work as the router that dominates synthesis.
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr int kNodes = 4096;
constexpr int kDegree = 6;
/// Shortest-path trees per calibration, per thread: about 0.1 s on an
/// unloaded 2.0 GHz Xeon core.
constexpr int kTrees = 120;

struct Graph {
  std::vector<int> offset;
  std::vector<int> target;
  std::vector<float> weight;
};

const Graph& graph() {
  static const Graph g = [] {
    Graph built;
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    const auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    built.offset.push_back(0);
    for (int v = 0; v < kNodes; ++v) {
      for (int k = 0; k < kDegree; ++k) {
        built.target.push_back(static_cast<int>(next() % kNodes));
        built.weight.push_back(1.0f + static_cast<float>(next() % 1000) / 100.0f);
      }
      built.offset.push_back(static_cast<int>(built.target.size()));
    }
    return built;
  }();
  return g;
}

/// Sum of the distances from `source`, so the work cannot be optimised away.
double shortest_path_tree(const Graph& g, int source, std::vector<float>& dist) {
  constexpr float kUnreached = 1e30f;
  dist.assign(kNodes, kUnreached);
  using Item = std::pair<float, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue;
  dist[source] = 0.0f;
  queue.push({0.0f, source});
  while (!queue.empty()) {
    const auto [d, v] = queue.top();
    queue.pop();
    if (d > dist[v]) continue;
    for (int e = g.offset[v]; e < g.offset[v + 1]; ++e) {
      const float nd = d + g.weight[e];
      if (nd < dist[g.target[e]]) {
        dist[g.target[e]] = nd;
        queue.push({nd, g.target[e]});
      }
    }
  }
  double sum = 0.0;
  for (const float x : dist) sum += x < kUnreached ? x : 0.0f;
  return sum;
}

double kernel() {
  const Graph& g = graph();
  std::vector<float> dist;
  double sum = 0.0;
  for (int t = 0; t < kTrees; ++t) sum += shortest_path_tree(g, (t * 977) % kNodes, dist);
  return sum;
}

}  // namespace

double calibration_s(int threads) {
  (void)graph();  // built once, before any clock starts
  std::vector<double> sums(static_cast<std::size_t>(threads), 0.0);
  std::vector<double> took(static_cast<std::size_t>(threads), 0.0);
  const auto timed_kernel = [&sums, &took](std::size_t i) {
    const Clock::time_point t0 = Clock::now();
    sums[i] = kernel();
    took[i] = seconds_since(t0);
  };
  std::vector<std::thread> helpers;
  for (int i = 1; i < threads; ++i) {
    helpers.emplace_back(timed_kernel, static_cast<std::size_t>(i));
  }
  timed_kernel(0);
  for (std::thread& helper : helpers) helper.join();
  double mean = 0.0;
  for (std::size_t i = 0; i < sums.size(); ++i) {
    if (sums[i] != sums[0]) throw std::runtime_error("calibration kernel is not deterministic");
    mean += took[i] / static_cast<double>(threads);
  }
  return mean;
}

}  // namespace perfbench
