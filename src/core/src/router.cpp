#include "vinoc/core/router.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>

#include "vinoc/core/prune.hpp"
#include "vinoc/obs/trace.hpp"

// Load-bearing inlining hint for the relaxation body (see route_flow): a
// call per surviving target costs ~8% of the evaluation hot path. Non-GNU
// compilers fall back to the optimizer's judgement.
#if defined(__GNUC__) || defined(__clang__)
#define VINOC_ALWAYS_INLINE __attribute__((always_inline))
#else
#define VINOC_ALWAYS_INLINE
#endif

namespace vinoc::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMaxFinite = std::numeric_limits<double>::max();

/// Runtime switch forcing the delta evaluator to verify every replay with
/// the flow's own solo Dijkstra (see set_delta_cert_forced); read once per
/// Router construction (never mid-flow).
std::atomic<bool> g_delta_cert_forced{false};

}  // namespace

bool set_delta_cert_forced(bool enabled) {
  return g_delta_cert_forced.exchange(enabled, std::memory_order_relaxed);
}

bool delta_cert_forced() {
  return g_delta_cert_forced.load(std::memory_order_relaxed);
}

std::vector<std::size_t> bandwidth_descending_order(const soc::SocSpec& spec) {
  std::vector<std::size_t> order(spec.flows.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&spec](std::size_t a, std::size_t b) {
                     return spec.flows[a].bandwidth_bits_per_s >
                            spec.flows[b].bandwidth_bits_per_s;
                   });
  return order;
}

bool link_admissible(soc::IslandId a_isl, soc::IslandId b_isl,
                     soc::IslandId src_isl, soc::IslandId dst_isl) {
  if (src_isl == dst_isl) {
    // Intra-island flow: never leaves its island.
    return a_isl == src_isl && b_isl == src_isl;
  }
  if (a_isl == b_isl) {
    // Intra-island hop inside the source island, the destination island or
    // the intermediate NoC VI.
    return a_isl == src_isl || a_isl == dst_isl || a_isl == kIntermediateIsland;
  }
  // Cross-island hop: direct source->destination, or via the intermediate.
  if (a_isl == src_isl && b_isl == dst_isl) return true;
  if (a_isl == src_isl && b_isl == kIntermediateIsland) return true;
  if (a_isl == kIntermediateIsland && b_isl == dst_isl) return true;
  return false;
}

namespace {

/// Mutable routing state over a topology under construction. All transient
/// buffers live in the caller-provided RouterScratch, reset per construction
/// (assign, never shrink) so a sweep reuses one arena across candidates.
///
/// The per-flow shortest-path search is a Dijkstra over the flow's
/// admissible switches with two bit-exact accelerations:
///  * EXTRACTION uses a lazy (dist, index) min-heap, which pops nodes in
///    exactly the order the dense lowest-dist-then-lowest-index scan would
///    select them (stale entries — a superseded dist or an already-done
///    node — are skipped; every undone finite node always has one fresh
///    entry whose key equals its current dist);
///  * a RELAXATION is skipped outright when a scalar lower bound on the
///    full edge cost cannot beat dist[v] (see route_flow), so the skipped
///    relaxation provably would not have updated anything.
/// Both leave results bit-identical to the naive dense loop. The search
/// (route_flow) yields the flow's hop list and one commit (commit_route)
/// applies it; a delta replay commits a validated record through the same
/// step.
class Router {
 public:
  Router(NocTopology& topo, const soc::SocSpec& spec, const RouterOptions& opts,
         RouterScratch& scratch, const RouteBound* bound,
         DeltaReference* rec_out = nullptr, DeltaRouteState* delta = nullptr)
      : topo_(topo), spec_(spec), opts_(opts), scratch_(scratch), bound_(bound),
        rec_out_(rec_out), delta_(delta) {
    const models::LinkModel link_model(opts.tech);
    const std::size_t n_sw = topo_.switches.size();
    n_ = n_sw;
    scratch_.ports_in.assign(n_sw, 0);
    scratch_.ports_out.assign(n_sw, 0);
    for (std::size_t s = 0; s < n_sw; ++s) {
      scratch_.ports_in[s] = static_cast<int>(topo_.switches[s].cores.size());
      scratch_.ports_out[s] = scratch_.ports_in[s];
    }
    scratch_.link_at.assign(n_sw * n_sw, -1);
    // Power normalizer: opening a "typical" link (quarter-chip wire at the
    // design's peak flow bandwidth, with a FIFO).
    double max_bw = 0.0;
    double max_span = 0.0;
    for (const soc::Flow& f : spec_.flows) {
      max_bw = std::max(max_bw, f.bandwidth_bits_per_s);
    }
    for (const SwitchInst& s : topo_.switches) {
      max_span = std::max({max_span, s.pos.x_mm, s.pos.y_mm});
    }
    const double ref_len = std::max(0.5, max_span / 2.0);
    p_norm_ = link_model.dynamic_power_w(ref_len, std::max(max_bw, 1.0)) +
              models::BisyncFifoModel(opts.tech).dynamic_power_w(
                  std::max(max_bw, 1.0));
    if (p_norm_ <= 0.0) p_norm_ = 1e-3;

    // The edge-cost inner loop runs millions of times per sweep; hoist the
    // model constants and the pure per-switch/per-pair geometry out of it.
    // Every cached expression replicates its model function's operation
    // order exactly (see noc_models.cpp), so costs — and therefore routing
    // decisions — are bit-identical to calling the models per edge.
    const models::Technology& tech = opts_.tech;
    link_dyn_c_ = tech.link_energy_pj_per_bit_mm * 1e-12;
    link_leak_c_ = tech.link_leakage_mw_per_wire_mm * 1e-3;
    fifo_dyn_c_ = tech.fifo_energy_pj_per_bit * 1e-12;
    fifo_leak_w_ = tech.fifo_leakage_mw * 1e-3;
    idle_w_per_hz_ = tech.sw_idle_power_per_port_w_per_hz;
    width_bits_ = static_cast<double>(opts_.link_width_bits);
    hop_lat_intra_ = 1.0 + tech.sw_pipeline_cycles;
    hop_lat_cross_ = static_cast<double>(tech.fifo_latency_cycles) +
                     tech.sw_pipeline_cycles;
    scratch_.max_wire_len.assign(n_sw, 0.0);
    if (opts_.enforce_wire_timing) {
      for (std::size_t s = 0; s < n_sw; ++s) {
        scratch_.max_wire_len[s] =
            link_model.max_unpipelined_length_mm(topo_.switches[s].freq_hz);
      }
    }
    // Flat copies of the per-switch hot fields (SwitchInst drags its core
    // list through the cache otherwise), plus the per-switch crossbar
    // energy/bit at the CURRENT port count, kept in sync by open_link().
    scratch_.island_of.assign(n_sw, 0);
    scratch_.freq_of.assign(n_sw, 0.0);
    scratch_.ebit_of.assign(n_sw, 0.0);
    for (std::size_t s = 0; s < n_sw; ++s) {
      scratch_.island_of[s] = topo_.switches[s].island;
      scratch_.freq_of[s] = topo_.switches[s].freq_hz;
      refresh_ebit(static_cast<int>(s));
    }

    if (bound_ != nullptr && bound_->front != nullptr) {
      power_lb_ = bound_->base_power_lb_w;
      lat_sum_lb_ = bound_->base_latency_sum_cycles;
    }

    // Per-island contiguous index ranges, so each flow's Dijkstra can visit
    // only its admissible switches (source island, destination island, the
    // intermediate VI) instead of the full switch set. Topologies from the
    // synthesis pipeline are always laid out islands-ascending with the
    // intermediates last; anything else (hand-built) falls back to the full
    // range, which is merely slower, never different — inadmissible nodes
    // can neither be relaxed nor extracted (their distance stays infinite).
    const std::size_t n_islands = spec.islands.size();
    island_begin_.assign(n_islands + 1, -1);
    island_end_.assign(n_islands + 1, -1);
    contiguous_ = true;
    for (std::size_t s = 0; s < n_sw; ++s) {
      const soc::IslandId isl = topo_.switches[s].island;
      const std::size_t slot =
          isl == kIntermediateIsland ? n_islands : static_cast<std::size_t>(isl);
      if (island_begin_[slot] < 0) {
        island_begin_[slot] = static_cast<int>(s);
        island_end_[slot] = static_cast<int>(s + 1);
      } else if (island_end_[slot] == static_cast<int>(s)) {
        island_end_[slot] = static_cast<int>(s + 1);
      } else {
        contiguous_ = false;  // island split across the array
        break;
      }
    }
    if (contiguous_) {
      // Ranges must also appear in ascending island order (intermediate
      // last) so the subset scan visits indices ascending, preserving the
      // lowest-index tie-break of the dense scan.
      int prev_end = 0;
      for (std::size_t slot = 0; slot <= n_islands && contiguous_; ++slot) {
        if (island_begin_[slot] < 0) continue;  // island without switches
        if (island_begin_[slot] < prev_end) contiguous_ = false;
        prev_end = island_end_[slot];
      }
    }

    // Arm delta replay only when the reference's power normalizer is
    // bit-equal to ours: p_norm is the single cross-candidate coupling of
    // intra-island routing decisions (everything else an intra Dijkstra
    // reads is island-local), so with equal normalizers an in-sync
    // island's decisions are input-identical to the reference's (a cross
    // flow also reads the intermediates; see cross_detour_ruled_out). Each
    // pass re-arms with a fresh taint vector (pass 2 restarts from a
    // pristine topology compared against the same pass-1 records).
    if (delta_ != nullptr) {
      delta_->pnorm_matched = delta_->ref != nullptr && delta_->ref->valid &&
                              delta_->ref->p_norm == p_norm_;
      delta_apply_ = delta_->pnorm_matched;
      if (delta_apply_) {
        scratch_.island_tainted.assign(spec.islands.size(), 0);
        cert_forced_ = g_delta_cert_forced.load(std::memory_order_relaxed);
      }
    }

    // The relaxation filter's power scale (see route_flow): alpha_power *
    // (1 / p_norm), shaved by a 2^-30 relative margin. It is armed only
    // while normal (>= 2 DBL_MIN, so kq, alpha * (1 / p_norm) and
    // 1 / p_norm all carry relative rounding errors only); otherwise —
    // alpha_power 0 or subnormal, or a normalizer too large or not finite
    // — kq is 0, no bound reaches pw_min_, and the filter keeps its
    // latency-only test. pw_min_ is the smallest bound the filter trusts:
    // below it, the absolute error of products that underflow could
    // outweigh the relative margin.
    kq_ = opts_.alpha_power * (1.0 / p_norm_) * (1.0 - 0x1p-30);
    if (!(kq_ >= 2.0 * std::numeric_limits<double>::min())) kq_ = 0.0;
    pw_min_ = std::ldexp(1.0 / p_norm_ + 1.0, -1030);
    build_static_floor();
  }

  [[nodiscard]] double p_norm() const { return p_norm_; }

  RouteOutcome run() {
    topo_.routes.assign(spec_.flows.size(), FlowRoute{});

    // The order is a pure function of the spec, so sweep callers pass it
    // precomputed; direct callers fall back to sorting here.
    const std::vector<std::size_t>* order = opts_.flow_order;
    if (order == nullptr) {
      scratch_.flow_order = bandwidth_descending_order(spec_);
      order = &scratch_.flow_order;
    }

    const bool bounding = bound_ != nullptr && bound_->front != nullptr &&
                          bound_->min_flow_latency != nullptr &&
                          !spec_.flows.empty();
    const double inv_flows =
        spec_.flows.empty() ? 0.0 : 1.0 / static_cast<double>(spec_.flows.size());

    RouteOutcome outcome;
    for (std::size_t pos = 0; pos < order->size(); ++pos) {
      const std::size_t f = (*order)[pos];
      const bool ok = delta_apply_ && pos < delta_->ref->records.size()
                          ? delta_route_flow(pos, f, outcome)
                          : route_flow(f, outcome);
      if (!ok) return outcome;
      ++outcome.flows_routed;
      if (bounding) {
        // Replace this flow's minimum latency with its exact final latency
        // (routes never change after routing) — both bounds stay monotone
        // lower bounds on the finished design's metrics.
        lat_sum_lb_ += topo_.routes[f].latency_cycles -
                       (*bound_->min_flow_latency)[f];
        const double avg_lb = lat_sum_lb_ * inv_flows;
        // Expose this checkpoint whatever comes next (prune, a later flow
        // failing, or success): the merge stage re-checks the last one
        // against the enumeration-ordered front to decide whether a
        // sequential run (with a possibly richer front than our snapshot)
        // would have pruned this candidate.
        outcome.bound_checked = true;
        outcome.pruned_power_lb_w = power_lb_;
        outcome.pruned_latency_lb_cycles = avg_lb;
        if (bound_->front->dominated(power_lb_, avg_lb)) {
          outcome.pruned = true;
          return outcome;
        }
      }
    }
    outcome.success = true;
    return outcome;
  }

 private:
  /// Result of choose_hop(): edge cost (kInf = inadmissible) and the
  /// chosen link (-1 = open a new one).
  struct HopChoice {
    double cost = kInf;
    int link = -1;
  };

  /// Width-invariant marginal power of carrying `bw` over a hop of length
  /// `len` into switch `vs`: wire + downstream crossbar + FIFO traversal, in
  /// the operation order of the naive path.
  VINOC_ALWAYS_INLINE double base_power(std::size_t vs, bool cross, double len,
                                        double bw) const {
    double p = link_dyn_c_ * len * bw;
    p += scratch_.ebit_of[vs] * bw;
    if (cross) p += fifo_dyn_c_ * bw;
    return p;
  }

  /// The latency addends of `flow`'s edge cost for an intra-island and a
  /// crossing hop: EXACTLY the second addend of choose_hop()'s cost (same
  /// operations, same order), so each doubles as the bit-exact early-skip
  /// threshold of a relaxation.
  struct LatParts {
    double intra;
    double cross;
  };
  LatParts lat_parts(const soc::Flow& flow) const {
    return {(1.0 - opts_.alpha_power) * (hop_lat_intra_ / flow.max_latency_cycles),
            (1.0 - opts_.alpha_power) * (hop_lat_cross_ / flow.max_latency_cycles)};
  }

  /// Reuse-vs-open selection for one admissible hop u -> v: reuse the
  /// pair's latest link (`existing`, -1 = none) when it has residual
  /// capacity, else open a new one if ports, capacity and (intra-island)
  /// wire timing allow.
  VINOC_ALWAYS_INLINE HopChoice choose_hop(std::size_t us, std::size_t vs,
                                           double fu, double wire_cap_u,
                                           bool cross, double len,
                                           double latpart, double bw,
                                           int existing) {
    HopChoice choice;
    const double fv = scratch_.freq_of[vs];
    if (existing >= 0) {
      const TopLink& l = topo_.links[static_cast<std::size_t>(existing)];
      const double cap = width_bits_ * std::min(fu, fv);
      if (l.carried_bw_bits_per_s + bw <= cap + 1e-6) {
        choice.cost =
            opts_.alpha_power * base_power(vs, cross, len, bw) / p_norm_ +
            latpart;
        choice.link = existing;
        return choice;
      }
      // Saturated: fall through and consider opening a parallel link.
    }
    // Opening needs a free out port on u and in port on v, enough
    // capacity, and (intra-island) a one-cycle wire.
    bool ok = scratch_.ports_out[us] + 1 <= opts_.max_ports[us] &&
              scratch_.ports_in[vs] + 1 <= opts_.max_ports[vs];
    if (ok) {
      const double cap = width_bits_ * std::min(fu, fv);
      ok = !(bw > cap + 1e-6);
    }
    if (ok && opts_.enforce_wire_timing && !cross) {
      ok = !(len > wire_cap_u);
    }
    if (ok) {
      // New ports clock on both sides; wires and (if crossing) a FIFO
      // leak. Same accumulation order as hop_power_w had.
      double p = base_power(vs, cross, len, bw);
      p += idle_w_per_hz_ * (fu + fv);
      p += link_leak_c_ * len * width_bits_;
      if (cross) p += fifo_leak_w_;
      choice.cost = opts_.alpha_power * p / p_norm_ + latpart;
      choice.link = -1;
    }
    return choice;
  }

  double hop_length_mm(int a, int b) const {
    return scratch_.geometry.hop_len[static_cast<std::size_t>(a) * n_ +
                                     static_cast<std::size_t>(b)];
  }

  /// Crossbar energy per bit of switch `s` at its CURRENT port count — the
  /// cached value always equals the expression the naive path evaluates per
  /// edge (refreshed whenever a port count changes).
  void refresh_ebit(int s) {
    const auto ss = static_cast<std::size_t>(s);
    const int ports = std::max(scratch_.ports_in[ss], scratch_.ports_out[ss]);
    scratch_.ebit_of[ss] = (opts_.tech.sw_energy_base_pj_per_bit +
                            opts_.tech.sw_energy_per_port_pj_per_bit * ports) *
                           1e-12;
  }

  /// Lazily builds (or returns) the admissible-hop CSR of one flow class.
  /// The class is width- and frequency-invariant, so it persists across both
  /// routing passes and every width of one candidate (see RoutingGeometry).
  RoutingGeometry::FlowClass& flow_class(soc::IslandId src_isl,
                                         soc::IslandId dst_isl) {
    RoutingGeometry& g = scratch_.geometry;
    const std::size_t ni = g.n_islands;
    auto slot = [ni](soc::IslandId i) {
      return i == kIntermediateIsland ? ni : static_cast<std::size_t>(i);
    };
    RoutingGeometry::FlowClass& c =
        g.classes[slot(src_isl) * (ni + 1) + slot(dst_isl)];
    if (c.built) return c;
    c.built = true;
    // Member switches of this class, ascending (preserves the dense scan's
    // iteration order); non-members are never extracted (their distance
    // stays infinite). Members are grouped into maximal runs of index-
    // consecutive switches of one island, so each source switch's
    // admissible targets are a handful of dense ranges the relaxation loop
    // streams over.
    std::vector<int> members;
    if (contiguous_) {
      auto push_range = [this, &members](std::size_t s) {
        for (int i = island_begin_[s]; i < island_end_[s]; ++i) {
          members.push_back(i);
        }
      };
      if (src_isl == dst_isl) {
        push_range(slot(src_isl));
      } else {
        const auto lo = std::min(slot(src_isl), slot(dst_isl));
        const auto hi = std::max(slot(src_isl), slot(dst_isl));
        push_range(lo);
        push_range(hi);
        push_range(ni);  // intermediate VI switches sit at the end
      }
    } else {
      for (std::size_t s = 0; s < n_; ++s) members.push_back(static_cast<int>(s));
    }
    struct Segment {
      int lo, hi;
      soc::IslandId island;
    };
    std::vector<Segment> segments;
    for (std::size_t i = 0; i < members.size();) {
      const int lo = members[i];
      const auto isl = static_cast<soc::IslandId>(
          scratch_.island_of[static_cast<std::size_t>(lo)]);
      std::size_t j = i + 1;
      while (j < members.size() && members[j] == members[j - 1] + 1 &&
             static_cast<soc::IslandId>(scratch_.island_of[static_cast<std::size_t>(
                 members[j])]) == isl) {
        ++j;
      }
      segments.push_back({lo, members[j - 1] + 1, isl});
      i = j;
    }
    c.run_begin.assign(n_ + 1, 0);
    c.runs.clear();
    for (std::size_t u = 0; u < n_; ++u) {
      c.run_begin[u] = static_cast<int>(c.runs.size());
      const auto a_isl = static_cast<soc::IslandId>(scratch_.island_of[u]);
      bool u_member = false;
      for (const Segment& seg : segments) {
        if (static_cast<int>(u) >= seg.lo && static_cast<int>(u) < seg.hi) {
          u_member = true;
          break;
        }
      }
      if (!u_member) continue;
      for (const Segment& seg : segments) {
        if (!link_admissible(a_isl, seg.island, src_isl, dst_isl)) continue;
        RoutingGeometry::HopRun run;
        run.crossing = a_isl != seg.island ? 1 : 0;
        run.direct_cross = (a_isl != seg.island && a_isl != kIntermediateIsland &&
                            seg.island != kIntermediateIsland)
                               ? 1
                               : 0;
        // The source switch is split out of its own segment.
        if (static_cast<int>(u) >= seg.lo && static_cast<int>(u) < seg.hi) {
          if (seg.lo < static_cast<int>(u)) {
            run.lo = seg.lo;
            run.hi = static_cast<int>(u);
            c.runs.push_back(run);
          }
          if (static_cast<int>(u) + 1 < seg.hi) {
            run.lo = static_cast<int>(u) + 1;
            run.hi = seg.hi;
            c.runs.push_back(run);
          }
        } else {
          run.lo = seg.lo;
          run.hi = seg.hi;
          c.runs.push_back(run);
        }
      }
    }
    c.run_begin[n_] = static_cast<int>(c.runs.size());
    return c;
  }

  /// The static power of OPENING a link on each switch pair — the idle
  /// ports, wire leakage and (crossing) FIFO leakage terms choose_hop adds
  /// on top of the hop's dynamic power, each computed by the same
  /// operation, summed in a different order. Built once per routing pass
  /// (it depends on this pass's width and frequencies).
  void build_static_floor() {
    std::vector<double>& floor = scratch_.static_floor;
    floor.assign(n_ * n_, 0.0);
    const double w = width_bits_;
    const std::vector<double>& leak_len = scratch_.geometry.leak_len;
    for (std::size_t a = 0; a < n_; ++a) {
      const double fa = scratch_.freq_of[a];
      const int a_isl = scratch_.island_of[a];
      for (std::size_t b = 0; b < n_; ++b) {
        const double ti = idle_w_per_hz_ * (fa + scratch_.freq_of[b]);
        const double tl = leak_len[a * n_ + b] * w;
        floor[a * n_ + b] =
            scratch_.island_of[b] != a_isl ? (ti + tl) + fifo_leak_w_ : ti + tl;
      }
    }
  }

  /// The one search: the flow's least-cost path over its admissible
  /// switches, written to scratch_.hops (open = the search found no usable
  /// link on the pair) and handed to commit_route().
  bool route_flow(std::size_t flow_idx, RouteOutcome& outcome) {
    const soc::Flow& flow = spec_.flows[flow_idx];
    const int s_sw = topo_.switch_of_core[static_cast<std::size_t>(flow.src)];
    const int d_sw = topo_.switch_of_core[static_cast<std::size_t>(flow.dst)];
    std::vector<DeltaHop>& hops = scratch_.hops;
    hops.clear();
    if (s_sw == d_sw) return commit_route(flow_idx, hops, outcome);

    const std::size_t n = n_;
    const soc::IslandId src_isl =
        spec_.cores[static_cast<std::size_t>(flow.src)].island;
    const soc::IslandId dst_isl =
        spec_.cores[static_cast<std::size_t>(flow.dst)].island;
    // Width-invariant admissible-hop runs of this flow's island class (see
    // RoutingGeometry) — replaces the per-edge admissibility test.
    const RoutingGeometry::FlowClass& fclass = flow_class(src_isl, dst_isl);

    const double bw = flow.bandwidth_bits_per_s;
    const LatParts lat = lat_parts(flow);

    // Only dist needs a per-flow reset: pred/pred_link are read exclusively
    // for nodes the CURRENT flow updated (the path walk follows this flow's
    // tree), and done-ness is encoded in dist itself — an extracted node's
    // dist is clobbered to -inf, which both stales its heap entries and
    // trips every relaxation filter (anything finite >= -inf).
    scratch_.dist.assign(n, kInf);
    if (scratch_.pred.size() < n) {
      scratch_.pred.resize(n, -1);
      scratch_.pred_link.resize(n, -1);
    }
    std::vector<double>& dist = scratch_.dist;
    std::vector<int>& pred = scratch_.pred;
    std::vector<int>& pred_link = scratch_.pred_link;
    dist[static_cast<std::size_t>(s_sw)] = 0.0;
    auto heap_after = [](const std::pair<double, int>& a,
                         const std::pair<double, int>& b) {
      return a.first > b.first || (a.first == b.first && a.second > b.second);
    };
    std::vector<std::pair<double, int>>& heap = scratch_.heap;
    heap.clear();
    heap.emplace_back(0.0, s_sw);

    const bool forbid = opts_.forbid_direct_cross;
    while (true) {
      // Extraction: lazy-heap pop == dense-scan argmin (see class comment).
      int u = -1;
      double dist_u = 0.0;
      while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), heap_after);
        const auto [du, cand] = heap.back();
        heap.pop_back();
        const auto cs = static_cast<std::size_t>(cand);
        if (du != dist[cs]) continue;  // stale entry (or node already done)
        u = cand;
        dist_u = du;
        break;
      }
      if (u < 0) break;
      const auto us = static_cast<std::size_t>(u);
      if (u == d_sw) break;
      dist[us] = -kInf;  // done: stales heap entries, trips relax filters

      const double freq_u = scratch_.freq_of[us];
      const double wire_cap_u =
          opts_.enforce_wire_timing ? scratch_.max_wire_len[us] : 0.0;
      const double* hop_row = &scratch_.geometry.hop_len[us * n_];
      const double* dyn_row = &scratch_.geometry.dyn_len[us * n_];
      const double* static_row = &scratch_.static_floor[us * n_];
      const double* ebit = scratch_.ebit_of.data();
      const int* link_row = &scratch_.link_at[us * n_];
      const int run_end = fclass.run_begin[us + 1];
      for (int rr = fclass.run_begin[us]; rr < run_end; ++rr) {
        const RoutingGeometry::HopRun& run =
            fclass.runs[static_cast<std::size_t>(rr)];
        if (forbid && run.direct_cross != 0) continue;
        const bool cross = run.crossing != 0;
        const double latpart = cross ? lat.cross : lat.intra;
        const double lat_thresh = dist_u + latpart;
        const double fifo_c = cross ? fifo_dyn_c_ : 0.0;
        for (int v = run.lo; v < run.hi; ++v) {
          const auto vs = static_cast<std::size_t>(v);
          const double d = dist[vs];
          // Relaxation filter. The full cost choose_hop would compute is
          //   fl(fl(fl(alpha * p) / p_norm) + latpart),
          // p the hop's power: dynamic (wire, crossbar, crossing FIFO;
          // each a fl(coefficient * bw)) when reusing a link, plus the
          // static opening terms when opening one. Every term is finite and
          // non-negative and alpha_power is in [0,1] (route_all_flows
          // rejects anything else), so the cost is >= latpart, and
          //   pw = kq * (dyn [+ static_floor]) <= fl(fl(alpha * p) / p_norm)
          // whenever pw >= pw_min_: pw and that power part evaluate the same
          // real quantity (alpha / p_norm) * P through at most ten rounded
          // operations each, and with no underflow each rounding moves a
          // result by at most 2^-53 relative — ~2^-48 in all, far inside
          // kq's 2^-30 margin. A product that underflows may instead move
          // by 2^-1075 absolute; scaled by at most 1 / p_norm, the seven
          // such errors stay below 2^-31 pw once pw >= pw_min_ = 2^-1030
          // (1 / p_norm + 1), so the margin covers them too. pw above DBL_MAX
          // (an overflowed sum) proves nothing and is not trusted. The
          // static terms enter only when no link exists: a saturated link
          // makes choose_hop open a parallel one, which only adds power.
          // IEEE addition is monotone, so a skipped target's dist_u + cost
          // would have been >= dist[v] as well: it could not have updated.
          // Done nodes (dist == -inf) fall to the latency-only test.
          if (lat_thresh >= d) continue;
          const double dyn = (dyn_row[vs] + ebit[vs] + fifo_c) * bw;
          const double pw = kq_ * (link_row[vs] < 0 ? dyn + static_row[vs] : dyn);
          if (pw >= pw_min_ && pw <= kMaxFinite && dist_u + (pw + latpart) >= d) {
            continue;
          }
          const HopChoice hc =
              choose_hop(us, vs, freq_u, wire_cap_u, cross, hop_row[vs],
                         latpart, bw, link_row[vs]);
          if (std::isfinite(hc.cost) && dist_u + hc.cost < d) {
            dist[vs] = dist_u + hc.cost;
            pred[vs] = u;
            pred_link[vs] = hc.link;
            heap.emplace_back(dist[vs], v);
            std::push_heap(heap.begin(), heap.end(), heap_after);
          }
        }
      }
    }
    if (!std::isfinite(dist[static_cast<std::size_t>(d_sw)])) {
      outcome.failure_reason =
          "no admissible path for flow '" + flow.label + "'";
      outcome.failed_flow = static_cast<int>(flow_idx);
      return false;
    }

    // The path in order: walk the predecessor tree back from d_sw. A reuse
    // hop's link is the pair's latest at commit time too, since the hops of
    // one shortest path touch distinct switch pairs.
    for (int v = d_sw; v != s_sw; v = pred[static_cast<std::size_t>(v)]) {
      const auto vs = static_cast<std::size_t>(v);
      hops.push_back({pred[vs], v, static_cast<unsigned char>(pred_link[vs] < 0)});
    }
    std::reverse(hops.begin(), hops.end());
    return commit_route(flow_idx, hops, outcome);
  }

  /// The one commit, shared by live, replayed and certified flows: opens
  /// (open hops) or reuses (the pair's latest link) each hop's link, adds
  /// the flow's bandwidth, user entry and power-bound share, then counts
  /// the crossings and checks the latency budget. A same-switch flow (no
  /// hops) has no budget check. A successful commit is what a recording
  /// run records.
  bool commit_route(std::size_t flow_idx, const std::vector<DeltaHop>& hops,
                    RouteOutcome& outcome) {
    const soc::Flow& flow = spec_.flows[flow_idx];
    FlowRoute& route = topo_.routes[flow_idx];
    route.src_switch = topo_.switch_of_core[static_cast<std::size_t>(flow.src)];
    route.dst_switch = topo_.switch_of_core[static_cast<std::size_t>(flow.dst)];
    const double bw = flow.bandwidth_bits_per_s;
    for (const DeltaHop& h : hops) {
      const int link_id =
          h.open != 0 ? open_link(h.src, h.dst)
                      : scratch_.link_at[static_cast<std::size_t>(h.src) * n_ +
                                         static_cast<std::size_t>(h.dst)];
      TopLink& l = topo_.links[static_cast<std::size_t>(link_id)];
      l.carried_bw_bits_per_s += bw;
      l.flows.push_back(static_cast<int>(flow_idx));
      route.links.push_back(link_id);
      if (l.crosses_island) ++route.crossings;
      if (power_lb_ >= 0.0) {
        accumulate_power_lb(h.src, h.dst, l, bw,
                            /*pass_through=*/h.dst != route.dst_switch);
      }
    }
    route.latency_cycles = route_latency_cycles(topo_, route, opts_.tech);
    if (!hops.empty() && route.latency_cycles > flow.max_latency_cycles + 1e-9) {
      outcome.failure_reason = "latency violated for flow '" + flow.label +
                               "' (" + std::to_string(route.latency_cycles) +
                               " > " + std::to_string(flow.max_latency_cycles) + ")";
      outcome.failed_flow = static_cast<int>(flow_idx);
      outcome.latency_violation = true;
      return false;
    }
    if (rec_out_ != nullptr) rec_out_->records.emplace_back().hops = hops;
    return true;
  }

  /// True when `hops` can commit onto the current state as they are: a
  /// chain from s_sw to d_sw over valid switch ids whose every reuse hop
  /// finds a link on its pair. Always true for an in-sync island's record;
  /// a record that fails it routes live.
  bool record_fits(const std::vector<DeltaHop>& hops, int s_sw, int d_sw) const {
    if (hops.empty() || hops.back().dst != d_sw) return false;
    int prev = s_sw;
    for (const DeltaHop& h : hops) {
      if (h.src != prev || h.dst < 0 || h.dst >= static_cast<int>(n_)) {
        return false;
      }
      if (h.open == 0 &&
          scratch_.link_at[static_cast<std::size_t>(h.src) * n_ +
                           static_cast<std::size_t>(h.dst)] < 0) {
        return false;
      }
      prev = h.dst;
    }
    return true;
  }

  /// Marks every REAL island touched by `hops` as diverged from the
  /// reference: its incremental state no longer matches, so later flows of
  /// that island must route live. (The intermediate VI carries no
  /// intra-island flows; it needs no taint.)
  void taint_hops(const std::vector<DeltaHop>& hops) {
    std::vector<char>& tainted = scratch_.island_tainted;
    for (const DeltaHop& h : hops) {
      for (const int sw : {h.src, h.dst}) {
        if (sw < 0 || sw >= static_cast<int>(n_)) continue;
        const int isl = scratch_.island_of[static_cast<std::size_t>(sw)];
        if (isl != kIntermediateIsland &&
            static_cast<std::size_t>(isl) < tainted.size()) {
          tainted[static_cast<std::size_t>(isl)] = 1;
        }
      }
    }
  }

  /// Lower bound on the cost choose_hop() assigns to the crossing hop
  /// a -> b, one end an unwired intermediate switch (so no link exists and
  /// opening is the only choice): the relaxation filter's term (see
  /// route_flow), fl(pw + lat_part_cross), with pw taken as 0 outside the
  /// range the filter trusts — the latency part alone still bounds the
  /// cost.
  double unwired_crossing_lb(std::size_t a, std::size_t b,
                             double lat_part_cross, double bw) const {
    const std::size_t ab = a * n_ + b;
    const double dyn =
        (scratch_.geometry.dyn_len[ab] + scratch_.ebit_of[b] + fifo_dyn_c_) * bw;
    double pw = kq_ * (dyn + scratch_.static_floor[ab]);
    if (!(pw >= pw_min_ && pw <= kMaxFinite)) pw = 0.0;
    return pw + lat_part_cross;
  }

  /// Detour bound of a greedy-pass cross-island flow between two in-sync
  /// islands: true when the flow's live Dijkstra provably returns the hops
  /// of its record, so the record can replay without a search.
  ///
  /// The record comes from the group leader, which has no intermediate
  /// switches; with both islands in sync and no intermediate yet wired, the
  /// current search differs from the leader's only by the intermediates.
  /// D* is the record's cost in the current state, accumulated exactly as
  /// the Dijkstra accumulates dist (the same choose_hop() per hop, which
  /// must also agree with the record on open vs reuse). A_w is a lower
  /// bound on intermediate w's distance at any point of the search: w is
  /// reached from a source-island switch (distance >= 0, then one crossing
  /// hop) or from another intermediate (which is itself at least the
  /// cheapest crossing hop away, then one intra hop). Every distance w
  /// offers a destination switch is then at least
  /// fl(A_w + crossing hop bound), and it offers nothing to the source
  /// island. So when each w has A_w > D* (never extracted before d_sw) or
  /// offers every destination switch more than D*, no intermediate ever
  /// improves a switch that pops at or below D*: those switches pop in the
  /// leader's order with the leader's distances and predecessors, and d_sw
  /// pops at D* along the recorded path. `hops` has passed record_fits().
  bool cross_detour_ruled_out(const std::vector<DeltaHop>& hops,
                              const soc::Flow& flow, soc::IslandId src_isl,
                              soc::IslandId dst_isl) {
    if (opts_.forbid_direct_cross || !delta_->ref->intermediate_free ||
        !contiguous_) {
      return false;
    }
    const std::size_t n_islands = island_begin_.size() - 1;
    const int int_lo = island_begin_[n_islands];
    const int int_hi = island_end_[n_islands];
    for (int w = int_lo; w < int_hi; ++w) {
      const auto ws = static_cast<std::size_t>(w);
      if (scratch_.ports_in[ws] != 0 || scratch_.ports_out[ws] != 0) return false;
    }
    const double bw = flow.bandwidth_bits_per_s;
    const LatParts lat = lat_parts(flow);

    double d_star = 0.0;
    for (const DeltaHop& h : hops) {
      const auto us = static_cast<std::size_t>(h.src);
      const auto vs = static_cast<std::size_t>(h.dst);
      const int u_isl = scratch_.island_of[us];
      const int v_isl = scratch_.island_of[vs];
      if ((v_isl != src_isl && v_isl != dst_isl) ||
          !link_admissible(u_isl, v_isl, src_isl, dst_isl)) {
        return false;
      }
      const bool cross = u_isl != v_isl;
      const HopChoice hc = choose_hop(
          us, vs, scratch_.freq_of[us],
          opts_.enforce_wire_timing ? scratch_.max_wire_len[us] : 0.0, cross,
          hop_length_mm(h.src, h.dst), cross ? lat.cross : lat.intra, bw,
          scratch_.link_at[us * n_ + vs]);
      if (!std::isfinite(hc.cost) || (hc.link < 0) != (h.open != 0)) return false;
      d_star = d_star + hc.cost;
    }

    const auto src_slot = static_cast<std::size_t>(src_isl);
    const auto dst_slot = static_cast<std::size_t>(dst_isl);
    std::vector<double>& reach_lb = scratch_.intermediate_lb;
    reach_lb.assign(static_cast<std::size_t>(int_hi - int_lo), kInf);
    double via_any = kInf;
    for (int w = int_lo; w < int_hi; ++w) {
      double lb = kInf;
      for (int u = island_begin_[src_slot]; u < island_end_[src_slot]; ++u) {
        lb = std::min(lb, unwired_crossing_lb(static_cast<std::size_t>(u),
                                              static_cast<std::size_t>(w),
                                              lat.cross, bw));
      }
      reach_lb[static_cast<std::size_t>(w - int_lo)] = lb;
      via_any = std::min(via_any, lb);
    }
    via_any = via_any + lat.intra;
    for (int w = int_lo; w < int_hi; ++w) {
      const double a_w =
          std::min(reach_lb[static_cast<std::size_t>(w - int_lo)], via_any);
      if (a_w > d_star) continue;
      for (int x = island_begin_[dst_slot]; x < island_end_[dst_slot]; ++x) {
        if (!(a_w + unwired_crossing_lb(static_cast<std::size_t>(w),
                                        static_cast<std::size_t>(x),
                                        lat.cross, bw) >
              d_star)) {
          return false;
        }
      }
    }
    return true;
  }

  /// One flow of an armed delta run (see DeltaRouteState). UNTOUCHED flows
  /// — intra-island on an in-sync island, or greedy-pass cross-island
  /// between two in-sync islands with every intermediate detour ruled out
  /// (cross_detour_ruled_out) — commit their record without a search (or,
  /// under the forced certificate, re-derive the path with their own solo
  /// Dijkstra and verify it against the record). AFFECTED flows route live;
  /// a live route whose hops differ from the record's ends reuse for every
  /// island either hop list touches.
  bool delta_route_flow(std::size_t pos, std::size_t flow_idx,
                        RouteOutcome& outcome) {
    const soc::Flow& flow = spec_.flows[flow_idx];
    const int s_sw = topo_.switch_of_core[static_cast<std::size_t>(flow.src)];
    const int d_sw = topo_.switch_of_core[static_cast<std::size_t>(flow.dst)];
    if (s_sw == d_sw) {
      // Trivial either way (no links, no state change): route live,
      // uncounted — it would inflate the reuse rate without saving work.
      return route_flow(flow_idx, outcome);
    }
    const soc::IslandId src_isl =
        spec_.cores[static_cast<std::size_t>(flow.src)].island;
    const soc::IslandId dst_isl =
        spec_.cores[static_cast<std::size_t>(flow.dst)].island;
    const std::vector<DeltaHop>& rec = delta_->ref->records[pos].hops;
    const std::vector<char>& tainted = scratch_.island_tainted;
    const bool replayable =
        tainted[static_cast<std::size_t>(src_isl)] == 0 &&
        tainted[static_cast<std::size_t>(dst_isl)] == 0 &&
        record_fits(rec, s_sw, d_sw) &&
        (src_isl == dst_isl || cross_detour_ruled_out(rec, flow, src_isl, dst_isl));
    if (replayable && !cert_forced_) {
      ++delta_->flows_reused;
      return commit_route(flow_idx, rec, outcome);
    }
    // Live route. For a replayable flow this is the route-equivalence
    // certificate (route_flow IS the flow's solo Dijkstra): a match proves
    // the replay would have been bit-identical, and a mismatch keeps the
    // live path, so results never depend on the record being right. A live
    // route equal to the record leaves its islands in sync; any difference
    // (typically: the intermediate VI absorbed a cross flow) diverges them.
    if (!route_flow(flow_idx, outcome)) return false;
    if (scratch_.hops == rec) {
      if (replayable) {
        ++delta_->flows_certified;
        return true;
      }
    } else {
      if (replayable) ++delta_->cert_rejects;
      taint_hops(rec);
      taint_hops(scratch_.hops);
    }
    ++delta_->flows_rerouted;
    return true;
  }

  /// Adds the sound, refine-stable part of this bandwidth increment to the
  /// running power lower bound: FIFO energy on crossings (bandwidth-only),
  /// wire energy only when neither endpoint is an intermediate switch
  /// (position refinement moves intermediate switches, so those wire lengths
  /// may still change; island switches never move), and the downstream
  /// switch's traffic energy at its core-only port floor when the hop makes
  /// the flow VISIT a switch its endpoint floor did not count.
  void accumulate_power_lb(int a, int b, const TopLink& l, double bw,
                           bool pass_through) {
    const int a_isl = scratch_.island_of[static_cast<std::size_t>(a)];
    const int b_isl = scratch_.island_of[static_cast<std::size_t>(b)];
    if (a_isl != b_isl) power_lb_ += fifo_dyn_c_ * bw;
    if (a_isl != kIntermediateIsland && b_isl != kIntermediateIsland) {
      power_lb_ += link_dyn_c_ * l.length_mm * bw;
    }
    if (pass_through && bound_->switch_ebit_floor != nullptr) {
      power_lb_ += (*bound_->switch_ebit_floor)[static_cast<std::size_t>(b)] * bw;
    }
  }

  int open_link(int a, int b) {
    TopLink l;
    l.src_switch = a;
    l.dst_switch = b;
    l.crosses_island = scratch_.island_of[static_cast<std::size_t>(a)] !=
                       scratch_.island_of[static_cast<std::size_t>(b)];
    l.length_mm = hop_length_mm(a, b);
    const int id = static_cast<int>(topo_.links.size());
    topo_.links.push_back(std::move(l));
    scratch_.link_at[static_cast<std::size_t>(a) * n_ +
                     static_cast<std::size_t>(b)] = id;
    ++scratch_.ports_out[static_cast<std::size_t>(a)];
    ++scratch_.ports_in[static_cast<std::size_t>(b)];
    refresh_ebit(a);
    refresh_ebit(b);
    if (power_lb_ >= 0.0) {
      // The two new ports clock forever: their idle power is an exact,
      // monotone addition to the final switch dynamic power.
      power_lb_ += idle_w_per_hz_ * (scratch_.freq_of[static_cast<std::size_t>(a)] +
                                     scratch_.freq_of[static_cast<std::size_t>(b)]);
    }
    return id;
  }

  NocTopology& topo_;
  const soc::SocSpec& spec_;
  const RouterOptions& opts_;
  RouterScratch& scratch_;
  const RouteBound* bound_ = nullptr;
  DeltaReference* rec_out_ = nullptr;  ///< recording observer (reference runs)
  DeltaRouteState* delta_ = nullptr;   ///< delta replay state (member runs)
  bool delta_apply_ = false;  ///< delta armed: reference valid, p_norm equal
  bool cert_forced_ = false;  ///< verify every replay with its solo Dijkstra
  std::size_t n_ = 0;
  double p_norm_ = 1.0;
  // Admissible-subset iteration (see route_flow).
  std::vector<int> island_begin_;
  std::vector<int> island_end_;
  bool contiguous_ = false;
  // Cached model coefficients (see constructor).
  double link_dyn_c_ = 0.0;
  double link_leak_c_ = 0.0;
  double fifo_dyn_c_ = 0.0;
  double fifo_leak_w_ = 0.0;
  double idle_w_per_hz_ = 0.0;
  double width_bits_ = 0.0;
  double hop_lat_intra_ = 0.0;
  double hop_lat_cross_ = 0.0;
  // Relaxation filter scale and trust floor (see constructor, route_flow).
  double kq_ = 0.0;
  double pw_min_ = 0.0;
  // Pruning state; power_lb_ < 0 means pruning disabled for this pass.
  double power_lb_ = -1.0;
  double lat_sum_lb_ = 0.0;
};

/// Resets `g` for a new candidate topology: hop lengths and their energy
/// and leakage scalings recomputed, class runs invalidated (buffers kept,
/// refilled lazily). The scalings multiply by pure technology constants —
/// the Router's link_dyn_c_ and link_leak_c_, computed the same way — so
/// the dyn_len and leak_len matrices stay width-invariant.
void prepare_geometry(RoutingGeometry& g, const NocTopology& topo,
                      std::size_t n_islands, const models::Technology& tech) {
  const double link_dyn_c = tech.link_energy_pj_per_bit_mm * 1e-12;
  const double link_leak_c = tech.link_leakage_mw_per_wire_mm * 1e-3;
  const std::size_t n = topo.switches.size();
  g.n = n;
  g.n_islands = n_islands;
  g.hop_len.assign(n * n, 0.0);
  g.leak_len.assign(n * n, 0.0);
  g.dyn_len.assign(n * n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const double len =
          floorplan::manhattan_mm(topo.switches[a].pos, topo.switches[b].pos);
      g.hop_len[a * n + b] = len;
      g.leak_len[a * n + b] = link_leak_c * len;
      g.dyn_len[a * n + b] = link_dyn_c * len;
    }
  }
  const std::size_t n_classes = (n_islands + 1) * (n_islands + 1);
  if (g.classes.size() != n_classes) g.classes.resize(n_classes);
  for (RoutingGeometry::FlowClass& c : g.classes) c.built = false;
}

}  // namespace

RouteOutcome route_all_flows(NocTopology& topo, const soc::SocSpec& spec,
                             const RouterOptions& options, RouterScratch* scratch,
                             const RouteBound* bound, DeltaReference* record,
                             DeltaRouteState* delta) {
  if (options.max_ports.size() != topo.switches.size()) {
    RouteOutcome out;
    out.failure_reason = "RouterOptions::max_ports size mismatch";
    return out;
  }
  // The relaxation filter's proof needs a non-negative power weight no
  // larger than 1 (a NaN fails this test too).
  if (!(options.alpha_power >= 0.0 && options.alpha_power <= 1.0)) {
    RouteOutcome out;
    out.failure_reason = "RouterOptions::alpha_power outside [0,1]";
    return out;
  }
  RouterScratch local;
  RouterScratch& sc = scratch != nullptr ? *scratch : local;
  if (sc.geometry_token == 0 || sc.geometry_built_token != sc.geometry_token) {
    prepare_geometry(sc.geometry, topo, spec.islands.size(), options.tech);
    sc.geometry_built_token = sc.geometry_token;
  }
  if (record != nullptr) {
    record->records.clear();
    record->p_norm = 0.0;
    record->valid = false;
    record->intermediate_free = false;
  }
  if (delta != nullptr) {
    delta->pnorm_matched = false;
    delta->flows_reused = 0;
    delta->flows_certified = 0;
    delta->flows_rerouted = 0;
    delta->cert_rejects = 0;
  }

  bool has_intermediate = false;
  for (const SwitchInst& s : topo.switches) {
    if (s.island == kIntermediateIsland) has_intermediate = true;
  }
  // Mid-routing pruning is only sound when the fallback pass cannot change
  // the outcome: a pass-1 abandonment would otherwise hide the pass-2 design
  // the unpruned path could still have produced. (The pre-routing base bound
  // covers both passes and is checked by the evaluation stage.)
  const bool fallback_possible = has_intermediate && !options.forbid_direct_cross;
  const RouteBound* pass1_bound = fallback_possible ? nullptr : bound;

  // Pass 1 only appends links and fills routes, so truncating both restores
  // the pristine pre-routing topology for the retry pass.
  const std::size_t links_before = topo.links.size();
  RouteOutcome first;
  {
    // Recording observes pass 1 only: the records describe the greedy
    // pass's trajectory, which is exactly what a consumer's pass 1 (and,
    // for intra-island flows, its pass 2) must be compared against. A
    // reference that fails or prunes mid-pass still leaves a usable
    // routed prefix.
    Router router(topo, spec, options, sc, pass1_bound, record, delta);
    if (record != nullptr) {
      record->p_norm = router.p_norm();
      record->valid = true;
      record->intermediate_free = !has_intermediate;
    }
    first = router.run();
    if (first.success || first.pruned || options.forbid_direct_cross) {
      return first;
    }
  }
  if (!fallback_possible) return first;
  // Greedy pass stranded a flow. An intermediate switch exists, so retry
  // with all cross-island traffic concentrated through the NoC VI (far
  // fewer ports consumed on the island switches).
  OBS_SPAN("route_fallback_pass");
  topo.links.resize(links_before);
  topo.routes.clear();
  RouterOptions retry = options;
  retry.forbid_direct_cross = true;
  Router router(topo, spec, retry, sc, bound, nullptr, delta);
  RouteOutcome second = router.run();
  if (!second.success && !second.pruned) {
    // Report the greedy pass's diagnosis; it is usually more informative.
    second.failure_reason = first.failure_reason;
    second.failed_flow = first.failed_flow;
    second.latency_violation = first.latency_violation;
  }
  return second;
}

}  // namespace vinoc::core
