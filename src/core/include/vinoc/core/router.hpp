// Flow routing with link opening (step 15 of the paper's Algorithm 1).
//
// Flows are routed in decreasing bandwidth order over least-cost paths. The
// cost of traversing a (possibly not-yet-opened) link is a linear
// combination of the power increase of opening/reusing the link and the
// flow's latency budget:
//   cost = alpha_power * dP / P_norm
//        + (1 - alpha_power) * edge_cycles / flow_latency_budget
//
// Shutdown safety is enforced structurally: for a flow src-island A ->
// dst-island B, only switches in A, B and the intermediate NoC VI are
// admissible, and cross-island links may only connect A->B, A->intermediate,
// intermediate->intermediate, or intermediate->B ("the links are either
// established directly across the switches in the source and destination
// VIs or to the switches in the intermediate NoC island"). Intra-island
// flows stay entirely inside their island.
//
// Hot path: route_all_flows() sits inside the candidate-evaluation loop of
// the sweep, so it takes an optional RouterScratch (preallocated Dijkstra
// state, flat link-lookup matrix, port counters — reset, not reallocated,
// between candidates) and an optional RouteBound
// (monotone lower bounds on the final metrics checked against the current
// Pareto front after every routed flow; see vinoc/core/prune.hpp). One call
// routes one link width: the width sweep routes a candidate once per width,
// sharing only the width-invariant RoutingGeometry between the calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vinoc/core/topology.hpp"
#include "vinoc/models/noc_models.hpp"
#include "vinoc/soc/soc_spec.hpp"

namespace vinoc::core {

class ParetoBound;

struct RouterOptions {
  /// Weight of the power term vs. the latency term in the link cost.
  double alpha_power = 0.7;
  int link_width_bits = 32;
  models::Technology tech = models::Technology::cmos65nm();
  /// Maximum ports (max of in/out) per switch, indexed like topo.switches.
  std::vector<int> max_ports;
  /// Reject intra-island links whose wire delay exceeds one clock cycle at
  /// the island frequency (crossing links are absorbed by the bi-sync FIFO).
  bool enforce_wire_timing = true;
  /// Forbid direct island-to-island links, forcing all cross-island traffic
  /// through the intermediate NoC VI. Normally false; route_all_flows()
  /// retries with this set when the greedy pass strands a flow on port
  /// exhaustion (the paper's stated reason for the intermediate island:
  /// "By using switches in an intermediate NoC island, the number of
  /// switch-to-switch links can be reduced").
  bool forbid_direct_cross = false;
  /// Precomputed bandwidth_descending_order(spec) (the routing order). The
  /// order depends only on the spec, so sweep callers compute it once
  /// instead of re-sorting per candidate. nullptr = the router sorts
  /// internally (same result).
  const std::vector<std::size_t>* flow_order = nullptr;
};

/// The flow order every routing pass follows: bandwidth descending, ties
/// broken by index (step 15: "Choose flows in bandwidth order"). The single
/// definition shared by the router's internal fallback and every caller
/// that precomputes RouterOptions::flow_order.
[[nodiscard]] std::vector<std::size_t> bandwidth_descending_order(
    const soc::SocSpec& spec);

/// Width-invariant routing geometry of one candidate topology: the hop
/// length matrix plus, per (source-island, destination-island) flow class,
/// the CSR of admissible hops (target switch, length, crossing flags) every
/// Dijkstra of that class walks. Switch positions and the shutdown-safety
/// admissibility rule depend on neither the link width nor the island
/// frequencies, so ONE geometry serves both routing passes of
/// route_all_flows and, via RouterScratch::geometry_token, every width a
/// sweep routes the same candidate at — it is reset once per candidate and
/// its classes are built lazily on first use.
struct RoutingGeometry {
  /// One contiguous range [lo, hi) of admissible target switches of one
  /// source switch, all in the same island — so the relaxation loop streams
  /// over dense dist / link / cost-bound rows with one crossing flag per run.
  struct HopRun {
    int lo = 0;
    int hi = 0;
    unsigned char crossing = 0;
    /// Direct island-to-island run; the intermediate-retry pass skips these
    /// runs instead of rebuilding the class.
    unsigned char direct_cross = 0;
  };
  struct FlowClass {
    bool built = false;
    std::vector<int> run_begin;  ///< per switch id, runs[run_begin[u]..run_begin[u+1])
    std::vector<HopRun> runs;
  };
  std::size_t n = 0;
  std::size_t n_islands = 0;
  std::vector<double> hop_len;   ///< n x n flat matrix of Manhattan lengths
  /// fl(link_leakage_coeff * hop_len): width-invariant part of the static
  /// opening power (see router.cpp), n x n.
  std::vector<double> leak_len;
  /// fl(link_energy_coeff * hop_len): the wire's dynamic energy per bit,
  /// the width-invariant first factor of every hop's power (see
  /// router.cpp), n x n.
  std::vector<double> dyn_len;
  std::vector<FlowClass> classes;  ///< (n_islands + 1)^2 slots, lazily built
};

/// One hop of a route: the endpoint switch ids plus whether routing OPENED
/// a new link for it (as opposed to reusing the pair's latest existing
/// link). The router's search yields a flow's hops, its one commit step
/// applies them, and a DeltaReference records them. Island switch ids are
/// stable across the candidates of one enumeration group (identical island
/// partitions, built in identical order), which is what lets a recorded hop
/// be replayed on an adjacent candidate's topology.
struct DeltaHop {
  int src = -1;
  int dst = -1;
  unsigned char open = 0;
  friend bool operator==(const DeltaHop& a, const DeltaHop& b) {
    return a.src == b.src && a.dst == b.dst && a.open == b.open;
  }
};

/// Reusable routing state. Buffers grow to the high-water mark of the
/// topologies routed through them and are reset — not reallocated — per
/// call; one instance per worker strand (see exec::WorkerLocal).
struct RouterScratch {
  std::vector<std::size_t> flow_order;  ///< used when options.flow_order == nullptr
  std::vector<double> dist;
  std::vector<int> pred;
  std::vector<int> pred_link;
  /// The live flow's route as the search found it, in path order: what
  /// the commit applies and the delta record comparisons read.
  std::vector<DeltaHop> hops;
  std::vector<int> link_at;  ///< n x n flat matrix: link id or -1
  std::vector<double> max_wire_len;  ///< per-switch one-cycle wire length cap
  std::vector<int> ports_in;
  std::vector<int> ports_out;
  std::vector<int> island_of;        ///< per-switch island (flat; SwitchInst is cold)
  std::vector<double> freq_of;       ///< per-switch frequency (flat)
  std::vector<double> ebit_of;       ///< per-switch crossbar energy/bit at current ports
  /// n x n static power of opening each link in this pass (idle ports, wire
  /// leakage, crossing FIFO leakage) — the relaxation filter's opening term.
  std::vector<double> static_floor;
  /// Lazy (dist, index) min-heap of the per-flow Dijkstra; pops reproduce
  /// the dense scan's lowest-dist-then-lowest-index extraction exactly.
  std::vector<std::pair<double, int>> heap;
  /// Per-candidate routing geometry, reset by route_all_flows and shared by
  /// both passes (and, under a geometry_token, by every width of the
  /// candidate).
  RoutingGeometry geometry;
  /// Geometry reuse across route_all_flows calls of the SAME candidate
  /// topology (the width sweep routes one candidate at each of its widths):
  /// callers that guarantee unchanged switch positions/islands set
  /// geometry_token to a fresh non-zero value per candidate; the geometry is
  /// rebuilt only when the token changes. 0 (default) always rebuilds.
  std::uint64_t geometry_token = 0;
  std::uint64_t geometry_built_token = 0;
  std::uint64_t geometry_token_counter = 0;  ///< for callers minting tokens
  /// Delta replay (see DeltaRouteState): per real island, whether its state
  /// has diverged from the reference's; reset per pass.
  std::vector<char> island_tainted;
  /// Cross-flow detour bound: per intermediate switch, a distance bound.
  std::vector<double> intermediate_lb;
};

/// The hop sequence of one routed flow, in path order. Empty when the
/// flow's endpoints share a switch (nothing to replay).
struct DeltaRouteRec {
  std::vector<DeltaHop> hops;
};

/// Recording of a REFERENCE candidate's pass-1 routing, consumed by the
/// delta evaluation of the adjacent candidates in its enumeration group
/// (same per-island switch counts, different intermediate-switch counts).
/// `records` holds the routed prefix of the flow order — a reference that
/// failed or was pruned mid-routing still yields a usable prefix. `p_norm`
/// is the reference Router's power normalizer; it is the ONLY cross-
/// candidate coupling of intra-island routing decisions (see router.cpp),
/// so delta reuse is gated on the consumer's normalizer being bit-equal.
struct DeltaReference {
  std::vector<DeltaRouteRec> records;  ///< by routing-order position (prefix)
  double p_norm = 0.0;
  bool valid = false;  ///< pass-1 routing ran with recording attached
  /// The reference topology had no intermediate switches (the group's
  /// k_int = 0 leader), so each cross-island record is the search result
  /// over the flow's two islands alone — the premise of cross-flow replay.
  bool intermediate_free = false;
};

/// Per-evaluation state of a delta (route-reuse) routing run; see
/// route_all_flows. `ref` is the input; everything else is output counters
/// (the router keeps its replay state in RouterScratch). The router
/// classifies each flow: intra-island flows of an island whose state is
/// still IN SYNC with the reference's, and greedy-pass cross-island flows
/// between two in-sync islands whose detour bound proves the intermediate
/// switches cannot change the search (see router.cpp), are replayed from
/// the record (flows_reused; or, under set_delta_cert_forced, re-derived by
/// their own solo Dijkstra and verified against it — flows_certified);
/// everything else routes live (flows_rerouted), and a live route whose hop
/// sequence differs from the record's taints the islands either touches,
/// ending reuse for them.
struct DeltaRouteState {
  const DeltaReference* ref = nullptr;
  /// Output: the consumer's power normalizer was bit-equal to the
  /// reference's, so replay was armed (always inspect before reading the
  /// counters as a reuse rate).
  bool pnorm_matched = false;
  int flows_reused = 0;     ///< replayed from the record, no Dijkstra
  int flows_certified = 0;  ///< forced-certificate mode: verified replays
  int flows_rerouted = 0;   ///< routed live (affected or tainted)
  int cert_rejects = 0;     ///< forced-certificate mismatches (expected 0)
};

/// Cost-bound pruning input for one routing call (see vinoc/core/prune.hpp).
/// All bounds are monotone non-decreasing as routing proceeds and never
/// exceed the candidate's final metrics, so a `front` hit is a proof the
/// finished design would be dominated-or-equal (never on the Pareto front).
struct RouteBound {
  /// Dominance oracle; nullptr disables pruning.
  const ParetoBound* front = nullptr;
  /// Pre-routing lower bound on the final noc_dynamic_w (NI energy, NI wire
  /// energy, per-switch floor) — computed by the evaluation stage.
  double base_power_lb_w = 0.0;
  /// Sum over flows of each flow's minimum achievable latency [cycles].
  double base_latency_sum_cycles = 0.0;
  /// Per-flow minimum latencies (parallel to spec.flows); as a flow routes,
  /// its minimum is replaced by its exact latency in the running sum.
  const std::vector<double>* min_flow_latency = nullptr;
  /// Per-switch traffic-energy floor [W per bit/s]: the switch's energy per
  /// bit at its core-only port count. Added for pass-through visits the
  /// endpoint floor did not count (optional tightening).
  const std::vector<double>* switch_ebit_floor = nullptr;
};

struct RouteOutcome {
  bool success = false;
  std::string failure_reason;  ///< human-readable, empty on success
  int flows_routed = 0;
  /// Index (into spec.flows) of the flow on which routing failed: latency
  /// budget violated or no admissible path. -1 on success or pre-flight
  /// failures (e.g. max_ports size mismatch).
  int failed_flow = -1;
  /// True when the failure was a violated latency budget (as opposed to a
  /// structural one: no admissible path, ports, capacity). Structured
  /// counterpart of the prose in failure_reason — classify on this, never
  /// on the message text (flow labels appear inside it).
  bool latency_violation = false;
  /// True when routing was abandoned because the cost bound proved the
  /// candidate dominated (success is false; nothing else is meaningful
  /// except the lower bounds below).
  bool pruned = false;
  /// True when at least one per-flow bound check ran in the pass that
  /// produced this outcome; the lower bounds below then hold the values of
  /// the last check, whether the pass was pruned there, failed on a later
  /// flow or succeeded. Along one pass both bounds never decrease (each
  /// routed flow adds a non-negative amount) and the trajectory is
  /// independent of the front consulted, so a later re-check of the last
  /// checkpoint against a richer front decides exactly what a run against
  /// that front would have decided at every checkpoint of the pass.
  bool bound_checked = false;
  double pruned_power_lb_w = 0.0;        ///< power bound at the last checkpoint
  double pruned_latency_lb_cycles = 0.0; ///< avg-latency bound at the last checkpoint
};

/// Routes every flow of `spec` over `topo`'s switches, opening links as
/// needed. `topo` must arrive with switches / switch_of_core / island
/// frequencies / positions filled and links/routes empty; on success they
/// are populated. On failure `topo` is left in an unspecified state.
///
/// `scratch` (optional) supplies reusable buffers; nullptr falls back to
/// call-local allocation with identical results. `bound` (optional) enables
/// Pareto-bound pruning; mid-routing checks are automatically restricted to
/// topologies where the intermediate-island fallback pass cannot change the
/// outcome (no intermediate switches, or already in the fallback pass), so
/// pruning never hides a design the unpruned path would have produced.
///
/// `record` (optional) attaches a pure OBSERVER to the greedy pass: the
/// reference candidate's routed hop sequences and power normalizer are
/// captured into it (routing results are unchanged). `delta` (optional)
/// replays such a recording on an ADJACENT candidate of the same
/// enumeration group: flows whose search the config diff provably leaves
/// unchanged (intra-island flows while their island's incremental state is
/// in sync with the reference's; cross-island flows between in-sync
/// islands when a detour bound rules out every intermediate switch) reuse
/// the recorded route without a Dijkstra; the rest route live. Results are
/// bit-identical to a run without `delta` — replay is sound exactly
/// because, per island, the router's state equals the reference's at the
/// same routing position until a diverging live route taints it (see
/// README).
RouteOutcome route_all_flows(NocTopology& topo, const soc::SocSpec& spec,
                             const RouterOptions& options,
                             RouterScratch* scratch = nullptr,
                             const RouteBound* bound = nullptr,
                             DeltaReference* record = nullptr,
                             DeltaRouteState* delta = nullptr);

/// Runtime toggle forcing the delta evaluator to VERIFY every would-be
/// replay with the flow's own full solo Dijkstra (the route-equivalence
/// certificate) instead of trusting the in-sync proof: a reuse whose
/// certified path differs from the record is rejected — the island taints
/// and the certified path is used, so results stay bit-identical either
/// way. This trades away the entire delta speedup for a per-flow runtime
/// check of the soundness argument; tests and the A/B harness flip it on.
/// Returns the previous value.
bool set_delta_cert_forced(bool enabled);
[[nodiscard]] bool delta_cert_forced();

/// True if a link from switch `a` to switch `b` is admissible for a flow
/// going from island `src_isl` to island `dst_isl` under the shutdown-safety
/// rule. Exposed for tests and the safety verifier.
[[nodiscard]] bool link_admissible(soc::IslandId a_isl, soc::IslandId b_isl,
                                   soc::IslandId src_isl, soc::IslandId dst_isl);

}  // namespace vinoc::core
