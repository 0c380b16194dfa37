// Virtual-channel wormhole router (paper Sec. 2.2).
//
// Pipeline model: an arriving flit is buffered in its input VC and becomes
// eligible one cycle later, modelling the RC/VA/SA stage; switch traversal
// happens the cycle it wins switch arbitration, and the link adds one more
// cycle. Route computation, VC allocation and switch allocation are all
// performed within one tick (the paper's routers fold RC+VA+SA into the
// first pipeline stage via lookahead/speculation).
//
// Flow control is credit-based: the router tracks, per output VC, how many
// buffer slots remain in the downstream input VC, and returns a credit
// upstream whenever a flit leaves one of its own input buffers.
//
// The port count is the topology's radix (5 for the paper's mesh: local +
// N/E/S/W; 8 for the concentrated mesh: 4 locals + compass). Ports
// [0, num_local_ports) eject into the attached NICs; the rest carry
// inter-router links. On topologies with wrap links (torus, circulant) the
// route LUT also carries the dateline VC half each hop must allocate from.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "noc/arbiter.hpp"
#include "noc/buffer.hpp"
#include "noc/channel.hpp"
#include "noc/qos.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "noc/vc_policy.hpp"

namespace gnoc {

class Auditor;
class Nic;
class SoaCore;

/// The dateline restriction of a class's VC range: half 0 is the lower
/// (pre-wrap) half, half 1 the upper (post-wrap) half. Needs size >= 2 —
/// the Network validates that for every dateline topology at construction.
VcRange DatelineHalf(VcRange range, std::int8_t half);

/// The requests `QosArbitrate` lets through this call: kStrict keeps the
/// classes of highest priority among the requesting ones (ties stay
/// together); kWrr keeps the requesting classes that hold credit,
/// recharging every class to its weight first when none does. Under kNone,
/// or with no requests, that is every request. `class_mask[c]` marks the
/// inputs of class c; only their bits within `requests` are read.
inline std::uint64_t QosAllowed(
    std::uint64_t requests, QosArbitration mode,
    const std::array<int, kNumClasses>& priority,
    std::array<int, kNumClasses>& wrr_credit,
    const std::array<std::uint64_t, kNumClasses>& class_mask) {
  if (mode == QosArbitration::kNone || requests == 0) return requests;
  std::uint64_t allowed = 0;
  if (mode == QosArbitration::kStrict) {
    int best = 0;
    bool seeded = false;
    for (std::size_t c = 0; c < class_mask.size(); ++c) {
      if ((requests & class_mask[c]) != 0 && (!seeded || priority[c] > best)) {
        best = priority[c];
        seeded = true;
      }
    }
    for (std::size_t c = 0; c < class_mask.size(); ++c) {
      if (priority[c] == best) allowed |= class_mask[c];
    }
  } else {  // kWrr
    bool funded = false;
    for (std::size_t c = 0; c < class_mask.size(); ++c) {
      if ((requests & class_mask[c]) != 0 && wrr_credit[c] > 0) funded = true;
    }
    if (!funded) {
      for (std::size_t c = 0; c < class_mask.size(); ++c) {
        wrr_credit[c] = std::max(1, priority[c]);
      }
    }
    for (std::size_t c = 0; c < class_mask.size(); ++c) {
      if (wrr_credit[c] > 0) allowed |= class_mask[c];
    }
  }
  return requests & allowed;
}

/// One QoS-aware arbiter invocation of the router's VA, SA1 and SA2
/// stages: `arb.Arbitrate` over the requests QosAllowed lets through.
/// Under kWrr the winner's class pays one credit (`wrr_credit` persists
/// per arbiter site).
template <typename Arb>
int QosArbitrate(Arb& arb, std::uint64_t requests, QosArbitration mode,
                 const std::array<int, kNumClasses>& priority,
                 std::array<int, kNumClasses>& wrr_credit,
                 const std::array<std::uint64_t, kNumClasses>& class_mask) {
  const int winner = arb.Arbitrate(
      QosAllowed(requests, mode, priority, wrr_credit, class_mask));
  if (mode == QosArbitration::kWrr && winner >= 0) {
    const std::uint64_t bit = std::uint64_t{1} << winner;
    for (std::size_t c = 0; c < class_mask.size(); ++c) {
      if ((class_mask[c] & bit) != 0) --wrr_credit[c];
    }
  }
  return winner;
}

/// Static configuration shared by every router in a network.
struct RouterConfig {
  int num_vcs = 2;
  int vc_depth = 4;
  RoutingAlgorithm routing = RoutingAlgorithm::kXY;
  VcPolicyKind vc_policy = VcPolicyKind::kSplit;
  /// Atomic (conservative) VC reallocation: an output VC becomes free for
  /// the next packet only after its downstream buffer has fully drained
  /// (all credits returned), not merely after the tail left. This matches
  /// low-cost router designs and makes per-VC buffering the throughput
  /// limiter on saturated links — the effect VC monopolizing exploits.
  bool atomic_vc_realloc = true;
  /// Epoch length (cycles) of the dynamic-partitioning feedback loop
  /// (only used when vc_policy == kDynamic).
  Cycle dynamic_epoch = 512;
  /// Arbiter microarchitecture used by the VA and SA stages.
  ArbiterKind arbiter = ArbiterKind::kRoundRobin;
  /// QoS class precedence in the VA/SA stages (DESIGN.md §15). kNone keeps
  /// the allocators bit-identical to the pre-QoS router.
  QosArbitration qos_arbitration = QosArbitration::kNone;
  /// Per-class priority (strict: higher wins; WRR: weight = max(1, prio)).
  std::array<int, kNumClasses> qos_priority{};
  /// QoS VC reservation per class, forwarded to the VcPolicy.
  std::array<int, kNumClasses> qos_reserved{};
  /// The topology graph, when the router lives in a Network: drives the
  /// port count, the local-port count and the per-(destination, class)
  /// route LUT (the router's node id is its index in the topology).
  /// nullptr falls back to a standalone 5-port mesh router.
  const Topology* topology = nullptr;
  /// Mesh dimensions for standalone routers (unit tests) without a
  /// topology: non-zero dimensions precompute a mesh route LUT; 0 falls
  /// back to ComputeOutputPort per head flit.
  int mesh_width = 0;
  int mesh_height = 0;
};

/// Per-router counters, exposed for link-utilization analysis (Fig. 4/6).
struct RouterStats {
  /// Flits sent through each output port, by traffic class. Sized by the
  /// router's port count.
  std::vector<std::array<std::uint64_t, kNumClasses>> flits_out;
  /// Cycles in which at least one flit traversed the switch.
  std::uint64_t busy_cycles = 0;
  /// Total switch traversals.
  std::uint64_t flits_forwarded = 0;
  /// VA attempts that failed because no allowed output VC was free.
  std::uint64_t va_failures = 0;
  /// SA requests that lost arbitration or lacked credits.
  std::uint64_t sa_stalls = 0;
  /// Cycles an input VC with an allocated output VC could not traverse for
  /// lack of downstream credits, by *downstream* VC id (summed over output
  /// ports). Sized num_vcs by the Router; subset of `sa_stalls`.
  std::vector<std::uint64_t> credit_stall_by_vc;
  /// Sum over cycles of total buffered flits (divide by cycles for mean).
  std::uint64_t buffered_flit_cycles = 0;
};

/// One router. Wiring (channels, NICs) is injected by the Network.
class Router {
 public:
  Router(NodeId node, Coord coord, const RouterConfig& config);

  NodeId node() const { return node_; }
  Coord coord() const { return coord_; }
  const RouterConfig& config() const { return config_; }

  /// Ports on this router (the topology's radix; 5 standalone).
  int num_ports() const { return num_ports_; }
  /// Ports [0, num_local_ports) eject into NICs (1 except cmesh).
  int num_local_ports() const { return num_local_ports_; }

  // --- wiring (called once by Network) ---

  /// Downstream flit channel for `out_port` (nullptr on mesh boundary).
  void SetOutputChannel(Port out_port, FlitChannel* channel);

  /// Credit channel returning credits to the upstream router/NIC that feeds
  /// input port `in_port`.
  void SetCreditReturnChannel(Port in_port, CreditChannel* channel);

  /// The NIC attached to local port 0 (ejection target).
  void SetNic(Nic* nic);

  /// The NIC attached to local port `local_port` (cmesh has 4).
  void SetNic(int local_port, Nic* nic);

  /// Sets the statically analyzed class usage of the link leaving through
  /// `out_port` (consumed by link-aware partial monopolizing). Defaults to
  /// kMixed, which is always safe.
  void SetLinkMode(Port out_port, LinkMode mode);

  /// Attaches the network's invariant auditor (nullptr = auditing off).
  void SetAuditor(Auditor* auditor) { auditor_ = auditor; }

  /// Audit link id of the link leaving through `out_port`.
  void SetAuditOutLink(Port out_port, int link) {
    audit_out_[static_cast<std::size_t>(PortIndex(out_port))] = link;
  }

  /// Audit link id of the link feeding `in_port`.
  void SetAuditInLink(Port in_port, int link) {
    audit_in_[static_cast<std::size_t>(PortIndex(in_port))] = link;
  }

  /// Counter bumped on every switch traversal (the network's incremental
  /// deadlock-watchdog progress signal). nullptr = off.
  void SetProgressSink(std::uint64_t* sink) { progress_sink_ = sink; }

  // --- per-cycle interface (called by Network) ---

  /// Delivers a flit arriving on `in_port`; it occupies the VC the upstream
  /// allocator chose (`flit.vc`) and becomes pipeline-eligible next cycle.
  void AcceptFlit(Port in_port, const Flit& flit, Cycle now);

  /// Delivers a credit for output port `out_port`, VC `vc`.
  void AcceptCredit(Port out_port, VcId vc);

  /// Runs one cycle: route computation, VC allocation, switch allocation and
  /// switch traversal for eligible flits. The only RC/VA/SA/ST
  /// implementation: both scheduling modes call it, so they differ only in
  /// which routers they skip (DESIGN.md §14).
  void Tick(Cycle now);

  // --- introspection ---

  const RouterStats& stats() const { return stats_; }

  /// Zeroes the statistics counters (network state is untouched).
  void ResetStats();

  /// True when `out_port` is wired to a downstream channel. False on mesh
  /// boundaries and for local ports, which eject directly into the NICs.
  bool HasOutputChannel(Port out_port) const {
    return out_channels_[static_cast<std::size_t>(PortIndex(out_port))] !=
           nullptr;
  }

  /// Total flits currently buffered in all input VCs: a running count kept
  /// by AcceptFlit, switch traversal and Load (O(1)).
  std::size_t BufferedFlits() const { return buffered_; }

  /// True when a Tick can still change state: flits buffered, or (dynamic
  /// policy) uncommitted epoch flit counts awaiting the next boundary
  /// update. scheduling=soa skips the Tick of a router for which this is
  /// false. Credits need no term: the recycle a credit enables is a pure
  /// function of credit state and is deferred safely to the next Tick.
  bool HasWork() const {
    return buffered_ > 0 ||
           (config_.vc_policy == VcPolicyKind::kDynamic && epoch_dirty_);
  }

  /// The output port a packet of class `cls` headed for `dst` takes here
  /// (LUT when the topology or mesh dimensions are known, ComputeOutputPort
  /// otherwise).
  Port RouteFor(TrafficClass cls, Coord dst) const {
    if (route_lut_.empty()) {
      return ComputeOutputPort(config_.routing, cls, coord_, dst);
    }
    return route_lut_[LutIndex(cls, dst)];
  }

  /// The dateline VC half the hop for (`cls`, `dst`) must allocate from
  /// (-1 = unrestricted; only torus/circulant restrict).
  std::int8_t RouteHalfFor(TrafficClass cls, Coord dst) const {
    if (route_half_.empty()) return -1;
    return route_half_[LutIndex(cls, dst)];
  }

  /// Occupancy of one input VC (for tests and invariant checks).
  std::size_t VcOccupancy(Port in_port, VcId vc) const;

  /// Visits the flits buffered in one input VC, oldest first (invariant
  /// auditing).
  void VisitVcFlits(Port in_port, VcId vc,
                    const std::function<void(const Flit&)>& fn) const;

  /// Credits currently available on one output VC (for tests).
  int OutputCredits(Port out_port, VcId vc) const;

  /// True when the output VC is currently allocated to a packet.
  bool OutputVcAllocated(Port out_port, VcId vc) const;

  /// Current request/reply VC boundary of `out_port` (dynamic policy only;
  /// requests use [0, boundary), replies [boundary, num_vcs)).
  VcId DynamicBoundary(Port out_port) const;

  /// Snapshot support (DESIGN.md §10): all mutable per-cycle state — input
  /// and output VCs, dynamic-boundary state, arbiter priorities, stats.
  /// Wiring (channels, NICs, auditor) and the route LUT are
  /// construction-derived and not serialized; Load requires a Router built
  /// from the identical config. The ready cycles, front classes, buffered
  /// count and the allocated/tail-sent output VC masks are re-derived from
  /// the loaded VCs.
  void Save(Serializer& s) const;
  void Load(Deserializer& d);
  template <typename Ar>
  void Transfer(Ar& ar);  // the field list, in router.cpp

 private:
  /// Plants a stale buffered count for the scheduler-coverage mutation
  /// test (SoaCore::PlantStaleSkipCounter).
  friend class SoaCore;

  /// State of one input VC.
  struct InputVc {
    explicit InputVc(int depth) : buffer(static_cast<std::size_t>(depth)) {}
    VcBuffer buffer;
    bool route_valid = false;     ///< out_port computed for current packet
    Port out_port = Port::kLocal;
    VcId out_vc = kInvalidVc;     ///< allocated downstream VC (non-local)
    bool eject = false;           ///< current packet leaves via a local port
    std::int8_t vc_half = -1;     ///< dateline half constraint for VA
  };

  /// Book-keeping for one downstream input VC.
  struct OutputVc {
    bool allocated = false;
    bool tail_sent = false;  ///< tail forwarded; waiting for drain (atomic)
    int credits = 0;

    template <typename Ar>
    void Transfer(Ar& ar) {
      ar(allocated, tail_sent, credits);
    }
  };

  /// Frees output VCs whose packet has fully drained downstream.
  void RecycleOutputVcs();

  /// One Tick's allocation and traversal with the configured arbiter kind.
  template <typename Arb>
  void AllocateAndTraverse(std::vector<Arb>& arbiters, Cycle now);

  /// The VC range `cls` may allocate on `out_port` right now (honours the
  /// static policy, the link mode and — for kDynamic — the port boundary).
  VcRange AllowedRange(TrafficClass cls, Port out_port) const;

  /// Moves each port's dynamic boundary one step towards the traffic share
  /// observed in the finished epoch, then starts a new epoch.
  void UpdateDynamicBoundaries();

  std::size_t LutIndex(TrafficClass cls, Coord dst) const {
    return static_cast<std::size_t>(
        (dst.y * lut_width_ + dst.x) * kNumClasses + ClassIndex(cls));
  }

  int FlatVcIndex(Port port, VcId vc) const {
    return PortIndex(port) * config_.num_vcs + vc;
  }

  /// The bits of the [port][vc] flattened masks that belong to `port`,
  /// shifted down to bit 0 = VC 0.
  std::uint64_t PortBits(std::uint64_t mask, int port) const {
    return (mask >> (port * config_.num_vcs)) & port_vc_bits_;
  }

  /// Class of the flit at the front of input VC `idx` (which holds one).
  TrafficClass FrontClass(std::size_t idx) const {
    static_assert(kNumClasses == 2, "one mask bit tells the class apart");
    return static_cast<TrafficClass>(
        (front_cls_[ClassIndex(TrafficClass::kReply)] >> idx) & 1);
  }

  InputVc& Ivc(Port port, VcId vc) {
    return input_vcs_[static_cast<std::size_t>(FlatVcIndex(port, vc))];
  }
  const InputVc& Ivc(Port port, VcId vc) const {
    return input_vcs_[static_cast<std::size_t>(FlatVcIndex(port, vc))];
  }
  OutputVc& Ovc(Port port, VcId vc) {
    return output_vcs_[static_cast<std::size_t>(FlatVcIndex(port, vc))];
  }
  const OutputVc& Ovc(Port port, VcId vc) const {
    return output_vcs_[static_cast<std::size_t>(FlatVcIndex(port, vc))];
  }

  /// RC for every eligible unrouted head; records the eligible input VCs
  /// and buckets the VA requesters by output port. Returns false when no
  /// input VC is eligible this cycle: VA/SA/ST then cannot touch any state
  /// (no requests, so no arbiter call and no stall counter) and are
  /// skipped.
  bool RouteEligible(Cycle now);
  /// A body/tail flit heads an unrouted VC: asserts without an auditor,
  /// otherwise reports a kWormhole violation.
  void ReportBrokenWormhole(std::size_t idx, const Flit& front, Cycle now);
  template <typename Arb>
  void AllocateVcs(Arb* va_arb);  // VA
  /// SA phase 1: each input port nominates one VC into `nominee_` and
  /// requests the nominee's output port in `sa2_requests_`. Returns false
  /// when no port nominated (SA2/ST would change nothing).
  template <typename Arb>
  bool NominateInputs(Arb* sa1_arb);
  template <typename Arb>
  void GrantAndTraverse(Arb* sa2_arb, Cycle now);  // SA phase 2 + ST
  /// Updates front_ready_/front_cls_ after input VC `idx`'s front changed.
  void RefreshFront(std::size_t idx);

  NodeId node_;
  Coord coord_;
  RouterConfig config_;
  VcPolicy policy_;
  int num_ports_ = kNumPorts;
  int num_local_ports_ = 1;
  int lut_width_ = 0;

  std::vector<InputVc> input_vcs_;    // [port][vc] flattened
  std::vector<OutputVc> output_vcs_;  // [port][vc] flattened
  /// Ready cycle of each input VC's front flit, kNeverCycle when empty
  /// ([port][vc] flattened): eligibility is one compare on a dense array
  /// instead of a deque dereference.
  std::vector<Cycle> front_ready_;
  std::uint32_t buffered_ = 0;  ///< flits across all input VCs

  // Bit masks over the [port][vc] flattened index; ports x VCs <= 64 (the
  // Network rejects wider routers). All are derived state, rebuilt on Load.
  std::uint64_t port_vc_bits_ = 0;  ///< num_vcs low bits
  /// Input VCs whose front flit is of class c (empty VCs in neither).
  std::array<std::uint64_t, kNumClasses> front_cls_{};
  std::uint64_t allocated_ = 0;  ///< output VCs with OutputVc::allocated
  /// Allocated output VCs on wired ports whose tail has left: the only
  /// ones RecycleOutputVcs can free.
  std::uint64_t tail_sent_ = 0;
  std::uint64_t eligible_ = 0;  ///< input VCs ready this Tick

  std::vector<FlitChannel*> out_channels_;    // sized num_ports_
  std::vector<CreditChannel*> credit_return_;
  std::vector<LinkMode> link_modes_;          // default kMixed
  std::vector<Nic*> nics_;                    // sized num_local_ports_

  Auditor* auditor_ = nullptr;
  std::vector<int> audit_out_;  // audit link ids, -1 = none
  std::vector<int> audit_in_;

  std::uint64_t* progress_sink_ = nullptr;

  /// Per-(destination node, class) output ports and dateline VC halves,
  /// precomputed when the topology (or, standalone, the mesh dimensions)
  /// is known; empty = compute per head flit.
  std::vector<Port> route_lut_;
  std::vector<std::int8_t> route_half_;

  // Dynamic-partitioning state: per-port boundary and per-epoch flit
  // counters by class.
  std::vector<VcId> boundaries_;
  std::vector<std::array<std::uint64_t, kNumClasses>> epoch_flits_;
  bool epoch_dirty_ = false;  ///< any epoch_flits_ entry nonzero
  Cycle next_boundary_update_ = 0;

  // The arbiters of the configured kind (the other vector stays empty),
  // in three per-port runs: [0, P) one VA arbiter per output port (over
  // all input VCs), [P, 2P) one SA input arbiter per input port (over its
  // VCs), [2P, 3P) one SA output arbiter per output port (over input
  // ports), P = num_ports_.
  std::vector<RoundRobinArbiter> rr_arb_;
  std::vector<MatrixArbiter> matrix_arb_;

  // Per-site WRR credit state (qos_arbitration == kWrr only; see
  // QosArbitrate). One entry per arbiter above, indexed like it.
  std::vector<std::array<int, kNumClasses>> qos_va_credit_;
  std::vector<std::array<int, kNumClasses>> qos_sa1_credit_;
  std::vector<std::array<int, kNumClasses>> qos_sa2_credit_;

  // Arbitration scratch, preallocated so a Tick never allocates. Each
  // stage leaves its request masks zeroed for the next Tick.
  /// Per output port: the input VCs requesting a VC there.
  std::vector<std::uint64_t> va_requests_;
  /// Per output port: the input ports whose nominee leaves through it.
  std::vector<std::uint64_t> sa2_requests_;
  std::vector<int> nominee_;  ///< VC per input port (valid if it requests)
  /// Input ports whose nominee is of class c.
  std::array<std::uint64_t, kNumClasses> nominee_cls_{};

  RouterStats stats_;
};

}  // namespace gnoc
