#include "noc/router.hpp"

#include <bit>
#include <cassert>
#include <string>
#include <type_traits>

#include "common/serialize.hpp"

#include "noc/audit.hpp"
#include "noc/nic.hpp"

namespace gnoc {

namespace {

std::uint64_t Bit(std::size_t i) { return std::uint64_t{1} << i; }

/// The VCs of `range` as a mask (bit v = VC v).
std::uint64_t RangeBits(VcRange range) {
  if (range.size() <= 0) return 0;
  return (Bit(static_cast<std::size_t>(range.end)) - 1) &
         ~(Bit(static_cast<std::size_t>(range.begin)) - 1);
}

/// Moves `arb` and the QoS state exactly as the VA loop would when every
/// requester in `requests` wins in turn and fails (no VC it may use is
/// free), without arbitrating one by one where a round-robin pass can be
/// collapsed. Returns the number of arbitrations (= VA failures).
template <typename Arb>
std::uint64_t FailAll(Arb& arb, std::uint64_t requests, QosArbitration mode,
                      const std::array<int, kNumClasses>& priority,
                      std::array<int, kNumClasses>& wrr_credit,
                      const std::array<std::uint64_t, kNumClasses>& cls) {
  if constexpr (std::is_same_v<Arb, RoundRobinArbiter>) {
    if (mode != QosArbitration::kWrr) {
      // Each strict-priority group is one rotation pass (kNone: one group).
      const auto failures = static_cast<std::uint64_t>(std::popcount(requests));
      while (requests != 0) {
        const std::uint64_t group =
            QosAllowed(requests, mode, priority, wrr_credit, cls);
        arb.PassAll(group);
        requests &= ~group;
      }
      return failures;
    }
  }
  // Matrix order and WRR credits depend on every step: arbitrate each.
  std::uint64_t failures = 0;
  while (requests != 0) {
    const int winner =
        QosArbitrate(arb, requests, mode, priority, wrr_credit, cls);
    if (winner < 0) break;
    requests &= ~Bit(static_cast<std::size_t>(winner));
    ++failures;
  }
  return failures;
}

}  // namespace

VcRange DatelineHalf(VcRange range, std::int8_t half) {
  assert(range.size() >= 2 && "dateline topologies need >= 2 VCs per class");
  const VcId mid = range.begin + range.size() / 2;
  return half == 0 ? VcRange{range.begin, mid} : VcRange{mid, range.end};
}

Router::Router(NodeId node, Coord coord, const RouterConfig& config)
    : node_(node),
      coord_(coord),
      config_(config),
      policy_(config.vc_policy, config.num_vcs, config.qos_reserved) {
  assert(config.num_vcs >= 1);
  assert(config.vc_depth >= 1);
  const Topology* topo = config_.topology;
  num_ports_ = topo != nullptr ? topo->radix() : kNumPorts;
  num_local_ports_ = topo != nullptr ? topo->num_local_ports() : 1;
  const auto total_vcs =
      static_cast<std::size_t>(num_ports_ * config_.num_vcs);
  // One request bit per input VC in a mask (Network validates the width).
  assert(total_vcs <= kMaxArbiterInputs);
  port_vc_bits_ = Bit(static_cast<std::size_t>(config_.num_vcs)) - 1;
  input_vcs_.reserve(total_vcs);
  for (std::size_t i = 0; i < total_vcs; ++i) {
    input_vcs_.emplace_back(config_.vc_depth);
  }
  output_vcs_.resize(total_vcs);
  out_channels_.assign(static_cast<std::size_t>(num_ports_), nullptr);
  credit_return_.assign(static_cast<std::size_t>(num_ports_), nullptr);
  link_modes_.assign(static_cast<std::size_t>(num_ports_), LinkMode::kMixed);
  nics_.assign(static_cast<std::size_t>(num_local_ports_), nullptr);
  // Both ends of every link must seed the same dynamic boundary — the NIC
  // uses the same helper for its injection link.
  boundaries_.assign(static_cast<std::size_t>(num_ports_),
                     InitialBoundary(config_.num_vcs));
  epoch_flits_.assign(static_cast<std::size_t>(num_ports_), {});
  next_boundary_update_ = config_.dynamic_epoch;
  stats_.flits_out.assign(static_cast<std::size_t>(num_ports_), {});
  stats_.credit_stall_by_vc.assign(static_cast<std::size_t>(config_.num_vcs),
                                   0);
  audit_out_.assign(static_cast<std::size_t>(num_ports_), -1);
  audit_in_.assign(static_cast<std::size_t>(num_ports_), -1);
  if (topo != nullptr) {
    lut_width_ = topo->width();
    const int tiles = topo->num_tiles();
    route_lut_.reserve(static_cast<std::size_t>(tiles * kNumClasses));
    route_half_.reserve(static_cast<std::size_t>(tiles * kNumClasses));
    for (NodeId dst = 0; dst < tiles; ++dst) {
      for (int c = 0; c < kNumClasses; ++c) {
        const RouteStep step = topo->Route(
            config_.routing, static_cast<TrafficClass>(c), node_, dst);
        route_lut_.push_back(static_cast<Port>(step.port));
        route_half_.push_back(step.vc_half);
      }
    }
  } else if (config_.mesh_width > 0 && config_.mesh_height > 0) {
    lut_width_ = config_.mesh_width;
    route_lut_.reserve(static_cast<std::size_t>(
        config_.mesh_width * config_.mesh_height * kNumClasses));
    for (int y = 0; y < config_.mesh_height; ++y) {
      for (int x = 0; x < config_.mesh_width; ++x) {
        for (int c = 0; c < kNumClasses; ++c) {
          route_lut_.push_back(ComputeOutputPort(config_.routing,
                                                 static_cast<TrafficClass>(c),
                                                 coord_, Coord{x, y}));
        }
      }
    }
    // Standalone mesh routers never restrict VC halves.
    route_half_.assign(route_lut_.size(), -1);
  }
  const auto ports = static_cast<std::size_t>(num_ports_);
  const auto fill = [&](auto& arbs) {
    arbs.reserve(3 * ports);
    for (std::size_t p = 0; p < ports; ++p) arbs.emplace_back(total_vcs);
    for (std::size_t p = 0; p < ports; ++p) {
      arbs.emplace_back(static_cast<std::size_t>(config_.num_vcs));
    }
    for (std::size_t p = 0; p < ports; ++p) arbs.emplace_back(ports);
  };
  if (config_.arbiter == ArbiterKind::kMatrix) {
    fill(matrix_arb_);
  } else {
    fill(rr_arb_);
  }
  qos_va_credit_.assign(ports, {});
  qos_sa1_credit_.assign(ports, {});
  qos_sa2_credit_.assign(ports, {});
  front_ready_.assign(total_vcs, kNeverCycle);
  va_requests_.assign(ports, 0);
  sa2_requests_.assign(ports, 0);
  nominee_.assign(ports, -1);
}

void Router::SetOutputChannel(Port out_port, FlitChannel* channel) {
  out_channels_[static_cast<std::size_t>(PortIndex(out_port))] = channel;
  // Credits for a fresh link equal the downstream buffer depth.
  if (channel != nullptr) {
    for (VcId v = 0; v < config_.num_vcs; ++v) {
      Ovc(out_port, v).credits = config_.vc_depth;
    }
  }
}

void Router::SetCreditReturnChannel(Port in_port, CreditChannel* channel) {
  credit_return_[static_cast<std::size_t>(PortIndex(in_port))] = channel;
}

void Router::SetNic(Nic* nic) { nics_[0] = nic; }

void Router::SetNic(int local_port, Nic* nic) {
  nics_[static_cast<std::size_t>(local_port)] = nic;
}

void Router::SetLinkMode(Port out_port, LinkMode mode) {
  link_modes_[static_cast<std::size_t>(PortIndex(out_port))] = mode;
}

void Router::AcceptFlit(Port in_port, const Flit& flit, Cycle now) {
  if (auditor_ != nullptr) {
    const int link = audit_in_[static_cast<std::size_t>(PortIndex(in_port))];
    if (link >= 0) auditor_->OnFlitReceived(link, flit, now);
  }
  assert(flit.vc >= 0 && flit.vc < config_.num_vcs);
  const int idx = FlatVcIndex(in_port, flit.vc);
  InputVc& ivc = input_vcs_[static_cast<std::size_t>(idx)];
  assert(!ivc.buffer.full() && "credit protocol violated: buffer overflow");
  Flit f = flit;
  f.ready = now + 1;  // models the RC/VA/SA pipeline stage
  ivc.buffer.Push(f);
  // Landed in an empty VC: the flit is the new front.
  if (front_ready_[static_cast<std::size_t>(idx)] == kNeverCycle) {
    RefreshFront(static_cast<std::size_t>(idx));
  }
  ++buffered_;
}

void Router::AcceptCredit(Port out_port, VcId vc) {
  assert(vc >= 0 && vc < config_.num_vcs);
  OutputVc& ovc = Ovc(out_port, vc);
  ++ovc.credits;
  // A planted fault may overflow: the auditor reports it.
  assert((auditor_ != nullptr || ovc.credits <= config_.vc_depth) &&
         "credit overflow");
}

void Router::Tick(Cycle now) {
  if (config_.vc_policy == VcPolicyKind::kDynamic) {
    // The loop replays the boundary updates a router missed while
    // scheduling=soa skipped it. Only zero-count epochs can be missed
    // (nonzero epoch counts keep HasWork true), and those never move the
    // boundary, so the caught-up state is bit-identical to full
    // scheduling; under full scheduling the loop body runs at most once
    // per tick.
    while (now >= next_boundary_update_) UpdateDynamicBoundaries();
  }
  RecycleOutputVcs();
  if (RouteEligible(now)) {
    if (config_.arbiter == ArbiterKind::kMatrix) {
      AllocateAndTraverse(matrix_arb_, now);
    } else {
      AllocateAndTraverse(rr_arb_, now);
    }
  }
  stats_.buffered_flit_cycles += buffered_;
}

template <typename Arb>
void Router::AllocateAndTraverse(std::vector<Arb>& arbiters, Cycle now) {
  Arb* arb = arbiters.data();
  AllocateVcs(arb);
  if (NominateInputs(arb + num_ports_)) {
    GrantAndTraverse(arb + 2 * num_ports_, now);
  }
}

void Router::RefreshFront(std::size_t idx) {
  const VcBuffer& buffer = input_vcs_[idx].buffer;
  for (std::uint64_t& mask : front_cls_) mask &= ~Bit(idx);
  if (buffer.empty()) {
    front_ready_[idx] = kNeverCycle;
    return;
  }
  const Flit& front = buffer.Front();
  front_ready_[idx] = front.ready;
  front_cls_[static_cast<std::size_t>(ClassIndex(front.cls))] |= Bit(idx);
}

VcRange Router::AllowedRange(TrafficClass cls, Port out_port) const {
  if (config_.vc_policy == VcPolicyKind::kDynamic) {
    return PartitionAt(cls,
                       boundaries_[static_cast<std::size_t>(PortIndex(out_port))],
                       config_.num_vcs);
  }
  return policy_.AllowedVcs(
      cls, out_port, link_modes_[static_cast<std::size_t>(PortIndex(out_port))]);
}

void Router::UpdateDynamicBoundaries() {
  for (int p = 0; p < num_ports_; ++p) {
    auto& counts = epoch_flits_[static_cast<std::size_t>(p)];
    const std::uint64_t req = counts[ClassIndex(TrafficClass::kRequest)];
    const std::uint64_t rep = counts[ClassIndex(TrafficClass::kReply)];
    counts.fill(0);
    if (req + rep == 0) continue;  // idle port: keep the current boundary
    const double share =
        static_cast<double>(req) / static_cast<double>(req + rep);
    const VcId target = BoundaryForShare(share, config_.num_vcs);
    VcId& boundary = boundaries_[static_cast<std::size_t>(p)];
    // Hysteresis: move one VC per epoch towards the target.
    if (target > boundary) {
      ++boundary;
    } else if (target < boundary) {
      --boundary;
    }
  }
  epoch_dirty_ = false;
  // += (not now + epoch) keeps boundaries on the construction-time epoch
  // grid even when updates are replayed late; equivalent under full
  // scheduling, where updates fire exactly at the grid points.
  next_boundary_update_ += config_.dynamic_epoch;
}

VcId Router::DynamicBoundary(Port out_port) const {
  return boundaries_[static_cast<std::size_t>(PortIndex(out_port))];
}

void Router::RecycleOutputVcs() {
  for (std::uint64_t pending = tail_sent_; pending != 0;
       pending &= pending - 1) {
    const auto idx = static_cast<std::size_t>(std::countr_zero(pending));
    OutputVc& ovc = output_vcs_[idx];
    if (!config_.atomic_vc_realloc || ovc.credits == config_.vc_depth) {
      ovc.allocated = false;
      ovc.tail_sent = false;
      allocated_ &= ~Bit(idx);
      tail_sent_ &= ~Bit(idx);
    }
  }
}

void Router::ReportBrokenWormhole(std::size_t idx, const Flit& front,
                                  Cycle now) {
  // Only a planted fault (or a corrupt snapshot) gets here. With an
  // auditor attached it is a wormhole violation to report; the flit is
  // then routed as a head, as a Release build always did.
  assert(auditor_ != nullptr &&
         "non-head flit at front of an unrouted VC: wormhole broken");
  if (auditor_ == nullptr) return;
  auditor_->ReportViolation(
      AuditInvariant::kWormhole, now,
      "router " + std::to_string(node_) + " input VC " + std::to_string(idx) +
          ": packet " + std::to_string(front.packet_id) + " seq " +
          std::to_string(front.seq) + " at the front of an unrouted VC");
}

bool Router::RouteEligible(Cycle now) {
  // --- RC: compute the output port for input VCs whose front flit is a
  // head and whose current packet has no route yet. The same scan records
  // which VCs are eligible and which of them request a VC at each output
  // port (routed, not ejecting, no output VC yet).
  // Local copies of the array bounds: the byte-sized field stores below
  // may alias anything, which would otherwise force a reload per VC.
  const Cycle* ready = front_ready_.data();
  const std::size_t total_vcs = front_ready_.size();
  std::uint64_t* va_requests = va_requests_.data();
  std::uint64_t eligible = 0;
  for (std::size_t idx = 0; idx < total_vcs; ++idx) {
    if (ready[idx] > now) continue;
    eligible |= Bit(idx);
    InputVc& ivc = input_vcs_[idx];
    if (!ivc.route_valid) {
      const Flit& front = ivc.buffer.Front();
      if (!IsHead(front)) [[unlikely]] ReportBrokenWormhole(idx, front, now);
      ivc.out_port = RouteFor(front.cls, front.dst_coord);
      ivc.vc_half = RouteHalfFor(front.cls, front.dst_coord);
      ivc.route_valid = true;
      ivc.eject = PortIndex(ivc.out_port) < num_local_ports_;
      ivc.out_vc = kInvalidVc;
    }
    if (!ivc.eject && ivc.out_vc == kInvalidVc) {
      va_requests[PortIndex(ivc.out_port)] |= Bit(idx);
    }
  }
  eligible_ = eligible;
  return eligible != 0;
}

template <typename Arb>
void Router::AllocateVcs(Arb* va_arb) {
  // --- VA: allocate a downstream VC per output port, round-robin over
  // requesting input VCs; each requester gets the lowest free VC in its
  // allowed range. Ejection needs no VC (the NIC reassembles per class),
  // so local-bound packets skip VA. A requester whose range has no free VC
  // fails but still consumes its arbitration.
  for (int op = num_local_ports_; op < num_ports_; ++op) {
    const auto o = static_cast<std::size_t>(op);
    std::uint64_t requests = va_requests_[o];
    if (requests == 0) continue;
    va_requests_[o] = 0;
    if (out_channels_[o] == nullptr) continue;
    const Port out_port = static_cast<Port>(op);
    std::uint64_t free = ~PortBits(allocated_, op) & port_vc_bits_;
    // Each class's range here; a requester's dateline half narrows it.
    std::array<VcRange, kNumClasses> range{};
    std::array<std::uint64_t, kNumClasses> range_bits{};
    for (std::size_t c = 0; c < range.size(); ++c) {
      if ((requests & front_cls_[c]) == 0) continue;
      range[c] = AllowedRange(static_cast<TrafficClass>(c), out_port);
      range_bits[c] = RangeBits(range[c]);
    }
    Arb& arb = va_arb[o];
    std::array<int, kNumClasses>& credit = qos_va_credit_[o];
    while (requests != 0) {
      std::uint64_t reachable = 0;  // VCs some remaining requester may use
      for (std::size_t c = 0; c < range.size(); ++c) {
        if ((requests & front_cls_[c]) != 0) reachable |= range_bits[c];
      }
      if ((free & reachable) == 0) {
        // Fast-fail: no remaining requester can succeed.
        stats_.va_failures += FailAll(arb, requests, config_.qos_arbitration,
                                      config_.qos_priority, credit,
                                      front_cls_);
        break;
      }
      const int winner = QosArbitrate(arb, requests, config_.qos_arbitration,
                                       config_.qos_priority, credit,
                                       front_cls_);
      if (winner < 0) break;
      const auto w = static_cast<std::size_t>(winner);
      requests &= ~Bit(w);
      InputVc& ivc = input_vcs_[w];
      const auto cls = static_cast<std::size_t>(ClassIndex(FrontClass(w)));
      const std::uint64_t allowed =
          ivc.vc_half >= 0 ? RangeBits(DatelineHalf(range[cls], ivc.vc_half))
                           : range_bits[cls];
      const std::uint64_t grantable = free & allowed;
      if (grantable == 0) {
        ++stats_.va_failures;
        continue;  // another class's requester may still succeed
      }
      const VcId granted = std::countr_zero(grantable);
      free &= ~Bit(static_cast<std::size_t>(granted));
      allocated_ |= Bit(static_cast<std::size_t>(FlatVcIndex(out_port, granted)));
      Ovc(out_port, granted).allocated = true;
      ivc.out_vc = granted;
    }
  }
}

template <typename Arb>
bool Router::NominateInputs(Arb* sa1_arb) {
  // --- SA phase 1: each input port nominates one of its VCs.
  bool any_nominee = false;
  nominee_cls_ = {};
  for (int p = 0; p < num_ports_; ++p) {
    std::uint64_t candidates = PortBits(eligible_, p);
    if (candidates == 0) continue;  // no VC can request or stall here
    const std::size_t base = static_cast<std::size_t>(p * config_.num_vcs);
    std::uint64_t requests = 0;
    for (; candidates != 0; candidates &= candidates - 1) {
      const int v = std::countr_zero(candidates);
      const InputVc& ivc = input_vcs_[base + static_cast<std::size_t>(v)];
      if (!ivc.route_valid) continue;
      bool resource_ok = false;
      if (ivc.eject) {
        Nic* nic = nics_[static_cast<std::size_t>(PortIndex(ivc.out_port))];
        resource_ok =
            nic != nullptr &&
            nic->CanAcceptEjection(FrontClass(base + static_cast<std::size_t>(v)));
      } else if (ivc.out_vc != kInvalidVc) {
        resource_ok = Ovc(ivc.out_port, ivc.out_vc).credits > 0;
      }
      if (resource_ok) {
        requests |= Bit(static_cast<std::size_t>(v));
      } else if (ivc.out_vc != kInvalidVc || ivc.eject) {
        ++stats_.sa_stalls;
        if (!ivc.eject) {
          // Blocked purely on downstream credits: charge the allocated
          // downstream VC (telemetry's credit_stall metric).
          ++stats_.credit_stall_by_vc[static_cast<std::size_t>(ivc.out_vc)];
        }
      }
    }
    if (requests == 0) continue;
    const std::array<std::uint64_t, kNumClasses> port_cls{
        PortBits(front_cls_[0], p), PortBits(front_cls_[1], p)};
    const int won = QosArbitrate(sa1_arb[p], requests,
                                 config_.qos_arbitration, config_.qos_priority,
                                 qos_sa1_credit_[static_cast<std::size_t>(p)],
                                 port_cls);
    if (won < 0) continue;
    nominee_[static_cast<std::size_t>(p)] = won;
    const InputVc& ivc = input_vcs_[base + static_cast<std::size_t>(won)];
    sa2_requests_[static_cast<std::size_t>(PortIndex(ivc.out_port))] |=
        Bit(static_cast<std::size_t>(p));
    nominee_cls_[static_cast<std::size_t>(ClassIndex(
        FrontClass(base + static_cast<std::size_t>(won))))] |=
        Bit(static_cast<std::size_t>(p));
    any_nominee = true;
  }
  return any_nominee;
}

template <typename Arb>
void Router::GrantAndTraverse(Arb* sa2_arb, Cycle now) {
  // --- SA phase 2: each output port grants one input port, whose nominee
  // then traverses the switch (ST).
  bool any_traversal = false;
  for (int op = 0; op < num_ports_; ++op) {
    const std::uint64_t requests = sa2_requests_[static_cast<std::size_t>(op)];
    if (requests == 0) continue;
    sa2_requests_[static_cast<std::size_t>(op)] = 0;
    const int p = QosArbitrate(sa2_arb[op], requests, config_.qos_arbitration,
                               config_.qos_priority,
                               qos_sa2_credit_[static_cast<std::size_t>(op)],
                               nominee_cls_);
    if (p < 0) continue;
    const int v = nominee_[static_cast<std::size_t>(p)];
    assert(v >= 0);
    const auto idx =
        static_cast<std::size_t>(FlatVcIndex(static_cast<Port>(p), v));
    InputVc& ivc = input_vcs_[idx];
    Flit flit = ivc.buffer.Pop();
    RefreshFront(idx);
    --buffered_;
    any_traversal = true;
    ++stats_.flits_forwarded;
    if (progress_sink_ != nullptr) ++*progress_sink_;
    stats_.flits_out[static_cast<std::size_t>(op)]
                    [static_cast<std::size_t>(ClassIndex(flit.cls))]++;
    epoch_flits_[static_cast<std::size_t>(op)]
                [static_cast<std::size_t>(ClassIndex(flit.cls))]++;
    epoch_dirty_ = true;

    // Return a credit to whoever feeds this input port.
    if (CreditChannel* cc = credit_return_[static_cast<std::size_t>(p)]) {
      cc->Push(Credit{static_cast<VcId>(v)}, now);
    }

    const Port out_port = static_cast<Port>(op);
    if (op < num_local_ports_) {
      Nic* nic = nics_[static_cast<std::size_t>(op)];
      assert(nic != nullptr);
      nic->AcceptEjectedFlit(flit, now);
      if (auditor_ != nullptr) auditor_->OnFlitEjected(flit, now);
    } else {
      OutputVc& ovc = Ovc(out_port, ivc.out_vc);
      assert(ovc.credits > 0);
      --ovc.credits;
      flit.vc = ivc.out_vc;
      FlitChannel* channel = out_channels_[static_cast<std::size_t>(op)];
      assert(channel != nullptr);
      channel->Push(flit, now);
      if (auditor_ != nullptr) {
        const int link = audit_out_[static_cast<std::size_t>(op)];
        if (link >= 0) auditor_->OnFlitSent(link, flit, now);
      }
      if (IsTail(flit)) {  // recycled once drained
        ovc.tail_sent = true;
        if (ovc.allocated) {
          tail_sent_ |= Bit(static_cast<std::size_t>(
              FlatVcIndex(out_port, ivc.out_vc)));
        }
      }
    }

    if (IsTail(flit)) {
      ivc.route_valid = false;
      ivc.out_vc = kInvalidVc;
      ivc.eject = false;
      ivc.vc_half = -1;
    }
  }
  if (any_traversal) ++stats_.busy_cycles;
}

void Router::ResetStats() {
  stats_ = RouterStats{};
  stats_.flits_out.assign(static_cast<std::size_t>(num_ports_), {});
  stats_.credit_stall_by_vc.assign(static_cast<std::size_t>(config_.num_vcs),
                                   0);
}

std::size_t Router::VcOccupancy(Port in_port, VcId vc) const {
  return Ivc(in_port, vc).buffer.size();
}

void Router::VisitVcFlits(Port in_port, VcId vc,
                          const std::function<void(const Flit&)>& fn) const {
  Ivc(in_port, vc).buffer.ForEach(fn);
}

int Router::OutputCredits(Port out_port, VcId vc) const {
  return Ovc(out_port, vc).credits;
}

bool Router::OutputVcAllocated(Port out_port, VcId vc) const {
  return Ovc(out_port, vc).allocated;
}

template <typename Ar>
void Router::Transfer(Ar& ar) {
  for (InputVc& ivc : input_vcs_) {
    ivc.buffer.Transfer(ar, config_.num_vcs);
    ar(ivc.route_valid);
    ar.InRange(ivc.out_port, 0, num_ports_, "router out_port");
    ar.InRange(ivc.out_vc, kInvalidVc, config_.num_vcs, "router out_vc");
    ar(ivc.eject);
    ar.InRange(ivc.vc_half, -1, 2, "router vc_half");
  }
  ar(output_vcs_);
  for (VcId& b : boundaries_) {
    ar.InRange(b, 0, config_.num_vcs + 1, "router VC boundary");
  }
  // Arbiters in wire order: VA, SA input, SA output (one kind is empty).
  ar(epoch_flits_, epoch_dirty_, next_boundary_update_, rr_arb_, matrix_arb_,
     qos_va_credit_, qos_sa1_credit_, qos_sa2_credit_, stats_.flits_out,
     stats_.busy_cycles, stats_.flits_forwarded, stats_.va_failures,
     stats_.sa_stalls, stats_.credit_stall_by_vc,
     stats_.buffered_flit_cycles);
  if constexpr (Ar::kLoading) {
    buffered_ = 0;
    front_cls_ = {};
    for (std::size_t idx = 0; idx < input_vcs_.size(); ++idx) {
      RefreshFront(idx);
      buffered_ += static_cast<std::uint32_t>(input_vcs_[idx].buffer.size());
    }
    allocated_ = 0;
    tail_sent_ = 0;
    for (std::size_t idx = 0; idx < output_vcs_.size(); ++idx) {
      const OutputVc& ovc = output_vcs_[idx];
      if (!ovc.allocated) continue;
      allocated_ |= Bit(idx);
      const auto port = idx / static_cast<std::size_t>(config_.num_vcs);
      if (ovc.tail_sent && out_channels_[port] != nullptr) {
        tail_sent_ |= Bit(idx);
      }
    }
  }
}

void Router::Save(Serializer& s) const { SaveFields(*this, s); }
void Router::Load(Deserializer& d) { LoadFields(*this, d); }

}  // namespace gnoc
