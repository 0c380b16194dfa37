#include "noc/router.hpp"

#include <cassert>
#include <string>

#include "common/serialize.hpp"

#include "noc/audit.hpp"
#include "noc/nic.hpp"

namespace gnoc {

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
  for (int p = 0; p < num_ports_; ++p) {
    va_arb_.push_back(MakeArbiter(config_.arbiter, total_vcs));
    sa_input_arb_.push_back(
        MakeArbiter(config_.arbiter, static_cast<std::size_t>(config_.num_vcs)));
    sa_output_arb_.push_back(
        MakeArbiter(config_.arbiter, static_cast<std::size_t>(num_ports_)));
  }
  qos_va_credit_.assign(static_cast<std::size_t>(num_ports_), {});
  qos_sa1_credit_.assign(static_cast<std::size_t>(num_ports_), {});
  qos_sa2_credit_.assign(static_cast<std::size_t>(num_ports_), {});
  front_ready_.assign(total_vcs, kNeverCycle);
  va_requests_.assign(total_vcs, false);
  sa1_requests_.assign(static_cast<std::size_t>(config_.num_vcs), false);
  sa2_requests_.assign(static_cast<std::size_t>(num_ports_), false);
  nominee_.assign(static_cast<std::size_t>(num_ports_), -1);
  grant_.assign(static_cast<std::size_t>(num_ports_), -1);
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
  Cycle& ready = front_ready_[static_cast<std::size_t>(idx)];
  if (ready == kNeverCycle) ready = f.ready;  // landed in an empty VC
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
    AllocateVcs(now);
    if (NominateInputs(now)) GrantAndTraverse(now);
  }
  stats_.buffered_flit_cycles += buffered_;
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
  for (int p = 0; p < num_ports_; ++p) {
    const Port port = static_cast<Port>(p);
    if (out_channels_[static_cast<std::size_t>(p)] == nullptr) continue;
    for (VcId v = 0; v < config_.num_vcs; ++v) {
      OutputVc& ovc = Ovc(port, v);
      if (ovc.allocated && ovc.tail_sent &&
          (!config_.atomic_vc_realloc || ovc.credits == config_.vc_depth)) {
        ovc.allocated = false;
        ovc.tail_sent = false;
      }
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
  // head and whose current packet has no route yet.
  // Local copies of the array bounds: the byte-sized field stores below
  // may alias anything, which would otherwise force a reload per VC.
  const Cycle* ready = front_ready_.data();
  const std::size_t total_vcs = front_ready_.size();
  bool any_eligible = false;
  for (std::size_t idx = 0; idx < total_vcs; ++idx) {
    if (ready[idx] > now) continue;
    any_eligible = true;
    InputVc& ivc = input_vcs_[idx];
    if (ivc.route_valid) continue;
    const Flit& front = ivc.buffer.Front();
    if (!IsHead(front)) [[unlikely]] ReportBrokenWormhole(idx, front, now);
    ivc.out_port = RouteFor(front.cls, front.dst_coord);
    ivc.vc_half = RouteHalfFor(front.cls, front.dst_coord);
    ivc.route_valid = true;
    ivc.eject = PortIndex(ivc.out_port) < num_local_ports_;
    ivc.out_vc = kInvalidVc;
  }
  return any_eligible;
}

void Router::AllocateVcs(Cycle now) {
  // --- VA: allocate a downstream VC per output port, round-robin over
  // requesting input VCs. Ejection needs no VC (the NIC reassembles per
  // class), so local-bound packets skip VA.
  const Cycle* ready = front_ready_.data();
  const std::size_t total_vcs = front_ready_.size();
  for (int op = num_local_ports_; op < num_ports_; ++op) {
    if (out_channels_[static_cast<std::size_t>(op)] == nullptr) continue;
    const Port out_port = static_cast<Port>(op);
    va_requests_.assign(total_vcs, false);
    int num_requests = 0;
    for (std::size_t idx = 0; idx < total_vcs; ++idx) {
      if (ready[idx] > now) continue;
      const InputVc& ivc = input_vcs_[idx];
      if (ivc.route_valid && !ivc.eject && ivc.out_vc == kInvalidVc &&
          ivc.out_port == out_port) {
        va_requests_[idx] = true;
        ++num_requests;
      }
    }
    while (num_requests > 0) {
      const int winner = QosArbitrate(
          *va_arb_[static_cast<std::size_t>(op)], va_requests_,
          config_.qos_arbitration, config_.qos_priority,
          qos_va_credit_[static_cast<std::size_t>(op)], [&](int i) {
            return ClassIndex(
                input_vcs_[static_cast<std::size_t>(i)].buffer.Front().cls);
          });
      if (winner < 0) break;
      va_requests_[static_cast<std::size_t>(winner)] = false;
      --num_requests;
      InputVc& ivc = input_vcs_[static_cast<std::size_t>(winner)];
      const TrafficClass cls = ivc.buffer.Front().cls;
      VcRange range = AllowedRange(cls, out_port);
      if (ivc.vc_half >= 0) range = DatelineHalf(range, ivc.vc_half);
      VcId granted = kInvalidVc;
      for (VcId v = range.begin; v < range.end; ++v) {
        if (!Ovc(out_port, v).allocated) {
          granted = v;
          break;
        }
      }
      if (granted == kInvalidVc) {
        ++stats_.va_failures;
        continue;  // another class's requester may still succeed
      }
      Ovc(out_port, granted).allocated = true;
      ivc.out_vc = granted;
    }
  }
}

bool Router::NominateInputs(Cycle now) {
  // --- SA phase 1: each input port nominates one of its VCs.
  bool any_nominee = false;
  for (int p = 0; p < num_ports_; ++p) {
    nominee_[static_cast<std::size_t>(p)] = -1;
    const Cycle* port_ready =
        front_ready_.data() + static_cast<std::size_t>(p * config_.num_vcs);
    if (std::none_of(port_ready, port_ready + config_.num_vcs,
                     [now](Cycle ready) { return ready <= now; })) {
      continue;  // no VC can request or stall here
    }
    sa1_requests_.assign(sa1_requests_.size(), false);
    bool any = false;
    for (VcId v = 0; v < config_.num_vcs; ++v) {
      if (port_ready[v] > now) continue;
      const InputVc& ivc = Ivc(static_cast<Port>(p), v);
      if (!ivc.route_valid) continue;
      const TrafficClass cls = ivc.buffer.Front().cls;
      bool resource_ok = false;
      if (ivc.eject) {
        Nic* nic = nics_[static_cast<std::size_t>(PortIndex(ivc.out_port))];
        resource_ok = nic != nullptr && nic->CanAcceptEjection(cls);
      } else if (ivc.out_vc != kInvalidVc) {
        resource_ok = Ovc(ivc.out_port, ivc.out_vc).credits > 0;
      }
      if (resource_ok) {
        sa1_requests_[static_cast<std::size_t>(v)] = true;
        any = true;
      } else if (ivc.out_vc != kInvalidVc || ivc.eject) {
        ++stats_.sa_stalls;
        if (!ivc.eject) {
          // Blocked purely on downstream credits: charge the allocated
          // downstream VC (telemetry's credit_stall metric).
          ++stats_.credit_stall_by_vc[static_cast<std::size_t>(ivc.out_vc)];
        }
      }
    }
    if (any) {
      const int won = QosArbitrate(
          *sa_input_arb_[static_cast<std::size_t>(p)], sa1_requests_,
          config_.qos_arbitration, config_.qos_priority,
          qos_sa1_credit_[static_cast<std::size_t>(p)], [&](int v) {
            return ClassIndex(
                Ivc(static_cast<Port>(p), v).buffer.Front().cls);
          });
      nominee_[static_cast<std::size_t>(p)] = won;
      if (won >= 0) any_nominee = true;
    }
  }
  return any_nominee;
}

void Router::GrantAndTraverse(Cycle now) {
  // --- SA phase 2: each output port grants one input port.
  for (int op = 0; op < num_ports_; ++op) {
    grant_[static_cast<std::size_t>(op)] = -1;
    sa2_requests_.assign(sa2_requests_.size(), false);
    bool any = false;
    for (int p = 0; p < num_ports_; ++p) {
      const int v = nominee_[static_cast<std::size_t>(p)];
      if (v < 0) continue;
      const InputVc& ivc = Ivc(static_cast<Port>(p), v);
      if (PortIndex(ivc.out_port) == op) {
        sa2_requests_[static_cast<std::size_t>(p)] = true;
        any = true;
      }
    }
    if (any) {
      grant_[static_cast<std::size_t>(op)] = QosArbitrate(
          *sa_output_arb_[static_cast<std::size_t>(op)], sa2_requests_,
          config_.qos_arbitration, config_.qos_priority,
          qos_sa2_credit_[static_cast<std::size_t>(op)], [&](int p2) {
            const int v2 = nominee_[static_cast<std::size_t>(p2)];
            return ClassIndex(
                Ivc(static_cast<Port>(p2), v2).buffer.Front().cls);
          });
    }
  }

  // --- ST: winners traverse the switch.
  bool any_traversal = false;
  for (int op = 0; op < num_ports_; ++op) {
    const int p = grant_[static_cast<std::size_t>(op)];
    if (p < 0) continue;
    const int v = nominee_[static_cast<std::size_t>(p)];
    assert(v >= 0);
    const auto idx =
        static_cast<std::size_t>(FlatVcIndex(static_cast<Port>(p), v));
    InputVc& ivc = input_vcs_[idx];
    Flit flit = ivc.buffer.Pop();
    front_ready_[idx] =
        ivc.buffer.empty() ? kNeverCycle : ivc.buffer.Front().ready;
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
      if (IsTail(flit)) ovc.tail_sent = true;  // recycled once drained
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
  ar(epoch_flits_, epoch_dirty_, next_boundary_update_, va_arb_,
     sa_input_arb_, sa_output_arb_, qos_va_credit_, qos_sa1_credit_,
     qos_sa2_credit_, stats_.flits_out, stats_.busy_cycles,
     stats_.flits_forwarded, stats_.va_failures, stats_.sa_stalls,
     stats_.credit_stall_by_vc, stats_.buffered_flit_cycles);
  if constexpr (Ar::kLoading) {
    buffered_ = 0;
    for (std::size_t idx = 0; idx < input_vcs_.size(); ++idx) {
      const VcBuffer& buffer = input_vcs_[idx].buffer;
      front_ready_[idx] = buffer.empty() ? kNeverCycle : buffer.Front().ready;
      buffered_ += static_cast<std::uint32_t>(buffer.size());
    }
  }
}

void Router::Save(Serializer& s) const { SaveFields(*this, s); }
void Router::Load(Deserializer& d) { LoadFields(*this, d); }

}  // namespace gnoc
