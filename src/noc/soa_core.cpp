#include "noc/soa_core.hpp"

#include <string>

#include "noc/audit.hpp"
#include "noc/network.hpp"
#include "noc/nic.hpp"
#include "noc/router.hpp"

namespace gnoc {

SoaCore::SoaCore(Network& net) : net_(net) {
  flit_due_.assign(net_.flit_links_.size(), kNeverCycle);
  for (std::size_t i = 0; i < net_.flit_links_.size(); ++i) {
    net_.flit_links_[i]->channel.SetWakeHook({&SoaCore::WakeFlitLink, this, i});
  }
  credit_due_.assign(net_.credit_links_.size(), kNeverCycle);
  credit_router_bound_.resize(net_.credit_links_.size());
  for (std::size_t i = 0; i < net_.credit_links_.size(); ++i) {
    credit_router_bound_[i] =
        net_.credit_links_[i]->dst_router != nullptr ? 1 : 0;
    net_.credit_links_[i]->channel.SetWakeHook(
        {&SoaCore::WakeCreditLink, this, i});
  }
  RebuildFromObjects();
}

void SoaCore::RebuildFromObjects() {
  buffered_total_ = 0;
  for (const auto& r : net_.routers_) buffered_total_ += r->BufferedFlits();
  flits_in_channels_ = 0;
  for (std::size_t i = 0; i < flit_due_.size(); ++i) {
    const FlitChannel& ch = net_.flit_links_[i]->channel;
    flit_due_[i] = ch.empty() ? kNeverCycle : ch.FrontDue();
    flits_in_channels_ += ch.size();
  }
  for (std::size_t i = 0; i < credit_due_.size(); ++i) {
    const CreditChannel& ch = net_.credit_links_[i]->channel;
    credit_due_[i] = (credit_router_bound_[i] == 0 || ch.empty())
                         ? kNeverCycle
                         : ch.FrontDue();
  }
}

void SoaCore::WakeFlitLink(void* ctx, std::size_t index) {
  auto* soa = static_cast<SoaCore*>(ctx);
  // Pushes are FIFO with a fixed latency at a monotonic clock, so the front
  // item stays the earliest: FrontDue is correct whether or not this push
  // landed on an empty line.
  soa->flit_due_[index] = soa->net_.flit_links_[index]->channel.FrontDue();
  ++soa->flits_in_channels_;
}

void SoaCore::WakeCreditLink(void* ctx, std::size_t index) {
  auto* soa = static_cast<SoaCore*>(ctx);
  if (soa->credit_router_bound_[index] == 0) return;  // NIC pops its own
  soa->credit_due_[index] =
      soa->net_.credit_links_[index]->channel.FrontDue();
}

void SoaCore::DeliverFlitLinks(Cycle now) {
  for (std::size_t i = 0; i < flit_due_.size(); ++i) {
    if (flit_due_[i] > now) continue;
    ++steps_;
    Network::FlitLink& link = *net_.flit_links_[i];
    while (auto flit = link.channel.Pop(now)) {
      --flits_in_channels_;
      ++buffered_total_;
      link.dst_router->AcceptFlit(link.dst_port, *flit, now);
    }
    flit_due_[i] = link.channel.empty() ? kNeverCycle : link.channel.FrontDue();
  }
}

void SoaCore::DeliverCreditLinks(Cycle now) {
  // NIC-bound lines are pinned at kNeverCycle and never visited.
  for (std::size_t i = 0; i < credit_due_.size(); ++i) {
    if (credit_due_[i] > now) continue;
    ++steps_;
    Network::CreditLink& link = *net_.credit_links_[i];
    while (auto credit = link.channel.Pop(now)) {
      link.dst_router->AcceptCredit(link.dst_port, credit->vc);
    }
    credit_due_[i] =
        link.channel.empty() ? kNeverCycle : link.channel.FrontDue();
  }
}

void SoaCore::TickRouters(Cycle now) {
  for (const auto& r : net_.routers_) {
    // The skip rule: without buffered flits or uncommitted epoch counts a
    // Tick cannot change state (recycle is an idempotent pure function of
    // credit state and is deferred safely; zero-count epoch updates never
    // move boundaries and are replayed by Router::Tick's catch-up loop).
    if (!r->HasWork()) continue;
    ++steps_;
    const std::size_t before = r->BufferedFlits();
    r->Tick(now);
    buffered_total_ -= before - r->BufferedFlits();
  }
}

bool SoaCore::NoFlitsInFlight() const {
  if (buffered_total_ != 0 || flits_in_channels_ != 0) return false;
  for (const auto& nic : net_.nics_) {
    if (!nic->Idle()) return false;
  }
  return true;
}

void SoaCore::AuditCoverage(Auditor& auditor, Cycle now) const {
  for (std::size_t i = 0; i < net_.routers_.size(); ++i) {
    const Router& r = *net_.routers_[i];
    if (r.BufferedFlits() != 0) continue;
    std::size_t held = 0;
    for (int p = 0; p < r.num_ports(); ++p) {
      for (VcId v = 0; v < r.config().num_vcs; ++v) {
        held += r.VcOccupancy(static_cast<Port>(p), v);
      }
    }
    if (held != 0) {
      auditor.ReportViolation(
          AuditInvariant::kSchedulerCoverage, now,
          "router " + std::to_string(i) + " holds " + std::to_string(held) +
              " flits but its skip counter is zero");
    }
  }
  const auto check_link = [&](const char* kind, std::size_t i, Cycle due,
                              Cycle front) {
    if (due > front) {
      auditor.ReportViolation(
          AuditInvariant::kSchedulerCoverage, now,
          std::string(kind) + " link " + std::to_string(i) +
              " has its front item due at " + std::to_string(front) +
              " but the due plane says " + std::to_string(due));
    }
  };
  for (std::size_t i = 0; i < flit_due_.size(); ++i) {
    const FlitChannel& ch = net_.flit_links_[i]->channel;
    if (!ch.empty()) check_link("flit", i, flit_due_[i], ch.FrontDue());
  }
  for (std::size_t i = 0; i < credit_due_.size(); ++i) {
    const CreditChannel& ch = net_.credit_links_[i]->channel;
    if (credit_router_bound_[i] != 0 && !ch.empty()) {
      check_link("credit", i, credit_due_[i], ch.FrontDue());
    }
  }
}

bool SoaCore::PlantStaleSkipCounter() {
  for (const auto& r : net_.routers_) {
    if (r->buffered_ == 0) continue;
    buffered_total_ -= r->buffered_;
    r->buffered_ = 0;
    return true;
  }
  return false;
}

}  // namespace gnoc
