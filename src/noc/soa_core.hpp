// Structure-of-arrays scheduling backend (DESIGN.md §14).
//
// scheduling=soa runs the dense (kFull) phase order — flit links, credit
// links, routers, NICs, each in ascending canonical index — but skips the
// components that cannot change state this cycle. It owns exactly two
// things:
//
//   flit_due_[link]    delivery cycle of each channel's front item
//   credit_due_[link]  (kNeverCycle when empty), maintained by the channel
//                      wake hooks, so the delivery passes skip idle links
//
// and the router skip rule: a router with no buffered flits and no
// uncommitted dynamic-epoch counts (Router::HasWork() == false) is not
// ticked. Every router that is ticked runs Router::Tick, the one RC/VA/SA/ST
// implementation, so a full-vs-soa comparison tests exactly these skip
// rules. The planes are derived state: never serialized, rebuilt by
// RebuildFromObjects() after Network::Load.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace gnoc {

class Auditor;
class Network;

/// Link due planes plus the router skip rule for one Network; drives the
/// scheduling=soa tick path. Owned by the Network and wired at construction
/// (installs the channel wake hooks that keep the due planes sound).
class SoaCore {
 public:
  explicit SoaCore(Network& net);

  /// Re-derives every plane and counter from the authoritative object
  /// state. Called at construction, after Network::Load and after fault
  /// planting (which bypasses the wake hooks).
  void RebuildFromObjects();

  // --- one cycle, in dense tick order (Network::TickSoa) ---

  /// Phase 1: pops every deliverable flit from every flit link in
  /// canonical order (due-plane guarded) into its destination router.
  void DeliverFlitLinks(Cycle now);
  /// Phase 2: pops every deliverable router-bound credit. NIC-bound
  /// credit channels are popped by the NIC itself in its Tick, exactly as
  /// the dense path leaves them.
  void DeliverCreditLinks(Cycle now);
  /// Phase 3: Router::Tick on every router with work, in ascending index.
  void TickRouters(Cycle now);

  /// Component visits (links delivered + routers ticked) accumulated since
  /// the last call — the kSoa contribution to Network::TickSteps().
  std::uint64_t TakeSteps() {
    const std::uint64_t s = steps_;
    steps_ = 0;
    return s;
  }

  /// Equivalent to Network::FlitsInFlight() == 0: O(1) from the running
  /// buffered/channel counters whenever any flit exists, O(NICs) otherwise.
  bool NoFlitsInFlight() const;

  /// Total flits buffered in router input VCs (running counter; equals the
  /// sum of Router::BufferedFlits over all routers).
  std::size_t BufferedTotal() const {
    return static_cast<std::size_t>(buffered_total_);
  }

  /// kSchedulerCoverage: reports every router holding flits whose skip
  /// counter (Router::BufferedFlits) reads zero, and every non-empty
  /// router-bound channel whose due plane entry is later than its front
  /// item — each a lost wakeup that would freeze traffic silently.
  void AuditCoverage(Auditor& auditor, Cycle now) const;

  /// Zeroes the skip counter of the first router holding flits, leaving
  /// its buffers alone — deliberately planting the lost-wakeup bug
  /// AuditCoverage exists to catch (mutation tests only). Returns false
  /// when no router holds flits.
  bool PlantStaleSkipCounter();

 private:
  /// Wake-hook trampolines: every channel Push refreshes the link's due
  /// plane (the front item is always the earliest in a DelayLine).
  static void WakeFlitLink(void* ctx, std::size_t index);
  static void WakeCreditLink(void* ctx, std::size_t index);

  Network& net_;

  // Link planes, in the Network's canonical link order.
  std::vector<Cycle> flit_due_;
  std::vector<Cycle> credit_due_;  ///< kNeverCycle pinned for NIC-bound
  std::vector<std::uint8_t> credit_router_bound_;

  // Running occupancy counters (watchdog predicate, Drain).
  std::uint64_t buffered_total_ = 0;
  std::uint64_t flits_in_channels_ = 0;

  std::uint64_t steps_ = 0;
};

}  // namespace gnoc
