// Fixed-latency pipes connecting routers (and NICs to routers).
//
// All inter-router communication — flits downstream, credits upstream — goes
// through a DelayLine with latency >= 1 cycle. This decouples routers: the
// order in which routers tick within a cycle cannot change behaviour, so the
// network needs no global combinational scheduling.
#pragma once

#include <cassert>
#include <deque>
#include <optional>
#include <string>
#include <utility>

#include "common/types.hpp"
#include "noc/flit.hpp"

namespace gnoc {

/// Push notification for the SoA core's link due planes (DESIGN.md §14): a
/// plain function pointer + context + the subscriber-chosen index of the
/// notifying channel. Unset hooks cost one null-pointer test per push —
/// the same cost model the auditor and telemetry hooks use.
struct WakeHook {
  void (*fn)(void* ctx, std::size_t index) = nullptr;
  void* ctx = nullptr;
  std::size_t index = 0;

  void Notify() const {
    if (fn != nullptr) fn(ctx, index);
  }
};

/// A credit returned upstream: the downstream router freed one slot of input
/// VC `vc` on the link this channel models.
struct Credit {
  VcId vc = kInvalidVc;

  template <typename Ar>
  void Transfer(Ar& ar) {
    ar(vc);
  }
};

/// A FIFO pipe where each item becomes visible `latency` cycles after being
/// pushed. Unbounded: admission control is done by credits, not by the wire.
template <typename T>
class DelayLine {
 public:
  explicit DelayLine(Cycle latency = 1) : latency_(latency) {
    assert(latency >= 1);
  }

  Cycle latency() const { return latency_; }
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

  /// Fires `hook` on every Push (scheduling=soa: a non-empty channel must
  /// carry its front item's due cycle in the core's plane).
  void SetWakeHook(WakeHook hook) { wake_ = hook; }

  /// Enqueues `item` at time `now`; it is deliverable at `now + latency`.
  void Push(T item, Cycle now) {
    items_.emplace_back(now + latency_, std::move(item));
    wake_.Notify();
  }

  /// True when the front item has arrived by `now`.
  bool Deliverable(Cycle now) const {
    return !items_.empty() && items_.front().first <= now;
  }

  /// Delivery cycle of the oldest in-flight item, the earliest of all
  /// (pushes are FIFO at a fixed latency). Requires a non-empty line.
  Cycle FrontDue() const {
    assert(!items_.empty());
    return items_.front().first;
  }

  /// Pops the front item if it has arrived by `now`.
  std::optional<T> Pop(Cycle now) {
    if (!Deliverable(now)) return std::nullopt;
    T item = std::move(items_.front().second);
    items_.pop_front();
    return item;
  }

  /// Visits every enqueued item oldest-first (invariant auditing).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [due, item] : items_) fn(item);
  }

  // Fault planting (audit mutation tests only — see noc/audit.hpp). These
  // deliberately break the wire's FIFO/conservation contract so tests can
  // prove the auditor notices.

  /// Silently discards the oldest in-flight item. False when empty.
  bool DiscardFront() {
    if (items_.empty()) return false;
    items_.pop_front();
    return true;
  }

  /// Enqueues a copy of the newest in-flight item (same delivery time).
  /// False when empty.
  bool DuplicateBack() {
    if (items_.empty()) return false;
    items_.push_back(items_.back());
    return true;
  }

  /// Applies `fn` to in-flight items oldest-first until it returns true
  /// (item mutated); returns whether any item was mutated.
  template <typename Fn>
  bool MutateOne(Fn&& fn) {
    for (auto& [due, item] : items_) {
      if (fn(item)) return true;
    }
    return false;
  }

  /// Snapshot support: in-flight items with their delivery times. Load
  /// writes `items_` directly — no Push, so no wake hooks fire; the SoA
  /// core re-derives its due planes after Network::Load. Load throws
  /// SerializeError on a payload no run can produce: more than
  /// `max_items` items (the credit loop bounds a link at num_vcs x
  /// vc_depth), an item on a VC outside [0, num_vcs), or due cycles that
  /// decrease front to back.
  void Save(Serializer& s) const {
    SaveFields(*this, s, std::size_t{0}, VcId{0});
  }
  void Load(Deserializer& d, std::size_t max_items, VcId num_vcs) {
    LoadFields(*this, d, max_items, num_vcs);
  }
  template <typename Ar>
  void Transfer(Ar& ar, std::size_t max_items, VcId num_vcs) {
    ar.BoundedCount(items_, max_items, [max_items](std::uint64_t n) {
      return "snapshot channel holds " + std::to_string(n) +
             " items, above the credit bound " + std::to_string(max_items);
    });
    for (std::size_t i = 0; i < items_.size(); ++i) {
      auto& [due, item] = items_[i];
      ar(due, item);
      ar.Check(item.vc, 0, num_vcs, "channel item on VC");
      if (Ar::kLoading && i > 0 && due < items_[i - 1].first) {
        throw SerializeError("snapshot channel due cycles decrease");
      }
    }
  }

 private:
  Cycle latency_;
  WakeHook wake_;
  std::deque<std::pair<Cycle, T>> items_;
};

using FlitChannel = DelayLine<Flit>;
using CreditChannel = DelayLine<Credit>;

}  // namespace gnoc
