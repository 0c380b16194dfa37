// Bounded FIFO buffer backing one virtual channel.
#pragma once

#include <cassert>
#include <cstddef>
#include <deque>
#include <string>

#include "noc/flit.hpp"

namespace gnoc {

/// A fixed-capacity flit FIFO. One instance backs one input VC; the credit
/// protocol guarantees Push is never called on a full buffer (asserted).
class VcBuffer {
 public:
  explicit VcBuffer(std::size_t capacity) : capacity_(capacity) {
    assert(capacity > 0);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return fifo_.size(); }
  bool empty() const { return fifo_.empty(); }
  bool full() const { return fifo_.size() >= capacity_; }
  std::size_t free_slots() const { return capacity_ - fifo_.size(); }

  /// Appends a flit. The caller must have a credit (i.e. `!full()`).
  void Push(const Flit& flit) {
    assert(!full());
    fifo_.push_back(flit);
  }

  /// The flit at the head of the FIFO. Undefined when empty.
  const Flit& Front() const {
    assert(!empty());
    return fifo_.front();
  }

  /// Removes and returns the head flit.
  Flit Pop() {
    assert(!empty());
    Flit f = fifo_.front();
    fifo_.pop_front();
    return f;
  }

  /// Drops all contents (used only by tests / reset).
  void Clear() { fifo_.clear(); }

  /// Visits buffered flits oldest-first (invariant auditing).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Flit& f : fifo_) fn(f);
  }

  /// Snapshot support: contents only; capacity is construction-derived.
  /// Load throws SerializeError on a payload no run can produce: more
  /// flits than the capacity, a flit on a VC outside [0, num_vcs), or
  /// ready cycles that decrease front to back.
  void Save(Serializer& s) const { SaveFields(*this, s, VcId{0}); }
  void Load(Deserializer& d, VcId num_vcs) { LoadFields(*this, d, num_vcs); }
  template <typename Ar>
  void Transfer(Ar& ar, VcId num_vcs) {
    ar.BoundedCount(fifo_, capacity_, [this](std::uint64_t n) {
      return "snapshot VC buffer holds " + std::to_string(n) +
             " flits, above its capacity " + std::to_string(capacity_);
    });
    for (std::size_t i = 0; i < fifo_.size(); ++i) {
      ar(fifo_[i]);
      ar.Check(fifo_[i].vc, 0, num_vcs, "flit on VC");
      if (Ar::kLoading && i > 0 && fifo_[i].ready < fifo_[i - 1].ready) {
        throw SerializeError("snapshot VC buffer ready cycles decrease");
      }
    }
  }

 private:
  std::size_t capacity_;
  std::deque<Flit> fifo_;
};

}  // namespace gnoc
