// Arbiters used by the separable VC and switch allocators.
//
// Round-robin is the arbiter the low-cost router of the paper assumes; a
// matrix (least-recently-served) arbiter is provided for ablation studies.
// Both take their requests as one bit mask (bit i = input i requests), so
// an arbiter has at most kMaxArbiterInputs inputs. They are plain value
// types: the router holds them in flat arrays and calls them directly.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/enum_registry.hpp"

namespace gnoc {

class Serializer;
class Deserializer;

/// Which arbiter microarchitecture the router instantiates.
enum class ArbiterKind : std::uint8_t {
  kRoundRobin = 0,  ///< rotating priority (the low-cost default)
  kMatrix = 1,      ///< least-recently-served (strong fairness, more area)
};

/// The name/alias table behind ArbiterKindName and ParseArbiterKind.
const EnumRegistry<ArbiterKind>& ArbiterKindRegistry();

/// Human readable name ("round-robin" / "matrix").
const char* ArbiterKindName(ArbiterKind k);

/// Parses "rr"/"round-robin"/"matrix". Throws std::invalid_argument.
ArbiterKind ParseArbiterKind(const std::string& name);

/// Widest arbiter: one request bit per input in a std::uint64_t.
inline constexpr std::size_t kMaxArbiterInputs = 64;

/// Classic rotating-priority round-robin arbiter: the input after the most
/// recent winner has highest priority.
class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(std::size_t num_inputs);

  std::size_t num_inputs() const { return num_inputs_; }

  /// Picks the first requester at or after the pointer, wrapping around,
  /// or -1 when `requests` is 0. Moves the pointer past the winner.
  int Arbitrate(std::uint64_t requests) {
    assert((requests >> (num_inputs_ - 1)) <= 1 && "request beyond width");
    if (requests == 0) return -1;
    const std::uint64_t ahead = requests & (~std::uint64_t{0} << pointer_);
    const int winner = std::countr_zero(ahead != 0 ? ahead : requests);
    pointer_ = static_cast<std::size_t>(winner) + 1 == num_inputs_
                   ? 0
                   : static_cast<std::size_t>(winner) + 1;
    return winner;
  }

  /// Leaves the pointer where granting every requester in turn would:
  /// popcount(requests) Arbitrate calls, each dropping its winner from the
  /// mask, visit the requesters once in rotation order, so the pointer
  /// ends one past the last of them.
  void PassAll(std::uint64_t requests) {
    if (requests == 0) return;
    const std::uint64_t behind =
        requests & ((std::uint64_t{1} << pointer_) - 1);
    const int last = 63 - std::countl_zero(behind != 0 ? behind : requests);
    pointer_ = static_cast<std::size_t>(last) + 1 == num_inputs_
                   ? 0
                   : static_cast<std::size_t>(last) + 1;
  }

  void Save(Serializer& s) const;
  void Load(Deserializer& d);
  template <typename Ar>
  void Transfer(Ar& ar) {
    ar.InRange(pointer_, 0, static_cast<std::int64_t>(num_inputs_),
               "arbiter pointer");
  }

  /// Exposed for tests: index with current highest priority.
  std::size_t pointer() const { return pointer_; }

 private:
  std::size_t num_inputs_;
  std::size_t pointer_ = 0;
};

/// Matrix arbiter: grants the least recently served requester (strong
/// fairness). Input i's row holds the inputs that have precedence over it,
/// so a requester wins when no other requester is in its row.
class MatrixArbiter {
 public:
  explicit MatrixArbiter(std::size_t num_inputs);

  std::size_t num_inputs() const { return beaten_by_.size(); }

  /// Picks the lowest-indexed requester that no other requester has
  /// precedence over, or -1. The winner then loses precedence to everyone.
  int Arbitrate(std::uint64_t requests) {
    assert((requests >> (num_inputs() - 1)) <= 1 && "request beyond width");
    for (std::uint64_t rest = requests; rest != 0; rest &= rest - 1) {
      const int i = std::countr_zero(rest);
      if ((beaten_by_[static_cast<std::size_t>(i)] & requests) == 0) {
        Serve(i);
        return i;
      }
    }
    return -1;
  }

  void Save(Serializer& s) const;
  void Load(Deserializer& d);
  /// The wire layout is the precedence matrix: for each i, for each j, one
  /// bool "i has precedence over j" (bit i of row j).
  template <typename Ar>
  void Transfer(Ar& ar) {
    const std::size_t n = beaten_by_.size();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint64_t bit = std::uint64_t{1} << i;
        bool prec = (beaten_by_[j] & bit) != 0;
        ar(prec);
        if constexpr (Ar::kLoading) {
          ar.Check(prec && i == j, 0, 1, "matrix arbiter self-precedence");
          beaten_by_[j] = prec ? beaten_by_[j] | bit : beaten_by_[j] & ~bit;
        }
      }
    }
  }

 private:
  void Serve(int winner);

  /// beaten_by_[i] bit j: input j has precedence over input i (j != i).
  std::vector<std::uint64_t> beaten_by_;
};

}  // namespace gnoc
