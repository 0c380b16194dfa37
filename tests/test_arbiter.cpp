// Unit tests for round-robin and matrix arbiters, plus an oracle test that
// drives the mask arbiters and QosArbitrate side by side with the
// std::vector<bool> implementations they replaced (kept below as the test
// reference) and requires equal winners and equal saved bytes every step.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "noc/arbiter.hpp"
#include "noc/router.hpp"

namespace gnoc {
namespace {

/// The mask of a list of request flags (bit i = flags[i]).
std::uint64_t Mask(std::initializer_list<bool> flags) {
  std::uint64_t mask = 0;
  int i = 0;
  for (const bool f : flags) {
    if (f) mask |= std::uint64_t{1} << i;
    ++i;
  }
  return mask;
}

TEST(RoundRobinTest, NoRequestsNoGrant) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.Arbitrate(Mask({false, false, false, false})), -1);
}

TEST(RoundRobinTest, SingleRequesterAlwaysWins) {
  RoundRobinArbiter arb(4);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(arb.Arbitrate(Mask({false, false, true, false})), 2);
  }
}

TEST(RoundRobinTest, RotatesAmongContenders) {
  RoundRobinArbiter arb(3);
  const std::uint64_t all = Mask({true, true, true});
  EXPECT_EQ(arb.Arbitrate(all), 0);
  EXPECT_EQ(arb.Arbitrate(all), 1);
  EXPECT_EQ(arb.Arbitrate(all), 2);
  EXPECT_EQ(arb.Arbitrate(all), 0);
}

TEST(RoundRobinTest, PointerSkipsIdleInputs) {
  RoundRobinArbiter arb(4);
  EXPECT_EQ(arb.Arbitrate(Mask({true, false, false, true})), 0);
  // Pointer now at 1; inputs 1,2 idle so 3 wins.
  EXPECT_EQ(arb.Arbitrate(Mask({true, false, false, true})), 3);
  EXPECT_EQ(arb.Arbitrate(Mask({true, false, false, true})), 0);
}

TEST(RoundRobinTest, FairnessUnderSaturation) {
  RoundRobinArbiter arb(4);
  std::map<int, int> wins;
  for (int i = 0; i < 400; ++i) {
    wins[arb.Arbitrate(Mask({true, true, true, true}))]++;
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(wins[i], 100);
}

TEST(MatrixTest, GrantsLeastRecentlyServed) {
  MatrixArbiter arb(3);
  const std::uint64_t all = Mask({true, true, true});
  const int first = arb.Arbitrate(all);
  const int second = arb.Arbitrate(all);
  const int third = arb.Arbitrate(all);
  EXPECT_NE(first, second);
  EXPECT_NE(second, third);
  EXPECT_NE(first, third);
  // After serving everyone once, the first requester is least recent again.
  EXPECT_EQ(arb.Arbitrate(all), first);
}

TEST(MatrixTest, NoRequestsNoGrant) {
  MatrixArbiter arb(2);
  EXPECT_EQ(arb.Arbitrate(Mask({false, false})), -1);
}

TEST(MatrixTest, FairnessUnderSaturation) {
  MatrixArbiter arb(4);
  std::map<int, int> wins;
  for (int i = 0; i < 400; ++i) {
    wins[arb.Arbitrate(Mask({true, true, true, true}))]++;
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(wins[i], 100);
}

TEST(MatrixTest, RecentWinnerLosesTies) {
  MatrixArbiter arb(2);
  EXPECT_EQ(arb.Arbitrate(Mask({true, true})), 0);
  EXPECT_EQ(arb.Arbitrate(Mask({true, true})), 1);
  // 1 just won; 0 must win the tie.
  EXPECT_EQ(arb.Arbitrate(Mask({true, true})), 0);
}

// --- reference implementations ----------------------------------------------
//
// The std::vector<bool> arbiters and QoS arbitration the mask versions
// replaced, verbatim in behaviour and in snapshot layout.

class RefRoundRobin {
 public:
  explicit RefRoundRobin(std::size_t n) : n_(n) {}
  int Arbitrate(const std::vector<bool>& requests) {
    for (std::size_t k = 0; k < n_; ++k) {
      const std::size_t i = (pointer_ + k) % n_;
      if (requests[i]) {
        pointer_ = (i + 1) % n_;
        return static_cast<int>(i);
      }
    }
    return -1;
  }
  template <typename Ar>
  void Transfer(Ar& ar) {
    ar(pointer_);
  }

 private:
  std::size_t n_;
  std::size_t pointer_ = 0;
};

class RefMatrix {
 public:
  explicit RefMatrix(std::size_t n) : n_(n), prec_(n, std::vector<bool>(n)) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) prec_[i][j] = true;
    }
  }
  int Arbitrate(const std::vector<bool>& requests) {
    int winner = -1;
    for (std::size_t i = 0; i < n_ && winner < 0; ++i) {
      if (!requests[i]) continue;
      bool dominated = false;
      for (std::size_t j = 0; j < n_; ++j) {
        if (j != i && requests[j] && prec_[j][i]) dominated = true;
      }
      if (!dominated) winner = static_cast<int>(i);
    }
    if (winner >= 0) {
      const auto w = static_cast<std::size_t>(winner);
      for (std::size_t j = 0; j < n_; ++j) {
        prec_[w][j] = false;
        if (j != w) prec_[j][w] = true;
      }
    }
    return winner;
  }
  template <typename Ar>
  void Transfer(Ar& ar) {
    ar(prec_);
  }

 private:
  std::size_t n_;
  std::vector<std::vector<bool>> prec_;
};

template <typename Arb, typename ClsOf>
int RefQosArbitrate(Arb& arb, const std::vector<bool>& requests,
                    QosArbitration mode,
                    const std::array<int, kNumClasses>& priority,
                    std::array<int, kNumClasses>& wrr_credit, ClsOf&& cls_of) {
  if (mode == QosArbitration::kNone) return arb.Arbitrate(requests);
  std::array<bool, kNumClasses> requesting{};
  bool any = false;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i]) {
      requesting[static_cast<std::size_t>(cls_of(static_cast<int>(i)))] = true;
      any = true;
    }
  }
  if (!any) return arb.Arbitrate(requests);
  std::array<bool, kNumClasses> allowed{};
  if (mode == QosArbitration::kStrict) {
    int best = 0;
    bool seeded = false;
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      if (requesting[c] && (!seeded || priority[c] > best)) {
        best = priority[c];
        seeded = true;
      }
    }
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      allowed[c] = requesting[c] && priority[c] == best;
    }
  } else {
    bool funded = false;
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      if (requesting[c] && wrr_credit[c] > 0) funded = true;
    }
    if (!funded) {
      for (std::size_t c = 0; c < kNumClasses; ++c) {
        wrr_credit[c] = std::max(1, priority[c]);
      }
    }
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      allowed[c] = requesting[c] && wrr_credit[c] > 0;
    }
  }
  std::vector<bool> masked(requests);
  for (std::size_t i = 0; i < masked.size(); ++i) {
    if (masked[i] &&
        !allowed[static_cast<std::size_t>(cls_of(static_cast<int>(i)))]) {
      masked[i] = false;
    }
  }
  const int winner = arb.Arbitrate(masked);
  if (mode == QosArbitration::kWrr && winner >= 0) {
    --wrr_credit[static_cast<std::size_t>(cls_of(winner))];
  }
  return winner;
}

template <typename T>
std::string Bytes(T& component) {
  Serializer s;
  SaveArchive ar(s);
  component.Transfer(ar);
  return s.bytes();
}

std::vector<bool> Flags(std::uint64_t mask, std::size_t width) {
  std::vector<bool> flags(width);
  for (std::size_t i = 0; i < width; ++i) flags[i] = ((mask >> i) & 1) != 0;
  return flags;
}

/// A random request mask of `width` bits, each set with probability `p`.
std::uint64_t RandomMask(Rng& rng, std::size_t width, double p) {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < width; ++i) {
    if (rng.Bernoulli(p)) mask |= std::uint64_t{1} << i;
  }
  return mask;
}

/// Runs `steps` seeded random arbitrations through both implementations.
template <typename Arb, typename Ref>
void CheckAgainstReference(std::size_t width, double density,
                           QosArbitration mode,
                           std::array<int, kNumClasses> priority,
                           std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "width " << width << " density " << density << " mode "
               << static_cast<int>(mode) << " seed " << seed);
  Rng rng(seed);
  Arb arb(width);
  Ref ref(width);
  std::array<int, kNumClasses> credit{};
  std::array<int, kNumClasses> ref_credit{};
  const std::uint64_t all = width == 64 ? ~std::uint64_t{0}
                                        : (std::uint64_t{1} << width) - 1;
  for (int step = 0; step < 600; ++step) {
    const std::uint64_t requests = RandomMask(rng, width, density);
    const std::uint64_t reply = rng.Next() & all;
    const std::array<std::uint64_t, kNumClasses> cls{all & ~reply, reply};
    const int got =
        QosArbitrate(arb, requests, mode, priority, credit, cls);
    const int want = RefQosArbitrate(
        ref, Flags(requests, width), mode, priority, ref_credit,
        [reply](int i) { return static_cast<int>((reply >> i) & 1); });
    ASSERT_EQ(got, want) << "step " << step;
    ASSERT_EQ(credit, ref_credit) << "step " << step;
    ASSERT_EQ(Bytes(arb), Bytes(ref)) << "step " << step;
  }
}

const std::vector<std::size_t> kWidths = {1, 2, 5, 20, 40, 64};
const std::vector<double> kDensities = {0.1, 0.8};  // sparse, dense
const std::vector<std::array<int, kNumClasses>> kPriorities = {
    {0, 0}, {1, 3}, {4, 2}};

TEST(ArbiterOracleTest, RoundRobinMatchesVectorReference) {
  std::uint64_t seed = 1;
  for (const std::size_t width : kWidths) {
    for (const double density : kDensities) {
      for (const QosArbitration mode :
           {QosArbitration::kNone, QosArbitration::kStrict,
            QosArbitration::kWrr}) {
        for (const auto& priority : kPriorities) {
          CheckAgainstReference<RoundRobinArbiter, RefRoundRobin>(
              width, density, mode, priority, seed++);
        }
      }
    }
  }
}

TEST(ArbiterOracleTest, MatrixMatchesVectorReference) {
  std::uint64_t seed = 100;
  for (const std::size_t width : kWidths) {
    for (const double density : kDensities) {
      for (const QosArbitration mode :
           {QosArbitration::kNone, QosArbitration::kStrict,
            QosArbitration::kWrr}) {
        for (const auto& priority : kPriorities) {
          CheckAgainstReference<MatrixArbiter, RefMatrix>(
              width, density, mode, priority, seed++);
        }
      }
    }
  }
}

// PassAll is the VA fast-fail's collapse of one rotation pass: it must
// leave the pointer where arbitrating every requester in turn does.
TEST(ArbiterOracleTest, PassAllMatchesArbitratingEachRequester) {
  Rng rng(7);
  for (const std::size_t width : kWidths) {
    for (const double density : kDensities) {
      RoundRobinArbiter collapsed(width);
      RoundRobinArbiter stepped(width);
      for (int step = 0; step < 300; ++step) {
        // Random arbitrations move both pointers alike...
        const std::uint64_t warm = RandomMask(rng, width, density);
        ASSERT_EQ(collapsed.Arbitrate(warm), stepped.Arbitrate(warm));
        // ...then one pass over a fresh request set.
        std::uint64_t requests = RandomMask(rng, width, density);
        collapsed.PassAll(requests);
        while (requests != 0) {
          const int w = stepped.Arbitrate(requests);
          ASSERT_GE(w, 0);
          requests &= ~(std::uint64_t{1} << w);
        }
        ASSERT_EQ(collapsed.pointer(), stepped.pointer())
            << "width " << width << " step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace gnoc
