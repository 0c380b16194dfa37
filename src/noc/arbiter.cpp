#include "noc/arbiter.hpp"

#include <cassert>

#include "common/serialize.hpp"

namespace gnoc {

const EnumRegistry<ArbiterKind>& ArbiterKindRegistry() {
  static const EnumRegistry<ArbiterKind> kRegistry{
      "arbiter",
      {
          {"round-robin", ArbiterKind::kRoundRobin},
          {"rr", ArbiterKind::kRoundRobin},
          {"roundrobin", ArbiterKind::kRoundRobin},
          {"matrix", ArbiterKind::kMatrix},
      }};
  return kRegistry;
}

const char* ArbiterKindName(ArbiterKind k) {
  return ArbiterKindRegistry().Name(k);
}

ArbiterKind ParseArbiterKind(const std::string& name) {
  return ArbiterKindRegistry().Parse(name);
}

Arbiter::Arbiter(std::size_t num_inputs) : num_inputs_(num_inputs) {
  assert(num_inputs > 0);
}

RoundRobinArbiter::RoundRobinArbiter(std::size_t num_inputs)
    : Arbiter(num_inputs) {}

int RoundRobinArbiter::Arbitrate(const std::vector<bool>& requests) {
  assert(requests.size() == num_inputs_);
  for (std::size_t k = 0; k < num_inputs_; ++k) {
    const std::size_t i = (pointer_ + k) % num_inputs_;
    if (requests[i]) {
      pointer_ = (i + 1) % num_inputs_;
      return static_cast<int>(i);
    }
  }
  return -1;
}

MatrixArbiter::MatrixArbiter(std::size_t num_inputs)
    : Arbiter(num_inputs),
      prec_(num_inputs, std::vector<bool>(num_inputs, false)) {
  // Initial total order: lower index has precedence.
  for (std::size_t i = 0; i < num_inputs; ++i) {
    for (std::size_t j = i + 1; j < num_inputs; ++j) prec_[i][j] = true;
  }
}

int MatrixArbiter::Arbitrate(const std::vector<bool>& requests) {
  assert(requests.size() == num_inputs_);
  int winner = -1;
  for (std::size_t i = 0; i < num_inputs_; ++i) {
    if (!requests[i]) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < num_inputs_; ++j) {
      if (j != i && requests[j] && prec_[j][i]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      winner = static_cast<int>(i);
      break;
    }
  }
  if (winner >= 0) {
    // Winner loses precedence against everyone.
    const auto w = static_cast<std::size_t>(winner);
    for (std::size_t j = 0; j < num_inputs_; ++j) {
      prec_[w][j] = false;
      if (j != w) prec_[j][w] = true;
    }
  }
  return winner;
}

std::unique_ptr<Arbiter> MakeArbiter(ArbiterKind kind,
                                     std::size_t num_inputs) {
  switch (kind) {
    case ArbiterKind::kRoundRobin:
      return std::make_unique<RoundRobinArbiter>(num_inputs);
    case ArbiterKind::kMatrix:
      return std::make_unique<MatrixArbiter>(num_inputs);
  }
  return std::make_unique<RoundRobinArbiter>(num_inputs);
}

void RoundRobinArbiter::Save(Serializer& s) const { SaveFields(*this, s); }
void RoundRobinArbiter::Load(Deserializer& d) { LoadFields(*this, d); }
void MatrixArbiter::Save(Serializer& s) const { SaveFields(*this, s); }
void MatrixArbiter::Load(Deserializer& d) { LoadFields(*this, d); }

}  // namespace gnoc
