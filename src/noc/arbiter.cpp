#include "noc/arbiter.hpp"

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

RoundRobinArbiter::RoundRobinArbiter(std::size_t num_inputs)
    : num_inputs_(num_inputs) {
  assert(num_inputs > 0 && num_inputs <= kMaxArbiterInputs);
}

MatrixArbiter::MatrixArbiter(std::size_t num_inputs)
    : beaten_by_(num_inputs) {
  assert(num_inputs > 0 && num_inputs <= kMaxArbiterInputs);
  // Initial total order: lower index has precedence.
  for (std::size_t i = 0; i < num_inputs; ++i) {
    beaten_by_[i] = (std::uint64_t{1} << i) - 1;
  }
}

void MatrixArbiter::Serve(int winner) {
  const std::uint64_t bit = std::uint64_t{1} << winner;
  for (std::uint64_t& row : beaten_by_) row &= ~bit;
  const std::size_t n = beaten_by_.size();
  const std::uint64_t all =
      n == kMaxArbiterInputs ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << n) - 1;
  beaten_by_[static_cast<std::size_t>(winner)] = all & ~bit;
}

void RoundRobinArbiter::Save(Serializer& s) const { SaveFields(*this, s); }
void RoundRobinArbiter::Load(Deserializer& d) { LoadFields(*this, d); }
void MatrixArbiter::Save(Serializer& s) const { SaveFields(*this, s); }
void MatrixArbiter::Load(Deserializer& d) { LoadFields(*this, d); }

}  // namespace gnoc
