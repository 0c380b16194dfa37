// Arbiters used by the separable VC and switch allocators.
//
// Round-robin is the arbiter the low-cost router of the paper assumes; a
// matrix (least-recently-served) arbiter is provided for ablation studies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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

/// Common interface: given a request vector, pick one winner (index) or -1.
class Arbiter {
 public:
  explicit Arbiter(std::size_t num_inputs);
  virtual ~Arbiter() = default;

  std::size_t num_inputs() const { return num_inputs_; }

  /// Picks a winner among inputs with requests[i] == true, or -1 if none.
  /// Updates internal priority state only when a grant is issued.
  virtual int Arbitrate(const std::vector<bool>& requests) = 0;

  /// Snapshot support: priority state only (kind and width are
  /// construction-derived; the loader must match them).
  virtual void Save(Serializer& s) const = 0;
  virtual void Load(Deserializer& d) = 0;

 protected:
  std::size_t num_inputs_;
};

/// Classic rotating-priority round-robin arbiter: the input after the most
/// recent winner has highest priority.
class RoundRobinArbiter final : public Arbiter {
 public:
  explicit RoundRobinArbiter(std::size_t num_inputs);

  int Arbitrate(const std::vector<bool>& requests) override;

  void Save(Serializer& s) const override;
  void Load(Deserializer& d) override;
  template <typename Ar>
  void Transfer(Ar& ar) {
    ar.InRange(pointer_, 0, static_cast<std::int64_t>(num_inputs_),
               "arbiter pointer");
  }

  /// Exposed for tests: index with current highest priority.
  std::size_t pointer() const { return pointer_; }

 private:
  std::size_t pointer_ = 0;
};

/// Matrix arbiter: grants the least recently served requester (strong
/// fairness). State is an upper-triangular precedence matrix.
class MatrixArbiter final : public Arbiter {
 public:
  explicit MatrixArbiter(std::size_t num_inputs);

  int Arbitrate(const std::vector<bool>& requests) override;

  void Save(Serializer& s) const override;
  void Load(Deserializer& d) override;
  template <typename Ar>
  void Transfer(Ar& ar) {
    ar(prec_);
  }

 private:
  /// prec_[i][j] == true means i has precedence over j.
  std::vector<std::vector<bool>> prec_;
};

/// Builds an arbiter of the requested kind.
std::unique_ptr<Arbiter> MakeArbiter(ArbiterKind kind, std::size_t num_inputs);

}  // namespace gnoc
