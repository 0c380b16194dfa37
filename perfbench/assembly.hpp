// Outside-in assembly of the GPGPU for the traced run.
//
// gnoc::GpuSystem ticks its SMs, MCs and fabric inside one Tick() call, so
// host time cannot be split by layer from outside it. OutsideInSystem builds
// the same system from the public constructors of its parts (Fabric,
// StreamingMultiprocessor, MemoryController), in GpuSystem's order and with
// GpuSystem's seeding, and ticks the three layers itself with a clock read
// between them. Its statistics and snapshots must equal GpuSystem's bit for
// bit; fidelity_test.cpp and every traced run check that.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/gpu_system.hpp"
#include "spans.hpp"

namespace perfbench {

/// Host seconds spent in each layer's tick calls.
struct TickSeconds {
  double sm = 0.0;
  double mc = 0.0;
  double noc = 0.0;
};

class OutsideInSystem {
 public:
  /// Builds the system, recording `noc.construct` (deadlock validation and
  /// fabric) and `gpgpu.construct` (SMs and MCs) spans under `parent`.
  /// Supports the configurations GpuSystem supports except the ideal
  /// interconnect and trace recording (std::invalid_argument).
  OutsideInSystem(const gnoc::GpuConfig& config,
                  const gnoc::WorkloadProfile& workload, Tracer& tracer,
                  const std::string& cell, int parent);

  OutsideInSystem(const OutsideInSystem&) = delete;
  OutsideInSystem& operator=(const OutsideInSystem&) = delete;

  /// One cycle, as GpuSystem::Tick, adding each layer's host time to `acc`.
  void Tick(TickSeconds& acc);

  // The GpuSystem surface the benchmark's run loop uses.
  gnoc::Cycle now() const { return fabric_->now(); }
  void ResetStats();
  gnoc::GpuRunStats Measure() const;
  void Save(gnoc::Serializer& s) const;
  void Load(gnoc::Deserializer& d);

  const gnoc::Fabric& fabric() const { return *fabric_; }
  const std::vector<std::unique_ptr<gnoc::StreamingMultiprocessor>>& sms()
      const {
    return sms_;
  }
  const std::vector<std::unique_ptr<gnoc::MemoryController>>& mcs() const {
    return mcs_;
  }

 private:
  gnoc::GpuConfig config_;
  gnoc::WorkloadProfile workload_;
  gnoc::TilePlan plan_;
  std::unique_ptr<gnoc::Fabric> fabric_;
  std::vector<std::unique_ptr<gnoc::StreamingMultiprocessor>> sms_;
  std::vector<std::unique_ptr<gnoc::MemoryController>> mcs_;
  gnoc::Cycle measured_since_ = 0;
};

/// Ticks an OutsideInSystem and records one `sim.window` span per
/// `window` cycles, whose `gpgpu.sm`, `gpgpu.mc` and `noc.tick` children
/// carry the summed host time of that layer's calls in the window. The
/// children are laid end to end from the window's start (their true
/// intervals interleave cycle by cycle), so a window's self time is the
/// loop overhead between the calls.
class WindowedTicker {
 public:
  WindowedTicker(OutsideInSystem& sys, Tracer& tracer, std::string cell,
                 int parent, gnoc::Cycle window);
  ~WindowedTicker() { Flush(); }
  WindowedTicker(const WindowedTicker&) = delete;
  WindowedTicker& operator=(const WindowedTicker&) = delete;

  void Tick();
  /// Closes the open window (if any cycles are in it).
  void Flush();

  /// Per-layer host time over every cycle ticked through this object.
  const TickSeconds& total() const { return total_; }

 private:
  OutsideInSystem& sys_;
  Tracer& tracer_;
  std::string cell_;
  int parent_;
  gnoc::Cycle window_;
  gnoc::Cycle in_window_ = 0;
  double window_start_ = 0.0;
  TickSeconds window_acc_;
  TickSeconds total_;
};

}  // namespace perfbench
