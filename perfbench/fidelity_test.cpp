// Fidelity test of the traced run: for one cell of every workload, the
// benchmark's outside-in assembly (OutsideInSystem ticked layer by layer,
// with snapshot/resume where the workload uses it) must produce the
// statistics of gnoc::GpuSystem::Run bit for bit. A change to how
// GpuSystem builds or ticks the system then fails here instead of silently
// skewing the per-layer numbers.
#include <iostream>

#include "workloads.hpp"

int main() {
  int failures = 0;
  for (const std::string& workload : perfbench::WorkloadNames()) {
    perfbench::SimPlan plan = perfbench::MakeSimPlan(workload, 7);
    // Short runs keep the test quick; snapshots still land mid-measurement.
    plan.warmup = 300;
    plan.measure = 900;
    if (plan.snapshot_every > 0) plan.snapshot_every = 400;
    const perfbench::CellSpec& cell = plan.cells.front();
    const std::string want = perfbench::GpuSystemStatsBytes(cell, plan);
    const std::string got = perfbench::OutsideInStatsBytes(cell, plan);
    const bool ok = !want.empty() && want == got;
    std::cout << (ok ? "ok   " : "FAIL ") << workload << ": " << cell.label()
              << "\n";
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}
