// The benchmark's four workloads and the code that runs, checks and
// measures them. See README.md for why each workload exists and what every
// metric means.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/gpu_system.hpp"
#include "spans.hpp"

namespace perfbench {

/// The seed whose per-cell (per-job) reference results are committed under
/// reference/. Any other seed is checked against a `full`-backend run.
inline constexpr std::uint64_t kReferenceSeed = 1;

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Directory holding the committed <workload>.tsv reference files.
  std::string reference_dir;
  /// Scratch directory for spools, result artifacts and the trace file.
  std::string out_dir;
  /// Source revision recorded in the provenance ("unknown" outside git).
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Reported in the result line: the end-to-end metrics (untraced run)
  /// or the per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Printed beside the metrics: the same quantities under the names a
  /// single workload gives them (cell_p50_s, jobs_per_s, ...).
  std::vector<Metric> aliases;
  /// Human-readable diagnostics (failed cells, sample counts).
  std::vector<std::string> notes;
  /// Path of the Chrome-trace file written by a traced run ("" otherwise).
  std::string trace_path;
};

/// Runs one workload for about `seconds` of measurement (plus set-up and
/// reference checking). Throws std::invalid_argument on an unknown name.
RunResult RunWorkload(const RunOptions& options);

/// Recomputes the committed reference file of `workload` on the `full`
/// backend at kReferenceSeed and writes it to `path`.
void RecordReference(const std::string& workload, const std::string& path,
                     const std::string& out_dir);

// --- fidelity checking (fidelity_test.cpp) ---

/// One simulated cell of a workload.
struct CellSpec {
  std::string scheme;
  std::string profile;
  gnoc::GpuConfig config;
  std::string label() const { return scheme + " x " + profile; }
};

/// A workload's cells and run lengths. `snapshot_every` > 0 makes each cell
/// save a snapshot every that many cycles and resume its last one.
struct SimPlan {
  std::vector<CellSpec> cells;
  gnoc::Cycle warmup = 0;
  gnoc::Cycle measure = 0;
  gnoc::Cycle snapshot_every = 0;
};

/// The cells a workload simulates at `seed` (for dse-server: the cells of
/// its sweep jobs).
SimPlan MakeSimPlan(const std::string& workload, std::uint64_t seed);

/// Serialized GpuRunStats of `cell` run through gnoc::GpuSystem::Run, and
/// through the benchmark's traced outside-in assembly.
std::string GpuSystemStatsBytes(const CellSpec& cell, const SimPlan& plan);
std::string OutsideInStatsBytes(const CellSpec& cell, const SimPlan& plan);

}  // namespace perfbench
