// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around the public calls
// into each simulator module (layer): `noc`, `gpgpu`, `sim`, `common` and
// `dse`, plus `bench` for the driver's own loop. Each span has a name, a
// layer, the cell (or job) label shared by every span of that cell, a start,
// an end and the index of its parent. Nothing is written until the run
// ends, when WriteChromeTrace exports the Chrome-trace / Perfetto JSON.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since a fixed process-wide origin.
double NowSeconds();

struct Span {
  std::string name;
  std::string layer;
  std::string cell;
  double start = 0.0;  ///< seconds, NowSeconds() clock
  double end = 0.0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root span
};

class Tracer {
 public:
  /// A disabled tracer records nothing; every call is a cheap no-op.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span starting now; returns its index (-1 when disabled).
  int Begin(const std::string& name, const std::string& layer,
            const std::string& cell, int parent);
  /// Closes span `index` now (no-op for -1).
  void End(int index);
  /// Records a finished span with explicit bounds (aggregated children).
  int Add(const std::string& name, const std::string& layer,
          const std::string& cell, int parent, double start, double end);

  /// Self time per layer: each span's duration minus the part its direct
  /// children cover (children never overlap one another).
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Summed duration of the root spans (parent -1).
  double RootSeconds() const;

  /// Writes the spans as a Chrome-trace JSON document ("X" events, µs).
  /// `metadata` entries are written under "metadata". Throws on I/O error.
  void WriteChromeTrace(const std::string& path,
                        const std::map<std::string, std::string>& metadata)
      const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, const std::string& layer,
             const std::string& cell, int parent)
      : tracer_(tracer), index_(tracer.Begin(name, layer, cell, parent)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
