// Example: compare the three dimension-ordered routing algorithms and the
// VC organization schemes on a chosen workload, the way Sec. 4.2 walks
// through the design space — from the XY/split baseline to the paper's best
// configuration (YX routing with fully monopolized VCs).
//
// The seven configurations run as one parallel sweep (threads=N; default
// one worker per core). Results are identical for any thread count.
//
// Usage: routing_comparison [workload=KMN] [scale=1.0] [threads=4]
#include <iostream>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace gnoc;

  FlagSet flags("routing_comparison",
                "Walk the Sec. 4.2 design space from the XY/split baseline "
                "to YX + fully monopolized VCs");
  flags.AddString("workload", "KMN", "the workload profile to run");
  flags.AddDouble("scale", 1.0, "warmup/measure scaling factor",
                  Positive());
  flags.AddInt("threads", 0, "sweep worker threads (0 = one per core)",
               AtLeast(0));

  Config args;
  try {
    args = flags.Parse(argc, argv);
  } catch (const CliError& e) {
    std::cerr << "routing_comparison: " << e.what() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Help();
    return 0;
  }

  const std::string name = args.GetString("workload", "KMN");
  const RunLengths lengths =
      RunLengths{}.Scaled(args.GetDouble("scale", 1.0));
  const WorkloadProfile& workload = FindWorkload(name);

  struct Step {
    const char* label;
    RoutingAlgorithm routing;
    VcPolicyKind policy;
    const char* why;
  };
  const Step steps[] = {
      {"XY + split VCs (baseline)", RoutingAlgorithm::kXY,
       VcPolicyKind::kSplit,
       "replies congest the horizontal links between MCs"},
      {"YX + split VCs", RoutingAlgorithm::kYX, VcPolicyKind::kSplit,
       "replies leave the MC row immediately (north first)"},
      {"XY-YX + split VCs", RoutingAlgorithm::kXYYX, VcPolicyKind::kSplit,
       "requests also stay off the MC row"},
      {"XY-YX + partial monopolizing", RoutingAlgorithm::kXYYX,
       VcPolicyKind::kPartialMonopolize,
       "vertical links are single-class: monopolize them"},
      {"XY + full monopolizing", RoutingAlgorithm::kXY,
       VcPolicyKind::kFullMonopolize,
       "XY/bottom keeps classes disjoint everywhere"},
      {"YX + full monopolizing (paper's best)", RoutingAlgorithm::kYX,
       VcPolicyKind::kFullMonopolize,
       "disjoint classes + all buffers usable by the heavy class"},
  };

  std::vector<SchemeSpec> schemes;
  for (const Step& step : steps) {
    GpuConfig cfg = GpuConfig::Baseline();
    cfg.routing = step.routing;
    cfg.vc_policy = step.policy;
    schemes.push_back({step.label, cfg});
  }
  // Contention-free upper bound for context.
  GpuConfig ideal = GpuConfig::Baseline();
  ideal.ideal_noc = true;
  schemes.push_back({"ideal interconnect (upper bound)", ideal});

  SweepOptions options;
  options.lengths = lengths;
  options.threads = static_cast<int>(args.GetInt("threads", 0));
  const SweepResult result = RunSweep(schemes, {workload}, options);

  std::cout << "Workload: " << workload.name << " (" << workload.suite
            << ")\n\n";
  const double baseline_ipc = result.Get(steps[0].label, workload.name).ipc;
  TextTable table({"configuration", "IPC", "speedup", "why it helps"});
  for (const Step& step : steps) {
    const double ipc = result.Get(step.label, workload.name).ipc;
    table.AddRow({step.label, FormatDouble(ipc, 2),
                  FormatDouble(baseline_ipc > 0 ? ipc / baseline_ipc : 0, 3),
                  step.why});
  }
  const double ideal_ipc =
      result.Get("ideal interconnect (upper bound)", workload.name).ipc;
  table.AddRow({"ideal interconnect (upper bound)",
                FormatDouble(ideal_ipc, 2),
                FormatDouble(baseline_ipc > 0 ? ideal_ipc / baseline_ipc : 0,
                             3),
                "infinite bandwidth, zero contention"});
  std::cout << table.Render();
  return 0;
}
