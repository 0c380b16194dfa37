// Quickstart: build the paper's baseline GPGPU (56 SMs + 8 MCs, 8x8 mesh,
// Table 2), run one workload, and print system and network statistics.
//
// Usage:
//   quickstart [workload=BFS] [routing=xy|yx|xy-yx] [vc_policy=split|mono|
//              partial|asym] [placement=bottom|edge|top-bottom|diamond]
//              [num_vcs=2] [warmup=3000] [measure=12000]
//
// Run with help= for the full generated flag list.
#include <iostream>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace gnoc;

  FlagSet flags("quickstart",
                "Run the paper's baseline GPGPU on one workload and print "
                "system and network statistics");
  flags.AddString("workload", "BFS", "the workload profile to run");
  flags.AddInt("warmup", 3000, "warm-up cycles (not measured)", AtLeast(0));
  flags.AddInt("measure", 12000, "measured cycles", AtLeast(1));
  RegisterGpuConfigFlags(flags);

  Config args;
  try {
    args = flags.Parse(argc, argv);
  } catch (const CliError& e) {
    std::cerr << "quickstart: " << e.what() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Help();
    return 0;
  }

  const std::string workload_name = args.GetString("workload", "BFS");
  const Cycle warmup = static_cast<Cycle>(args.GetInt("warmup", 3000));
  const Cycle measure = static_cast<Cycle>(args.GetInt("measure", 12000));

  GpuConfig cfg = GpuConfig::Baseline();
  cfg.ApplyOverrides(args);

  const WorkloadProfile& workload = FindWorkload(workload_name);
  std::cout << "Configuration : " << cfg.Describe() << "\n"
            << "Workload      : " << workload.name << " (" << workload.suite
            << "), expected request rate "
            << FormatDouble(workload.ExpectedRequestRate(), 4)
            << " req/insn\n\n";

  GpuSystem gpu(cfg, workload);
  const GpuRunStats stats = gpu.Run(warmup, measure);

  TextTable table({"metric", "value"});
  table.AddRow({"cycles (measured)", std::to_string(stats.cycles)});
  table.AddRow({"instructions", std::to_string(stats.instructions)});
  table.AddRow({"IPC (warp insns/cycle)", FormatDouble(stats.ipc, 3)});
  table.AddRow({"request flits injected", std::to_string(stats.request_flits)});
  table.AddRow({"reply flits injected", std::to_string(stats.reply_flits)});
  table.AddRow(
      {"reply:request flit ratio",
       FormatDouble(stats.request_flits > 0
                        ? static_cast<double>(stats.reply_flits) /
                              static_cast<double>(stats.request_flits)
                        : 0.0,
                    2)});
  const auto req = static_cast<std::size_t>(ClassIndex(TrafficClass::kRequest));
  const auto rep = static_cast<std::size_t>(ClassIndex(TrafficClass::kReply));
  table.AddRow({"avg request packet latency",
                FormatDouble(stats.network.packet_latency[req].mean(), 1)});
  table.AddRow({"avg reply packet latency",
                FormatDouble(stats.network.packet_latency[rep].mean(), 1)});
  table.AddRow({"avg read round trip (SM)",
                FormatDouble(stats.avg_read_latency, 1)});
  const auto& reply_hist = stats.network.latency_histogram[rep];
  table.AddRow({"reply latency p50 / p95 / p99",
                FormatDouble(reply_hist.Percentile(50), 0) + " / " +
                    FormatDouble(reply_hist.Percentile(95), 0) + " / " +
                    FormatDouble(reply_hist.Percentile(99), 0)});
  table.AddRow({"L2 read miss rate", FormatDouble(stats.l2_miss_rate, 3)});
  table.AddRow({"DRAM row hit rate", FormatDouble(stats.dram_row_hit_rate, 3)});
  table.AddRow({"deadlocked", stats.deadlocked ? "YES" : "no"});
  std::cout << table.Render();

  std::cout << "\nPacket mix (injected):\n";
  TextTable mix({"type", "packets"});
  for (int t = 0; t < kNumPacketTypes; ++t) {
    mix.AddRow({PacketTypeName(static_cast<PacketType>(t)),
                std::to_string(stats.packets_by_type[
                    static_cast<std::size_t>(t)])});
  }
  std::cout << mix.Render();
  return stats.deadlocked ? 1 : 0;
}
