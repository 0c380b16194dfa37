// Example: NoC-only characterization with synthetic traffic — the classic
// latency/throughput curves plus the request/reply echo workload, using the
// network library without the GPGPU core models.
//
// Usage: synthetic_traffic [pattern=uniform|transpose|bitrev|hotspot]
//                          [routing=xy] [cycles=5000] [warmup=0|N|auto]
//
// warmup=N runs N cycles before resetting statistics; warmup=auto lets the
// SteadyStateDetector (noc/telemetry.hpp) watch windowed mean latency and
// end warm-up once K consecutive windows agree — the proper
// warmup/measure methodology, instead of measuring the cold start.
#include <iostream>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "noc/telemetry.hpp"
#include "noc/traffic.hpp"
#include "sim/gpu_config.hpp"

using namespace gnoc;

int main(int argc, char** argv) {
  FlagSet flags("synthetic_traffic",
                "NoC-only latency/throughput curves under synthetic traffic, "
                "plus the request/reply echo workload");
  flags.AddString("pattern", "uniform",
                  "traffic pattern (uniform|transpose|bitrev|hotspot)",
                  ParsedBy(ParseTrafficPattern));
  RegisterGpuConfigFlags(flags, {"routing"});
  flags.AddInt("cycles", 5000, "measured cycles per load point", AtLeast(1));
  flags.AddString("warmup", "0",
                  "warm-up cycles, or 'auto' for the steady-state detector",
                  [](const std::string& v) -> std::string {
                    if (v == "auto") return "";
                    try {
                      if (std::stoll(v) < 0) return "must be >= 0 or 'auto'";
                      return "";
                    } catch (const std::exception&) {
                      return "must be a cycle count or 'auto'";
                    }
                  });

  Config args;
  try {
    args = flags.Parse(argc, argv);
  } catch (const CliError& e) {
    std::cerr << "synthetic_traffic: " << e.what() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Help();
    return 0;
  }

  const TrafficPattern pattern =
      ParseTrafficPattern(args.GetString("pattern", "uniform"));
  const RoutingAlgorithm routing =
      ParseRouting(args.GetString("routing", "xy"));
  const auto cycles = static_cast<Cycle>(args.GetInt("cycles", 5000));
  const std::string warmup_arg = args.GetString("warmup", "0");
  const bool auto_warmup = warmup_arg == "auto";
  const Cycle fixed_warmup =
      auto_warmup ? 0 : static_cast<Cycle>(std::stoll(warmup_arg));

  std::cout << "Latency/throughput sweep: " << TrafficPatternName(pattern)
            << " traffic, " << RoutingName(routing) << " routing, 8x8 mesh\n"
            << "warm-up: "
            << (auto_warmup ? std::string("auto (steady-state detector)")
                            : warmup_arg + " cycles")
            << ", measure: " << cycles << " cycles\n\n";

  TextTable table({"offered load (flits/node/cy)", "delivered", "avg latency",
                   "max latency", "warmup cy", "saturated"});
  for (double rate : {0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50}) {
    NetworkConfig cfg;
    cfg.routing = routing;
    cfg.vc_policy = VcPolicyKind::kFullMonopolize;  // single-class traffic
    Network net(cfg);

    OpenLoopConfig tcfg;
    tcfg.pattern = pattern;
    tcfg.injection_rate = rate;
    tcfg.packet_size = 5;
    if (pattern == TrafficPattern::kHotspot) {
      tcfg.hotspots = {0, 63};
      tcfg.hotspot_fraction = 0.3;
    }
    OpenLoopTraffic traffic(net, tcfg);
    const auto tick = [&](Cycle) { traffic.Tick(); };

    Cycle warmup_used = fixed_warmup;
    Cycle measured = cycles;
    if (auto_warmup) {
      AutoWarmupOptions opt;
      opt.measure = cycles;
      const AutoWarmupResult r = RunWithAutoWarmup(net, tick, opt);
      warmup_used = r.warmup_cycles;
      measured = r.measured_cycles;
    } else {
      for (Cycle c = 0; c < fixed_warmup; ++c) {
        tick(c);
        net.Tick();
      }
      if (fixed_warmup > 0) net.ResetStats();
      for (Cycle c = 0; c < cycles; ++c) {
        tick(c);
        net.Tick();
      }
    }
    const NetworkSummary summary = net.Summarize();
    RunningStats merged;
    for (int cls = 0; cls < kNumClasses; ++cls) {
      merged.Merge(summary.packet_latency[static_cast<std::size_t>(cls)]);
    }
    const double delivered =
        static_cast<double>(summary.flits_ejected[0] +
                            summary.flits_ejected[1]) /
        static_cast<double>(measured * 64);
    // Saturation heuristic: delivered load falls visibly short of offered.
    const bool saturated = delivered < 0.85 * rate;
    table.AddRow({FormatDouble(rate, 2), FormatDouble(delivered, 3),
                  FormatDouble(merged.mean(), 1),
                  FormatDouble(merged.max(), 0), std::to_string(warmup_used),
                  saturated ? "yes" : "no"});
  }
  std::cout << table.Render();
  if (auto_warmup) {
    std::cout << "\nwarmup cy = cycles the steady-state detector excluded "
                 "before measuring.\n";
  }

  std::cout << "\nRequest/reply echo (many-to-few / few-to-many, bottom MCs)"
               ":\n\n";
  TextTable echo_table({"request rate", "round trips", "avg RTT (cycles)"});
  for (double rate : {0.005, 0.01, 0.02, 0.04}) {
    NetworkConfig cfg;
    cfg.routing = routing;
    Network net(cfg);
    TilePlan plan(8, 8, 8, McPlacement::kBottom);
    EchoConfig ecfg;
    ecfg.request_rate = rate;
    ecfg.service_latency = 30;
    RequestReplyEcho echo(net, plan, ecfg);
    for (Cycle c = 0; c < cycles; ++c) {
      echo.Tick();
      net.Tick();
    }
    echo_table.AddRow({FormatDouble(rate, 3),
                       std::to_string(echo.replies_received()),
                       FormatDouble(echo.round_trip().mean(), 1)});
  }
  std::cout << echo_table.Render();
  return 0;
}
