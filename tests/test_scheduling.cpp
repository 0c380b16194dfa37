// Tests of the two scheduling modes (DESIGN.md §14): name parsing (and
// clean failure for removed modes on every input surface), full-vs-soa bit
// identity across routing x VC policy x arbiter on square and non-square
// meshes, topology, load and the GPU design space, snapshot round-trips
// through the soa plane rebuild, watchdog parity (also across a snapshot),
// the soa skip rule's cost claims, scheduler-coverage auditing, and the
// route-LUT fast path agreeing with the analytic routing function.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <iterator>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/serialize.hpp"
#include "noc/audit.hpp"
#include "noc/network.hpp"
#include "noc/placement.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "noc/vc_policy.hpp"
#include "sim/experiment.hpp"
#include "sim/gpu_config.hpp"
#include "sim/gpu_system.hpp"

namespace gnoc {
namespace {

// --- mode plumbing ---------------------------------------------------------

TEST(SchedulingModeTest, NamesRoundTrip) {
  EXPECT_STREQ(SchedulingModeName(SchedulingMode::kFull), "full");
  EXPECT_EQ(ParseSchedulingMode("full"), SchedulingMode::kFull);
  EXPECT_EQ(ParseSchedulingMode("FULL"), SchedulingMode::kFull);
  // Unknown and removed names are rejected with the valid choices.
  for (const char* name : {"lazy", "active-set", "active", "event"}) {
    try {
      ParseSchedulingMode(name);
      ADD_FAILURE() << name << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("full|soa"), std::string::npos)
          << e.what();
    }
  }
}

TEST(SoaModeTest, NamesRoundTrip) {
  EXPECT_STREQ(SchedulingModeName(SchedulingMode::kSoa), "soa");
  EXPECT_EQ(ParseSchedulingMode("soa"), SchedulingMode::kSoa);
  EXPECT_EQ(ParseSchedulingMode("SOA"), SchedulingMode::kSoa);
}

/// Parses `tokens` through `flags`; returns the CliError message, or ""
/// when parsing succeeded.
std::string CliFailure(FlagSet& flags, const std::vector<std::string>& tokens) {
  std::vector<const char*> argv{"prog"};
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  try {
    flags.Parse(static_cast<int>(argv.size()), argv.data());
  } catch (const CliError& e) {
    return e.what();
  }
  return "";
}

// The removed backends and the removed batch= flag must fail with a typed
// error on every input surface: the sweep harness flags, the GpuConfig
// override keys (config files, job-spec "config" blocks) and the GpuConfig
// flag set. A job spec naming them fails the same way (test_dse_server).
TEST(SchedulingModeTest, RemovedModesFailOnEveryInputSurface) {
  for (const char* mode : {"active-set", "event"}) {
    const std::string token = std::string("scheduling=") + mode;

    FlagSet sweep_flags("bench", "sweep harness");
    bench::RegisterSweepFlags(sweep_flags);
    const std::string bench_error = CliFailure(sweep_flags, {token});
    EXPECT_NE(bench_error.find("full|soa"), std::string::npos) << bench_error;

    FlagSet config_flags("prog", "full configuration surface");
    RegisterGpuConfigFlags(config_flags);
    const std::string config_error = CliFailure(config_flags, {token});
    EXPECT_NE(config_error.find("full|soa"), std::string::npos)
        << config_error;

    Config overrides;
    overrides.Set("scheduling", mode);
    GpuConfig cfg = GpuConfig::Baseline();
    try {
      cfg.ApplyOverrides(overrides);
      ADD_FAILURE() << mode << " applied";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("full|soa"), std::string::npos)
          << e.what();
    }
  }
  FlagSet sweep_flags("bench", "sweep harness");
  bench::RegisterSweepFlags(sweep_flags);
  const std::string batch_error = CliFailure(sweep_flags, {"batch=4"});
  EXPECT_NE(batch_error.find("unknown flag 'batch'"), std::string::npos)
      << batch_error;
  EXPECT_EQ(CliFailure(sweep_flags, {"scheduling=soa"}), "");
}

// A zero dynamic epoch would spin the router's boundary catch-up loop
// forever; the network must refuse it up front with an actionable error.
TEST(SchedulingModeTest, RejectsZeroDynamicEpoch) {
  NetworkConfig cfg;
  cfg.vc_policy = VcPolicyKind::kDynamic;
  cfg.dynamic_epoch = 0;
  EXPECT_THROW(Network net(cfg), std::invalid_argument);
  // Irrelevant for static policies: the loops never run.
  cfg.vc_policy = VcPolicyKind::kSplit;
  EXPECT_NO_THROW(Network net(cfg));
}

// --- bit identity, network level -------------------------------------------

// Serializes everything observable about a finished network run: summary
// counters, per-class latency moments, audit counters and the full
// telemetry CSV. Two runs are "bit-identical" iff these strings match.
std::string NetworkFingerprint(NetworkConfig cfg, SchedulingMode mode,
                               double injection_rate) {
  cfg.scheduling = mode;
  cfg.audit = true;
  cfg.audit_interval = 4;
  cfg.telemetry = true;
  cfg.telemetry_interval = 50;
  Network net(cfg);
  OpenLoopConfig tcfg;
  tcfg.pattern = TrafficPattern::kUniformRandom;
  tcfg.injection_rate = injection_rate;
  tcfg.packet_size = 4;
  OpenLoopTraffic traffic(net, tcfg);
  for (int c = 0; c < 1200; ++c) {
    traffic.Tick();
    net.Tick();
  }
  const bool drained = net.Drain(10000);

  std::ostringstream out;
  out.precision(17);
  out << "drained=" << drained << " deadlocked=" << net.Deadlocked()
      << " now=" << net.now() << " in_flight=" << net.FlitsInFlight()
      << " generated=" << traffic.generated()
      << " dropped=" << traffic.dropped() << '\n';
  const NetworkSummary s = net.Summarize();
  for (int c = 0; c < kNumClasses; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    out << "class " << c << ": pkts " << s.packets_injected[ci] << '/'
        << s.packets_ejected[ci] << " flits " << s.flits_injected[ci] << '/'
        << s.flits_ejected[ci] << " plat " << s.packet_latency[ci].count()
        << ' ' << s.packet_latency[ci].mean() << ' '
        << s.packet_latency[ci].max() << " nlat "
        << s.network_latency[ci].count() << ' '
        << s.network_latency[ci].mean() << '\n';
  }
  out << "forwarded=" << s.flits_forwarded << '\n';
  const AuditReport r = net.AuditResults();
  out << "audit checks=" << r.checks << " events=" << r.events
      << " violations=" << r.violations << " inj=" << r.flits_injected
      << " ej=" << r.flits_ejected << '\n';
  net.TelemetryResults().WriteCsv(out);
  return out.str();
}

constexpr RoutingAlgorithm kRoutings[] = {
    RoutingAlgorithm::kXY, RoutingAlgorithm::kYX, RoutingAlgorithm::kXYYX};
constexpr VcPolicyKind kPolicies[] = {
    VcPolicyKind::kSplit, VcPolicyKind::kFullMonopolize,
    VcPolicyKind::kPartialMonopolize, VcPolicyKind::kAsymmetric,
    VcPolicyKind::kDynamic};
constexpr ArbiterKind kArbiters[] = {ArbiterKind::kRoundRobin,
                                     ArbiterKind::kMatrix};

/// kFull and kSoa must agree bit-for-bit — stats, audit counters and
/// telemetry windows — for every routing x VC-policy x arbiter combination
/// on a `width` x `height` mesh, with the auditor (including the soa
/// coverage sweep) and telemetry running.
void ExpectOpenLoopMatrixMatches(int width, int height) {
  for (RoutingAlgorithm routing : kRoutings) {
    for (VcPolicyKind policy : kPolicies) {
      for (ArbiterKind arbiter : kArbiters) {
        NetworkConfig cfg;
        cfg.width = width;
        cfg.height = height;
        cfg.num_vcs = 4;
        cfg.vc_depth = 4;
        cfg.routing = routing;
        cfg.vc_policy = policy;
        cfg.arbiter = arbiter;
        cfg.dynamic_epoch = 64;
        const std::string label =
            std::to_string(width) + "x" + std::to_string(height) + " " +
            RoutingName(routing) + "/" + VcPolicyName(policy) + "/" +
            ArbiterKindName(arbiter);
        EXPECT_EQ(NetworkFingerprint(cfg, SchedulingMode::kFull, 0.1),
                  NetworkFingerprint(cfg, SchedulingMode::kSoa, 0.1))
            << label;
      }
    }
  }
}

// The open-loop matrix on a square 4x4 mesh.
TEST(SchedulingBitIdentityTest, OpenLoopMatrixMatchesFullMode) {
  ExpectOpenLoopMatrixMatches(4, 4);
}

// The same matrix on a non-square 8x4 mesh, where XY, YX and XY-YX routes
// differ in length and the busiest links are the long X rows.
TEST(SoaBitIdentityTest, FourWayOpenLoopMatrixAgrees) {
  ExpectOpenLoopMatrixMatches(8, 4);
}

// Near saturation almost every VC is occupied, so the eligibility planes
// are dense and the skip rule almost never fires — the opposite regime from
// the sparse matrix above. Both arbiter microarchitectures and both
// VC-reallocation rules cover the VA-failure and non-atomic recycle paths
// the default configuration rarely takes.
void ExpectHighLoadMatches(int depth) {
  for (ArbiterKind arbiter : kArbiters) {
    for (bool atomic : {true, false}) {
      NetworkConfig cfg;
      cfg.width = 4;
      cfg.height = 4;
      cfg.num_vcs = 4;
      cfg.vc_depth = depth;
      cfg.arbiter = arbiter;
      cfg.atomic_vc_realloc = atomic;
      EXPECT_EQ(NetworkFingerprint(cfg, SchedulingMode::kFull, 0.4),
                NetworkFingerprint(cfg, SchedulingMode::kSoa, 0.4))
          << "depth=" << depth << " " << ArbiterKindName(arbiter)
          << " atomic=" << atomic;
    }
  }
}

// Shallow buffers add credit stalls to the high-load regime.
TEST(SchedulingBitIdentityTest, HighLoadMatchesFullMode) {
  ExpectHighLoadMatches(2);
}

// The high-load regime with the default buffer depth.
TEST(SoaBitIdentityTest, HighLoadMatchesFullMode) { ExpectHighLoadMatches(4); }

// --- bit identity, full GPU model ------------------------------------------

void ExpectRunsEqual(const GpuRunStats& a, const GpuRunStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.ipc, b.ipc) << label;
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.instructions, b.instructions) << label;
  EXPECT_EQ(a.packets_by_type, b.packets_by_type) << label;
  EXPECT_EQ(a.request_flits, b.request_flits) << label;
  EXPECT_EQ(a.reply_flits, b.reply_flits) << label;
  EXPECT_EQ(a.l2_miss_rate, b.l2_miss_rate) << label;
  EXPECT_EQ(a.dram_row_hit_rate, b.dram_row_hit_rate) << label;
  EXPECT_EQ(a.avg_read_latency, b.avg_read_latency) << label;
  EXPECT_EQ(a.deadlocked, b.deadlocked) << label;
  EXPECT_EQ(a.network.flits_forwarded, b.network.flits_forwarded) << label;
  for (int c = 0; c < kNumClasses; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    EXPECT_EQ(a.network.packets_ejected[ci], b.network.packets_ejected[ci])
        << label;
    EXPECT_EQ(a.network.packet_latency[ci].count(),
              b.network.packet_latency[ci].count())
        << label;
    EXPECT_EQ(a.network.packet_latency[ci].mean(),
              b.network.packet_latency[ci].mean())
        << label;
  }
  EXPECT_EQ(a.audit.checks, b.audit.checks) << label;
  EXPECT_EQ(a.audit.events, b.audit.events) << label;
  EXPECT_EQ(a.audit.violations, b.audit.violations) << label;
  std::ostringstream ta;
  std::ostringstream tb;
  a.telemetry.WriteCsv(ta);
  b.telemetry.WriteCsv(tb);
  EXPECT_EQ(ta.str(), tb.str()) << label;
}

/// Runs `cfg` on BFS under full and soa scheduling and compares the runs.
void ExpectGpuSoaMatchesFull(GpuConfig cfg, const std::string& label) {
  cfg.audit = true;
  cfg.audit_interval = 8;
  cfg.telemetry = true;
  cfg.telemetry_interval = 100;
  cfg.scheduling = SchedulingMode::kFull;
  GpuSystem full(cfg, FindWorkload("BFS"));
  const GpuRunStats a = full.Run(/*warmup=*/100, /*measure=*/300);
  cfg.scheduling = SchedulingMode::kSoa;
  GpuSystem soa(cfg, FindWorkload("BFS"));
  const GpuRunStats b = soa.Run(/*warmup=*/100, /*measure=*/300);
  ExpectRunsEqual(a, b, label);
}

constexpr TopologyKind kTopologies[] = {
    TopologyKind::kTorus, TopologyKind::kCMesh, TopologyKind::kCirculant};

// The non-mesh topologies change the link planes' geometry: wrap links
// with dateline VC halves, concentrated routers with four local ports,
// circulant chords. Checked here on the full GPU model.
TEST(SchedulingBitIdentityTest, TopologyMatrixMatchesFullMode) {
  for (TopologyKind topology : kTopologies) {
    GpuConfig cfg = GpuConfig::Baseline();
    cfg.topology = topology;
    cfg.num_vcs = 4;
    ExpectGpuSoaMatchesFull(cfg, TopologyName(topology));
  }
}

// The same topologies on an open-loop 4x4 network.
TEST(SoaBitIdentityTest, TopologyMatrixMatchesFullMode) {
  for (TopologyKind topology : kTopologies) {
    NetworkConfig net;
    net.topology = topology;
    net.width = 4;
    net.height = 4;
    net.num_vcs = 4;
    net.vc_depth = 4;
    EXPECT_EQ(NetworkFingerprint(net, SchedulingMode::kFull, 0.1),
              NetworkFingerprint(net, SchedulingMode::kSoa, 0.1))
        << TopologyName(topology);
  }
}

/// Compares full and soa on the GPU model for every deadlock-safe
/// placement x routing x listed VC policy under `division`; returns the
/// number of combinations compared (the rest are refused up front).
int CompareGpuDesignSpace(NetworkDivision division,
                          const std::vector<VcPolicyKind>& policies) {
  int compared = 0;
  for (McPlacement placement : kAllPlacements) {
    for (RoutingAlgorithm routing : kRoutings) {
      for (VcPolicyKind policy : policies) {
        GpuConfig cfg = GpuConfig::Baseline();
        cfg.division = division;
        if (division == NetworkDivision::kPhysical) cfg.num_vcs = 4;
        cfg.placement = placement;
        cfg.routing = routing;
        cfg.vc_policy = policy;
        const std::string label =
            std::string(McPlacementName(placement)) + "/" +
            RoutingName(routing) + "/" + VcPolicyName(policy) +
            (division == NetworkDivision::kPhysical ? " (dual)" : "");
        try {
          ExpectGpuSoaMatchesFull(cfg, label);
          ++compared;
        } catch (const std::invalid_argument&) {
          // Deadlock-unsafe combination: correctly refused up front.
        }
      }
    }
  }
  return compared;
}

// Two physical networks (one per class), each with its own SoA core and 2
// of the 4 VCs, for every placement x routing combination. Each network
// runs fully monopolized whatever the configured policy, so one policy
// stands for all.
TEST(SchedulingBitIdentityTest, GpuDesignSpaceMatchesFullMode) {
  EXPECT_GE(CompareGpuDesignSpace(NetworkDivision::kPhysical,
                                  {VcPolicyKind::kSplit}),
            6)
      << "design space unexpectedly small";
}

// Every placement x routing x VC-policy combination on one virtually
// divided network.
TEST(SoaBitIdentityTest, GpuDesignSpaceMatchesFullMode) {
  EXPECT_GE(CompareGpuDesignSpace(NetworkDivision::kVirtual,
                                  {std::begin(kPolicies), std::end(kPolicies)}),
            12)
      << "design space unexpectedly small";
}

// The sweep engine forwards its scheduling override into every cell.
TEST(SchedulingBitIdentityTest, SweepOverrideMatchesFullMode) {
  SchemeSpec scheme{"baseline", GpuConfig::Baseline()};
  SweepOptions opts;
  opts.lengths = RunLengths{100, 500};
  opts.threads = 1;
  opts.scheduling = SchedulingMode::kSoa;
  const SweepResult soa = RunSweep({scheme}, {FindWorkload("KMN")}, opts);
  opts.scheduling = SchedulingMode::kFull;
  const SweepResult full = RunSweep({scheme}, {FindWorkload("KMN")}, opts);
  ExpectRunsEqual(full.Get("baseline", "KMN"), soa.Get("baseline", "KMN"),
                  "sweep override");
}

// --- skip-rule cost --------------------------------------------------------

// A single packet keeps only the routers and links on its path busy; soa
// skips the rest, so its step count stays far below the full-tick bill for
// the same run (which visits every router, NIC and link every cycle).
std::uint64_t SparseTrafficSteps(SchedulingMode mode, Cycle* cycles) {
  NetworkConfig cfg;
  cfg.scheduling = mode;
  Network net(cfg);
  struct Sink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return true; }
  } sink;
  for (NodeId n = 0; n < net.num_nodes(); ++n) net.SetSink(n, &sink);
  Packet p;
  p.src = 0;
  p.dst = net.num_nodes() - 1;
  p.type = PacketType::kReadRequest;
  p.num_flits = 2;
  EXPECT_TRUE(net.Inject(p));
  EXPECT_TRUE(net.Drain(1000));
  *cycles = net.now();
  return net.TickSteps();
}

TEST(SchedulingCostTest, SparseTrafficTicksFewComponents) {
  Cycle full_cycles = 0;
  Cycle soa_cycles = 0;
  const std::uint64_t full =
      SparseTrafficSteps(SchedulingMode::kFull, &full_cycles);
  const std::uint64_t soa =
      SparseTrafficSteps(SchedulingMode::kSoa, &soa_cycles);
  EXPECT_EQ(full_cycles, soa_cycles);
  // soa ticks the 64 NICs every cycle plus only the handful of routers and
  // links on the packet's path.
  EXPECT_GE(soa, soa_cycles * 64u);
  EXPECT_LT(soa, soa_cycles * 64u + soa_cycles * 8u);
  EXPECT_LT(soa * 4u, full);
}

// --- watchdog across a snapshot --------------------------------------------

// A snapshot taken mid-stall must restore the watchdog's baseline exactly,
// so a resumed run neither trips a spurious deadlock (baseline too old) nor
// masks the real one (baseline reset to the restore cycle). The resumed
// network must declare deadlock at the same cycle as the uninterrupted run,
// under both scheduling modes.
TEST(SchedulingWatchdogTest, CheckpointMidStallKeepsDeadlockCycle) {
  struct RefusingSink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return false; }
  } sink;
  for (SchedulingMode mode : {SchedulingMode::kFull, SchedulingMode::kSoa}) {
    const auto make_net = [&] {
      NetworkConfig cfg;
      cfg.width = 4;
      cfg.height = 4;
      cfg.deadlock_threshold = 200;
      cfg.scheduling = mode;
      auto net = std::make_unique<Network>(cfg);
      for (NodeId n = 0; n < net->num_nodes(); ++n) net->SetSink(n, &sink);
      return net;
    };
    const std::string label = SchedulingModeName(mode);

    auto reference = make_net();
    Packet p;
    p.src = 0;
    p.dst = 15;
    p.type = PacketType::kReadRequest;
    p.num_flits = 3;
    ASSERT_TRUE(reference->Inject(p));
    Cycle uninterrupted = 0;
    Serializer snap;
    for (int c = 0; c < 2000; ++c) {
      // Snapshot 120 cycles into the stall — past the last progress event,
      // well before the threshold fires.
      if (reference->now() == 120) reference->Save(snap);
      reference->Tick();
      if (reference->Deadlocked()) {
        uninterrupted = reference->now();
        break;
      }
    }
    ASSERT_GT(uninterrupted, 0u) << label << ": watchdog never fired";

    auto resumed = make_net();
    Deserializer d(snap.bytes());
    resumed->Load(d);
    d.Finish();
    EXPECT_FALSE(resumed->Deadlocked()) << label << ": spurious deadlock";
    Cycle after_resume = 0;
    for (int c = 0; c < 2000; ++c) {
      resumed->Tick();
      if (resumed->Deadlocked()) {
        after_resume = resumed->now();
        break;
      }
    }
    ASSERT_GT(after_resume, 0u) << label << ": restore masked the deadlock";
    EXPECT_EQ(after_resume, uninterrupted) << label;
  }
}

// --- snapshot round-trip through the SoA converter -------------------------

// Saving mid-run from an SoA-mode network and restoring into a fresh one
// must resume bit-identically. The snapshot format carries only object
// state; the restore path must rebuild the routers' front-ready caches for
// flits parked mid-VC (Router::Load) and the core's due planes for flits
// mid-channel (RebuildFromObjects).
TEST(SoaSnapshotTest, SoaModeResumesBitIdentically) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 4;
  cfg.vc_depth = 4;
  cfg.vc_policy = VcPolicyKind::kDynamic;
  cfg.dynamic_epoch = 64;
  cfg.scheduling = SchedulingMode::kSoa;

  struct Sink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return true; }
  } sink;
  const auto make_net = [&] {
    auto net = std::make_unique<Network>(cfg);
    for (NodeId n = 0; n < net->num_nodes(); ++n) net->SetSink(n, &sink);
    return net;
  };
  // Deterministic all-to-all burst: plenty of contention mid-flight.
  const auto inject_burst = [](Network& net) {
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      Packet p;
      p.src = n;
      p.dst = net.num_nodes() - 1 - n;
      if (p.dst == p.src) continue;
      p.type = PacketType::kReadRequest;
      p.num_flits = 4;
      ASSERT_TRUE(net.Inject(p));
    }
  };
  const auto fingerprint = [](Network& net) {
    Serializer out;
    net.Save(out);
    return out.TakeBytes();
  };

  // Uninterrupted run: burst, then 500 cycles (drains and then idles over
  // several dynamic-epoch boundaries).
  auto plain = make_net();
  inject_burst(*plain);
  for (int c = 0; c < 500; ++c) plain->Tick();

  // Interrupted run: snapshot at cycle 10 while flits are in flight,
  // restore into a fresh SoA-mode network, replay the remaining cycles.
  auto first = make_net();
  inject_burst(*first);
  for (int c = 0; c < 10; ++c) first->Tick();
  ASSERT_GT(first->FlitsInFlight(), 0u) << "snapshot caught an idle instant";
  Serializer s;
  first->Save(s);

  auto second = make_net();
  Deserializer d(s.bytes());
  second->Load(d);
  d.Finish();
  EXPECT_GT(second->FlitsInFlight(), 0u);
  for (int c = 0; c < 490; ++c) second->Tick();

  EXPECT_EQ(fingerprint(*plain), fingerprint(*second));
}

// The snapshot bytes themselves are mode-independent object state: a
// full-mode network's mid-flight snapshot must restore into an SoA-mode
// network and drain to the same final summary the full-mode run reaches.
TEST(SoaSnapshotTest, FullModeSnapshotRestoresIntoSoaMode) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 4;
  cfg.vc_depth = 4;

  struct Sink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return true; }
  } sink;
  const auto make_net = [&](SchedulingMode mode) {
    NetworkConfig c = cfg;
    c.scheduling = mode;
    auto net = std::make_unique<Network>(c);
    for (NodeId n = 0; n < net->num_nodes(); ++n) net->SetSink(n, &sink);
    return net;
  };
  const auto summarize = [](Network& net) {
    std::ostringstream out;
    out.precision(17);
    const NetworkSummary s = net.Summarize();
    out << net.now() << ' ' << net.FlitsInFlight() << ' '
        << s.flits_forwarded;
    for (int c = 0; c < kNumClasses; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      out << ' ' << s.packets_ejected[ci] << ' '
          << s.packet_latency[ci].mean();
    }
    return out.str();
  };

  auto full = make_net(SchedulingMode::kFull);
  for (NodeId n = 0; n < full->num_nodes(); ++n) {
    Packet p;
    p.src = n;
    p.dst = full->num_nodes() - 1 - n;
    if (p.dst == p.src) continue;
    p.type = PacketType::kReadRequest;
    p.num_flits = 4;
    ASSERT_TRUE(full->Inject(p));
  }
  for (int c = 0; c < 10; ++c) full->Tick();
  ASSERT_GT(full->FlitsInFlight(), 0u);
  Serializer s;
  full->Save(s);
  for (int c = 0; c < 490; ++c) full->Tick();

  auto soa = make_net(SchedulingMode::kSoa);
  Deserializer d(s.bytes());
  soa->Load(d);
  d.Finish();
  EXPECT_GT(soa->FlitsInFlight(), 0u);
  for (int c = 0; c < 490; ++c) soa->Tick();
  EXPECT_EQ(summarize(*full), summarize(*soa));
}

// --- watchdog parity -------------------------------------------------------

// The SoA tick must feed the deadlock watchdog the same idle/progress
// signal as full mode: a wedged network is declared dead at the same cycle.
Cycle DeadlockCycle(SchedulingMode mode) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.deadlock_threshold = 200;
  cfg.scheduling = mode;
  Network net(cfg);
  struct RefusingSink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return false; }
  } sink;
  for (NodeId n = 0; n < net.num_nodes(); ++n) net.SetSink(n, &sink);
  Packet p;
  p.src = 0;
  p.dst = 15;
  p.type = PacketType::kReadRequest;
  p.num_flits = 3;
  EXPECT_TRUE(net.Inject(p));
  for (int c = 0; c < 2000; ++c) {
    net.Tick();
    if (net.Deadlocked()) return net.now();
  }
  return 0;  // never fired
}

TEST(SoaWatchdogTest, FiresAtTheSameCycleAsFullMode) {
  const Cycle full = DeadlockCycle(SchedulingMode::kFull);
  const Cycle soa = DeadlockCycle(SchedulingMode::kSoa);
  ASSERT_GT(full, 0u) << "watchdog never fired in full mode";
  EXPECT_EQ(full, soa);
}

// --- cost floor ------------------------------------------------------------

// An idle SoA network ticks no routers and visits no channels: the only
// per-cycle component steps are the NIC ticks (the SoA core ticks every
// NIC every cycle; see DESIGN.md §14).
TEST(SoaCostTest, IdleNetworkTicksOnlyNics) {
  NetworkConfig cfg;
  cfg.scheduling = SchedulingMode::kSoa;
  Network soa(cfg);
  for (int c = 0; c < 1000; ++c) soa.Tick();

  cfg.scheduling = SchedulingMode::kFull;
  Network full(cfg);
  for (int c = 0; c < 1000; ++c) full.Tick();

  // 64 NIC steps per cycle, nothing else — well under full mode's
  // every-component bill.
  EXPECT_EQ(soa.TickSteps(), 1000u * 64u);
  EXPECT_GT(full.TickSteps(), soa.TickSteps());
}

// --- scheduler-coverage invariant ------------------------------------------

NetworkConfig CoverageConfig() {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.scheduling = SchedulingMode::kSoa;
  cfg.audit = true;
  cfg.audit_interval = 1;
  return cfg;
}

// A router holding flits whose skip counter reads zero is never ticked
// again — a lost wakeup by construction. The auditor's coverage sweep must
// report it.
TEST(SchedulingCoverageTest, ForceSleepTripsCoverageInvariant) {
  Network net(CoverageConfig());
  struct Sink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return true; }
  } sink;
  for (NodeId n = 0; n < net.num_nodes(); ++n) net.SetSink(n, &sink);
  Packet p;
  p.src = 0;
  p.dst = 15;
  p.type = PacketType::kReadRequest;
  p.num_flits = 4;
  ASSERT_TRUE(net.Inject(p));
  for (int c = 0; c < 4; ++c) net.Tick();
  ASSERT_TRUE(net.PlantStaleSkipCounter()) << "no router holds flits";
  net.Tick();
  const AuditReport r = net.AuditResults();
  EXPECT_GT(r.by_invariant[static_cast<std::size_t>(
                AuditInvariant::kSchedulerCoverage)],
            0u);
  EXPECT_FALSE(r.clean());
  ASSERT_FALSE(r.samples.empty());
  EXPECT_NE(r.samples[0].detail.find("skip counter is zero"),
            std::string::npos)
      << r.samples[0].detail;
  EXPECT_STREQ(AuditInvariantName(AuditInvariant::kSchedulerCoverage),
               "scheduler-coverage");

  // The hook is soa-only: full scheduling has no skip counters to desync.
  NetworkConfig full_cfg = CoverageConfig();
  full_cfg.scheduling = SchedulingMode::kFull;
  Network full(full_cfg);
  EXPECT_FALSE(full.PlantStaleSkipCounter());
}

// A clean run must never trip the coverage invariant: every push refreshes
// the due planes and every buffered flit is counted.
TEST(SchedulingCoverageTest, CleanRunHasFullCoverage) {
  Network net(CoverageConfig());
  OpenLoopConfig tcfg;
  tcfg.pattern = TrafficPattern::kUniformRandom;
  tcfg.injection_rate = 0.2;
  tcfg.packet_size = 3;
  OpenLoopTraffic traffic(net, tcfg);
  for (int c = 0; c < 1000; ++c) {
    traffic.Tick();
    net.Tick();
  }
  ASSERT_TRUE(net.Drain(10000));
  const AuditReport r = net.AuditResults();
  EXPECT_TRUE(r.clean()) << (r.samples.empty() ? std::string()
                                                : r.samples[0].detail);
}

// --- route LUT -------------------------------------------------------------

// The per-router LUT built at construction must agree with the analytic
// routing function for every (destination, class) on every router.
TEST(SchedulingRouteLutTest, LutMatchesComputeOutputPort) {
  const RoutingAlgorithm routings[] = {
      RoutingAlgorithm::kXY, RoutingAlgorithm::kYX, RoutingAlgorithm::kXYYX};
  for (RoutingAlgorithm routing : routings) {
    NetworkConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.routing = routing;
    Network net(cfg);
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      const Router& router = net.router(n);
      for (int y = 0; y < cfg.height; ++y) {
        for (int x = 0; x < cfg.width; ++x) {
          const Coord dst{x, y};
          for (TrafficClass cls :
               {TrafficClass::kRequest, TrafficClass::kReply}) {
            EXPECT_EQ(router.RouteFor(cls, dst),
                      ComputeOutputPort(routing, cls, router.coord(), dst))
                << RoutingName(routing) << " node=" << n << " dst=(" << x
                << ',' << y << ')';
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gnoc
