// Tests of the SoA core (scheduling=soa, DESIGN.md §14): full-vs-soa bit
// identity across routing x VC policy on a non-square mesh, topology, load
// and the GPU design space, snapshot round-trips through the plane
// rebuild, watchdog parity and the idle-cost floor.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/serialize.hpp"
#include "noc/audit.hpp"
#include "noc/network.hpp"
#include "noc/placement.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "noc/vc_policy.hpp"
#include "sim/experiment.hpp"
#include "sim/gpu_system.hpp"

namespace gnoc {
namespace {

// --- mode plumbing ---------------------------------------------------------

TEST(SoaModeTest, NamesRoundTrip) {
  EXPECT_STREQ(SchedulingModeName(SchedulingMode::kSoa), "soa");
  EXPECT_EQ(ParseSchedulingMode("soa"), SchedulingMode::kSoa);
  EXPECT_EQ(ParseSchedulingMode("SOA"), SchedulingMode::kSoa);
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

// kFull and kSoa must agree bit-for-bit — stats, audit counters and
// telemetry windows — for every routing x VC-policy combination on a
// non-square 8x4 mesh, where XY, YX and XY-YX routes differ in length and
// the busiest links are the long X rows.
TEST(SoaBitIdentityTest, FourWayOpenLoopMatrixAgrees) {
  const RoutingAlgorithm routings[] = {
      RoutingAlgorithm::kXY, RoutingAlgorithm::kYX, RoutingAlgorithm::kXYYX};
  const VcPolicyKind policies[] = {VcPolicyKind::kSplit,
                                   VcPolicyKind::kAsymmetric,
                                   VcPolicyKind::kDynamic};
  for (RoutingAlgorithm routing : routings) {
    for (VcPolicyKind policy : policies) {
      NetworkConfig cfg;
      cfg.width = 8;
      cfg.height = 4;
      cfg.num_vcs = 4;
      cfg.vc_depth = 4;
      cfg.routing = routing;
      cfg.vc_policy = policy;
      cfg.dynamic_epoch = 64;
      const std::string label =
          std::string(RoutingName(routing)) + "/" + VcPolicyName(policy);
      EXPECT_EQ(NetworkFingerprint(cfg, SchedulingMode::kFull, 0.1),
                NetworkFingerprint(cfg, SchedulingMode::kSoa, 0.1))
          << label;
    }
  }
}

// The equivalence must also hold on the non-mesh topologies: wrap links
// (dateline VC halves), concentration (multiple local ports per router)
// and circulant skip links all change the link planes' geometry.
TEST(SoaBitIdentityTest, TopologyMatrixMatchesFullMode) {
  const TopologyKind topologies[] = {TopologyKind::kTorus,
                                     TopologyKind::kCMesh,
                                     TopologyKind::kCirculant};
  for (TopologyKind topology : topologies) {
    NetworkConfig cfg;
    cfg.topology = topology;
    cfg.width = 4;
    cfg.height = 4;
    cfg.num_vcs = 4;
    cfg.vc_depth = 4;
    const std::string label = TopologyName(topology);
    EXPECT_EQ(NetworkFingerprint(cfg, SchedulingMode::kFull, 0.1),
              NetworkFingerprint(cfg, SchedulingMode::kSoa, 0.1))
        << label;
  }
}

// Near saturation almost every VC is occupied, so the eligibility planes
// are dense and the skip heuristics almost never fire — the opposite
// regime from the sparse matrix above.
TEST(SoaBitIdentityTest, HighLoadMatchesFullMode) {
  NetworkConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  cfg.num_vcs = 4;
  cfg.vc_depth = 4;
  EXPECT_EQ(NetworkFingerprint(cfg, SchedulingMode::kFull, 0.4),
            NetworkFingerprint(cfg, SchedulingMode::kSoa, 0.4));
}

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

// Every deadlock-safe VC policy x routing x placement combination of the
// full GPU model must produce identical results under the SoA core, with
// the auditor and telemetry enabled.
TEST(SoaBitIdentityTest, GpuDesignSpaceMatchesFullMode) {
  const VcPolicyKind policies[] = {
      VcPolicyKind::kSplit, VcPolicyKind::kFullMonopolize,
      VcPolicyKind::kPartialMonopolize, VcPolicyKind::kAsymmetric,
      VcPolicyKind::kDynamic};
  const RoutingAlgorithm routings[] = {
      RoutingAlgorithm::kXY, RoutingAlgorithm::kYX, RoutingAlgorithm::kXYYX};
  int compared = 0;
  for (McPlacement placement : kAllPlacements) {
    for (RoutingAlgorithm routing : routings) {
      for (VcPolicyKind policy : policies) {
        GpuConfig cfg = GpuConfig::Baseline();
        cfg.placement = placement;
        cfg.routing = routing;
        cfg.vc_policy = policy;
        cfg.audit = true;
        cfg.audit_interval = 8;
        cfg.telemetry = true;
        cfg.telemetry_interval = 100;
        const std::string label = std::string(McPlacementName(placement)) +
                                  "/" + RoutingName(routing) + "/" +
                                  VcPolicyName(policy);
        try {
          cfg.scheduling = SchedulingMode::kFull;
          GpuSystem full(cfg, FindWorkload("BFS"));
          const GpuRunStats a = full.Run(/*warmup=*/100, /*measure=*/300);
          cfg.scheduling = SchedulingMode::kSoa;
          GpuSystem soa(cfg, FindWorkload("BFS"));
          const GpuRunStats b = soa.Run(/*warmup=*/100, /*measure=*/300);
          ExpectRunsEqual(a, b, label);
          ++compared;
        } catch (const std::invalid_argument&) {
          // Deadlock-unsafe combination: correctly refused up front.
        }
      }
    }
  }
  EXPECT_GE(compared, 12) << "design space unexpectedly small";
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

}  // namespace
}  // namespace gnoc
