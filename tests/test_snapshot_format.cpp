// Pins the snapshot wire format (DESIGN.md §10): the FNV-1a of the payload
// GpuSystem::Save writes after a short fixed run, for one configuration per
// optional component, and of a mid-search DSE checkpoint. Any change to a
// component's Transfer field list, field width or order moves a hash here.
// A deliberate layout change must bump kSnapshotFormatVersion and re-record
// these hashes in the same change.
//
// SnapshotValidationTest patches one index or enum field of a saved payload
// to a value no run can produce and requires the load to fail with a
// SerializeError naming the field (see also tests/test_buffer_channel.cpp).
// Offsets follow the layouts the hashes above pin.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "dse/search.hpp"
#include "dse/space.hpp"
#include "gpgpu/sm.hpp"
#include "noc/arbiter.hpp"
#include "noc/audit.hpp"
#include "noc/fabric.hpp"
#include "noc/ideal.hpp"
#include "noc/nic.hpp"
#include "noc/qos.hpp"
#include "noc/router.hpp"
#include "noc/trace.hpp"
#include "sim/experiment.hpp"
#include "sim/gpu_system.hpp"

namespace gnoc {
namespace {

/// FNV-1a of the GpuSystem payload after 100 warm-up cycles, a stats reset
/// and 200 measured cycles of BFS.
std::uint64_t PayloadHash(const GpuConfig& cfg) {
  GpuSystem gpu(cfg, FindWorkload("BFS"));
  for (Cycle c = 0; c < 100; ++c) gpu.Tick();
  gpu.ResetStats();
  for (Cycle c = 0; c < 200; ++c) gpu.Tick();
  Serializer s;
  gpu.Save(s);
  return Fnv1a64(s.bytes());
}

GpuConfig WithOverrides(
    const std::vector<std::pair<std::string, std::string>>& overrides) {
  Config c;
  for (const auto& [key, value] : overrides) c.Set(key, value);
  GpuConfig cfg = GpuConfig::Baseline();
  cfg.ApplyOverrides(c);
  return cfg;
}

DesignSpace SmallSpace() {
  DesignSpace space;
  space.base.width = 4;
  space.base.height = 4;
  space.base.num_mcs = 4;
  space.routings = {RoutingAlgorithm::kXY, RoutingAlgorithm::kYX};
  space.vc_policies = {VcPolicyKind::kSplit, VcPolicyKind::kFullMonopolize};
  space.vc_counts = {2, 4};
  space.vc_depths = {2, 4};
  return space;
}

/// An NSGA-II search on SmallSpace, preempted after its third committed
/// design, checkpointing into `dir`.
SearchOptions PreemptedSearch(const std::filesystem::path& dir,
                              int* committed) {
  SearchOptions opt;
  opt.lengths.warmup = 300;
  opt.lengths.measure = 1500;
  opt.objectives = {SearchObjective::kIpc, SearchObjective::kBufferArea};
  opt.population = 3;
  opt.max_evaluations = 6;
  opt.seed = 5;
  opt.checkpoint_dir = dir.string();
  opt.on_design = [committed](const EvaluatedDesign&, int, int) {
    ++*committed;
  };
  opt.should_stop = [committed] { return *committed >= 3; };
  return opt;
}

/// FNV-1a of the checkpoint payload of an NSGA-II search on a 4x4 mesh,
/// preempted after its third committed design: a partial archive plus the
/// pending batch.
std::uint64_t SearchCheckpointHash() {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "gnoc_snapshot_format_search";
  std::filesystem::remove_all(dir);
  const DesignSpace space = SmallSpace();
  const std::vector<WorkloadProfile> workloads = WorkloadSubset({"BFS"});
  int committed = 0;
  const SearchOptions opt = PreemptedSearch(dir, &committed);
  const ParetoResult partial = ParetoSearch(space, workloads, opt);
  EXPECT_FALSE(partial.completed);
  const std::string payload =
      ReadSnapshotFile((dir / "search.ckpt").string(),
                       SearchFingerprint(space, workloads, opt));
  std::filesystem::remove_all(dir);
  return Fnv1a64(payload);
}

TEST(SnapshotFormatTest, PayloadBytesArePinned) {
  EXPECT_EQ(kSnapshotFormatVersion, 5u);
  struct Pin {
    const char* name;
    GpuConfig cfg;
    std::uint64_t hash;
  };
  const std::vector<Pin> pins = {
      {"baseline mesh", GpuConfig::Baseline(), 0x959a8ad59f3e325cull},
      {"torus, dateline VCs",
       WithOverrides({{"topology", "torus"}, {"num_vcs", "4"}}),
       0xb372951b413716efull},
      {"dynamic + audit + telemetry + strict QoS",
       WithOverrides({{"vc_policy", "dynamic"},
                      {"num_vcs", "4"},
                      {"audit", "true"},
                      {"telemetry", "true"},
                      {"telemetry_interval", "50"},
                      {"qos", "strict"}}),
       0xc2cafaed4b70fe26ull},
      {"physical division", WithOverrides({{"division", "physical"}}),
       0xa9a95da9f41755a6ull},
      {"ideal NoC", WithOverrides({{"ideal_noc", "true"}}),
       0x96e9b3b4877178f7ull},
      {"record trace", WithOverrides({{"record_trace", "true"}}),
       0x0531c53e842a6143ull},
      {"real L1", WithOverrides({{"real_l1", "true"}}),
       0xc0369a3006223030ull},
      {"matrix arbiter", WithOverrides({{"arbiter", "matrix"}}),
       0x00f146d61881d4b6ull},
      {"WRR QoS", WithOverrides({{"qos", "wrr"}, {"num_vcs", "4"}}),
       0xaf3dd3cdf659c804ull},
  };
  for (const Pin& pin : pins) {
    const std::uint64_t got = PayloadHash(pin.cfg);
    EXPECT_EQ(got, pin.hash) << pin.name << ": 0x" << std::hex << got;
  }
  const std::uint64_t search = SearchCheckpointHash();
  EXPECT_EQ(search, 0x54aa370f460137baull)
      << "mid-search checkpoint: 0x" << std::hex << search;
}

// --- load-side range checks -------------------------------------------------

/// `payload` with the sizeof(T) bytes at `offset` overwritten by `value`,
/// little-endian.
template <typename T>
std::string Patch(std::string payload, std::size_t offset, T value) {
  const auto raw = static_cast<std::uint64_t>(value);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    payload[offset + i] = static_cast<char>((raw >> (8 * i)) & 0xFF);
  }
  return payload;
}

/// The SerializeError message of `load` on `payload`, "" when it loads.
template <typename LoadFn>
std::string LoadError(const std::string& payload, LoadFn&& load) {
  Deserializer d(payload);
  try {
    load(d);
  } catch (const SerializeError& e) {
    return e.what();
  }
  return "";
}

TEST(SnapshotValidationTest, RouterRejectsOutOfRangeVcState) {
  const RouterConfig cfg;  // 5 ports x 2 VCs, every VC empty
  Serializer s;
  Router(5, Coord{1, 1}, cfg).Save(s);
  const auto load = [&cfg](Deserializer& d) {
    Router(5, Coord{1, 1}, cfg).Load(d);
  };
  // Input VC 0: flit count u64 | route_valid | out_port | out_vc i32 |
  // eject | vc_half. Then 10 input VCs of 16 bytes and 10 output VCs of
  // 6 bytes precede the per-port VC boundaries.
  const std::string good = s.bytes();
  EXPECT_EQ(LoadError(good, load), "");
  EXPECT_EQ(LoadError(Patch(good, 9, std::uint8_t{5}), load),
            "snapshot router out_port 5 outside [0, 5)");
  EXPECT_EQ(LoadError(Patch(good, 10, VcId{2}), load),
            "snapshot router out_vc 2 outside [-1, 2)");
  EXPECT_EQ(LoadError(Patch(good, 10, VcId{-2}), load),
            "snapshot router out_vc -2 outside [-1, 2)");
  EXPECT_EQ(LoadError(Patch(good, 15, std::int8_t{2}), load),
            "snapshot router vc_half 2 outside [-1, 2)");
  EXPECT_EQ(LoadError(Patch(good, 160 + 60, VcId{3}), load),
            "snapshot router VC boundary 3 outside [0, 3)");
}

TEST(SnapshotValidationTest, ArbiterRejectsOutOfRangePointer) {
  Serializer s;
  RoundRobinArbiter(4).Save(s);
  const auto load = [](Deserializer& d) { RoundRobinArbiter(4).Load(d); };
  EXPECT_EQ(LoadError(s.bytes(), load), "");
  EXPECT_EQ(LoadError(Patch(s.bytes(), 0, std::uint64_t{4}), load),
            "snapshot arbiter pointer 4 outside [0, 4)");
}

TEST(SnapshotValidationTest, NicRejectsOutOfRangeBoundary) {
  NicConfig cfg;  // 2 VCs
  Serializer s;
  Nic(0, Coord{0, 0}, cfg).Save(s);
  const auto load = [&cfg](Deserializer& d) { Nic(0, Coord{0, 0}, cfg).Load(d); };
  // Two empty inject queues (16), two idle sends (20), two credit counts
  // (8) and the send pointer (8) precede the boundary.
  EXPECT_EQ(LoadError(s.bytes(), load), "");
  EXPECT_EQ(LoadError(Patch(s.bytes(), 52, VcId{3}), load),
            "snapshot NIC VC boundary 3 outside [0, 3)");
}

TEST(SnapshotValidationTest, SmRejectsOutOfRangeWarpState) {
  SingleNetworkFabric net([] {
    NetworkConfig c;
    c.width = 2;
    c.height = 2;
    return c;
  }());
  SmConfig cfg;
  cfg.warps_per_sm = 2;
  WorkloadProfile loads;
  loads.name = "miss";
  loads.mem_ratio = 1.0;
  loads.read_fraction = 1.0;
  loads.l1_miss_rate = 1.0;
  StreamingMultiprocessor sm(0, cfg, loads, &net, 1, Rng(1));
  sm.SetMcNodes({3});
  sm.Tick(0);  // warp 0 issues a load: one outstanding transaction
  ASSERT_EQ(sm.OutstandingReads(), 1);
  Serializer s;
  sm.Save(s);
  const auto load = [&](Deserializer& d) {
    StreamingMultiprocessor fresh(0, cfg, loads, &net, 1, Rng(1));
    fresh.Load(d);
  };
  // RNG (41) | warp count (8) | 2 warps of 26 bytes (blocked, next, ...) |
  // L1 flag | current warp i32 | reads, writes i32 | transaction count |
  // transaction 0: id u64, warp i32, issue cycle.
  const std::string good = s.bytes();
  EXPECT_EQ(LoadError(good, load), "");
  EXPECT_EQ(LoadError(Patch(good, 50, std::uint8_t{5}), load),
            "snapshot SM warp next instruction 5 outside [0, 5)");
  EXPECT_EQ(LoadError(Patch(good, 102, 2), load),
            "snapshot SM current warp 2 outside [0, 2)");
  EXPECT_EQ(LoadError(Patch(good, 130, 2), load),
            "snapshot SM transaction warp 2 outside [-1, 2)");
}

TEST(SnapshotValidationTest, EnumFieldsRejectUnknownValues) {
  Serializer flit;
  Save(flit, Flit{});
  const auto load_flit = [](Deserializer& d) {
    Flit f;
    Load(d, f);
  };
  EXPECT_EQ(LoadError(Patch(flit.bytes(), 8, std::uint8_t{4}), load_flit),
            "snapshot flit kind 4 outside [0, 4)");
  EXPECT_EQ(LoadError(Patch(flit.bytes(), 9, std::uint8_t{2}), load_flit),
            "snapshot flit class 2 outside [0, 2)");

  Serializer packet;
  Save(packet, Packet{});
  const auto load_packet = [](Deserializer& d) {
    Packet p;
    Load(d, p);
  };
  EXPECT_EQ(LoadError(Patch(packet.bytes(), 8, std::uint8_t{4}), load_packet),
            "snapshot packet type 4 outside [0, 4)");

  TraceWriter trace;
  trace.Append(TraceRecord{});
  Serializer traced;
  trace.Save(traced);
  const auto load_trace = [](Deserializer& d) { TraceWriter().Load(d); };
  EXPECT_EQ(LoadError(Patch(traced.bytes(), 24, std::uint8_t{9}), load_trace),
            "snapshot trace packet type 9 outside [0, 4)");

  AuditReport audit;
  audit.samples.push_back(AuditViolation{});
  Serializer audited;
  audit.Save(audited);
  const auto load_audit = [](Deserializer& d) { AuditReport().Load(d); };
  EXPECT_EQ(LoadError(Patch(audited.bytes(), 89, std::uint8_t{5}), load_audit),
            "snapshot audit invariant 5 outside [0, 5)");

  Serializer qos;
  QosReport{}.Save(qos);
  const auto load_qos = [](Deserializer& d) { QosReport().Load(d); };
  EXPECT_EQ(LoadError(Patch(qos.bytes(), 1, std::uint8_t{3}), load_qos),
            "snapshot QoS arbitration 3 outside [0, 3)");
}

TEST(SnapshotValidationTest, IdealFabricRejectsUnknownStalledNode) {
  IdealFabricConfig cfg;
  cfg.width = 4;
  cfg.height = 4;
  struct RefusingSink : PacketSink {
    bool Accept(const Packet&, Cycle) override { return false; }
  } sink;
  IdealFabric fabric(cfg);
  fabric.SetSink(15, &sink);
  Packet p;
  p.src = 0;
  p.dst = 15;
  ASSERT_TRUE(fabric.Inject(p));
  for (int c = 0; c < 40; ++c) fabric.Tick();
  Serializer s;
  fabric.Save(s);
  const auto load = [&cfg](Deserializer& d) { IdealFabric(cfg).Load(d); };
  // now | next seq | empty heap count | stalled count | node i32 | ...
  EXPECT_EQ(LoadError(s.bytes(), load), "");
  EXPECT_EQ(LoadError(Patch(s.bytes(), 32, NodeId{16}), load),
            "snapshot ideal fabric stalled node 16 outside [0, 16)");
}

TEST(SnapshotValidationTest, SearchCheckpointRejectsUnknownCoordinate) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "gnoc_snapshot_bad_coord";
  std::filesystem::remove_all(dir);
  const DesignSpace space = SmallSpace();
  const std::vector<WorkloadProfile> workloads = WorkloadSubset({"BFS"});
  int committed = 0;
  SearchOptions opt = PreemptedSearch(dir, &committed);
  ASSERT_FALSE(ParetoSearch(space, workloads, opt).completed);
  const std::string path = (dir / "search.ckpt").string();
  const std::uint64_t fingerprint = SearchFingerprint(space, workloads, opt);
  // layout u32 | RNG (41) | generation | evaluations | archive count |
  // design 0 coordinates (u16 each).
  const std::string payload = ReadSnapshotFile(path, fingerprint);
  WriteSnapshotFile(path, fingerprint,
                    Patch(payload, 69, std::uint16_t{0xFFFF}));
  opt.should_stop = nullptr;
  opt.resume = true;
  try {
    ParetoSearch(space, workloads, opt);
    ADD_FAILURE() << "corrupt coordinate loaded";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "snapshot search design coordinate 65535 outside [0, "),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gnoc
