// Google-benchmark microbenchmarks of the simulator's hot paths: arbiters
// (at 2, 4, 8 and 40 inputs), one router's Tick under VA-heavy and SA-heavy
// load, cache accesses and whole-network cycles. These are not
// paper figures; they document the simulator's own performance so users can
// size their sweeps.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpgpu/cache.hpp"
#include "gpgpu/workload.hpp"
#include "noc/arbiter.hpp"
#include "noc/network.hpp"
#include "noc/router.hpp"
#include "sim/gpu_system.hpp"

namespace {

using namespace gnoc;

/// Every input but one requests (all of them at 2 inputs).
std::uint64_t ArbiterRequests(std::size_t inputs) {
  const std::uint64_t all = inputs == 64 ? ~std::uint64_t{0}
                                         : (std::uint64_t{1} << inputs) - 1;
  return inputs > 2 ? all & ~std::uint64_t{2} : all;
}

void BM_RoundRobinArbiter(benchmark::State& state) {
  const auto inputs = static_cast<std::size_t>(state.range(0));
  RoundRobinArbiter arb(inputs);
  const std::uint64_t requests = ArbiterRequests(inputs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(arb.Arbitrate(requests));
  }
}
BENCHMARK(BM_RoundRobinArbiter)->Arg(2)->Arg(4)->Arg(8)->Arg(40);

void BM_MatrixArbiter(benchmark::State& state) {
  const auto inputs = static_cast<std::size_t>(state.range(0));
  MatrixArbiter arb(inputs);
  const std::uint64_t requests = ArbiterRequests(inputs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(arb.Arbitrate(requests));
  }
}
BENCHMARK(BM_MatrixArbiter)->Arg(2)->Arg(4)->Arg(8)->Arg(40);

/// A standalone router at the centre of a 3x3 mesh (4 VCs of depth 4,
/// split VC policy: requests on VCs 0-1, replies on 2-3) with its four
/// links wired to channels the benchmark drains by hand.
class LoneRouter {
 public:
  static constexpr std::array<Port, 4> kLinks = {Port::kNorth, Port::kEast,
                                                 Port::kSouth, Port::kWest};

  LoneRouter() : router_(4, Coord{1, 1}, Config()) {
    for (const Port p : kLinks) {
      router_.SetOutputChannel(p, &out_[PortIndex(p)]);
      router_.SetCreditReturnChannel(p, &credits_[PortIndex(p)]);
    }
    router_.SetCreditReturnChannel(Port::kLocal,
                                   &credits_[PortIndex(Port::kLocal)]);
  }

  /// The neighbour behind link `p` (XY routing sends its packets there).
  static Coord Neighbour(Port p) {
    switch (p) {
      case Port::kNorth: return Coord{1, 0};
      case Port::kEast: return Coord{2, 1};
      case Port::kSouth: return Coord{1, 2};
      default: return Coord{0, 1};
    }
  }

  /// Puts one flit of a never-ending packet to `dst` on input (`in`, `vc`);
  /// the VC's class follows the split policy.
  void Feed(Port in, VcId vc, FlitKind kind, Coord dst) {
    Flit f;
    f.packet_id = static_cast<PacketId>(PortIndex(in) * 8 + vc + 1);
    f.kind = kind;
    f.cls = vc < 2 ? TrafficClass::kRequest : TrafficClass::kReply;
    f.dst = dst.y * 3 + dst.x;
    f.dst_coord = dst;
    f.vc = vc;
    f.packet_size = 64;
    router_.AcceptFlit(in, f, now_);
  }

  void Tick() { router_.Tick(now_++); }

  /// Downstream consumes every flit that arrived: its credit comes back.
  void ReturnCredits() {
    for (const Port p : kLinks) {
      while (const auto flit = out_[PortIndex(p)].Pop(now_)) {
        router_.AcceptCredit(p, flit->vc);
      }
    }
  }

  /// Upstream refills every input VC that sent a flit with a body flit.
  void Refill() {
    for (int p = 0; p < kNumPorts; ++p) {
      const auto in = static_cast<Port>(p);
      while (const auto credit = credits_[PortIndex(in)].Pop(now_)) {
        Feed(in, credit->vc, FlitKind::kBody, dst_[p][credit->vc]);
      }
    }
  }

  Router router_;
  Cycle now_ = 0;
  std::array<std::array<Coord, 4>, kNumPorts> dst_{};

 private:
  static RouterConfig Config() {
    RouterConfig cfg;
    cfg.num_vcs = 4;
    cfg.vc_depth = 4;
    cfg.mesh_width = 3;
    cfg.mesh_height = 3;
    return cfg;
  }

  std::array<FlitChannel, kNumPorts> out_ = {
      FlitChannel(1), FlitChannel(1), FlitChannel(1), FlitChannel(1),
      FlitChannel(1)};
  std::array<CreditChannel, kNumPorts> credits_ = {
      CreditChannel(1), CreditChannel(1), CreditChannel(1), CreditChannel(1),
      CreditChannel(1)};
};

/// VA-heavy router tick: the four east output VCs are held by packets from
/// the west that never end, and 12 head flits on the local, north and south
/// inputs all request the east port. Every tick each requester wins VA
/// arbitration and fails: its whole range is allocated.
void BM_RouterTickVaBlocked(benchmark::State& state) {
  LoneRouter r;
  const Coord east = LoneRouter::Neighbour(Port::kEast);
  for (VcId v = 0; v < 4; ++v) r.Feed(Port::kWest, v, FlitKind::kHead, east);
  for (int i = 0; i < 4; ++i) r.Tick();  // west heads take every east VC
  for (const Port in : {Port::kLocal, Port::kNorth, Port::kSouth}) {
    for (VcId v = 0; v < 4; ++v) r.Feed(in, v, FlitKind::kHead, east);
  }
  for (auto _ : state) r.Tick();
  state.SetItemsProcessed(state.iterations() * 12);  // VA requests
}
BENCHMARK(BM_RouterTickVaBlocked);

/// SA-heavy router tick: 16 input VCs (local, north, south, west) each
/// stream a never-ending packet, four per output link, so every input
/// port nominates and every output port has four contenders each cycle.
/// Downstream credits and upstream refills are returned by hand, so the
/// flow is steady; items are flits forwarded.
void BM_RouterTickSaContended(benchmark::State& state) {
  LoneRouter r;
  const std::array<Port, 4> inputs = {Port::kLocal, Port::kNorth,
                                      Port::kSouth, Port::kWest};
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (VcId v = 0; v < 4; ++v) {
      const Port out = LoneRouter::kLinks[(i + static_cast<std::size_t>(v)) % 4];
      const Coord dst = LoneRouter::Neighbour(out);
      r.dst_[static_cast<std::size_t>(PortIndex(inputs[i]))]
            [static_cast<std::size_t>(v)] = dst;
      r.Feed(inputs[i], v, FlitKind::kHead, dst);
      for (int k = 1; k < 4; ++k) r.Feed(inputs[i], v, FlitKind::kBody, dst);
    }
  }
  const std::uint64_t before = r.router_.stats().flits_forwarded;
  for (auto _ : state) {
    r.ReturnCredits();
    r.Refill();
    r.Tick();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      r.router_.stats().flits_forwarded - before));
}
BENCHMARK(BM_RouterTickSaContended);

void BM_CacheAccess(benchmark::State& state) {
  SetAssocCache cache(CacheConfig{64 * 1024, 64, 8});
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Access(rng.NextBounded(1 << 20) * 64, false).hit);
  }
}
BENCHMARK(BM_CacheAccess);

void BM_RngNext(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

/// One idle network cycle (64 routers, no traffic): the simulator's floor.
void BM_NetworkCycleIdle(benchmark::State& state) {
  NetworkConfig cfg;
  Network net(cfg);
  for (auto _ : state) {
    net.Tick();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetworkCycleIdle);

/// The same idle 8x8 network under the SoA core: per-cycle cost is two
/// linear scans over the link due planes, one skip-rule check per router
/// and the 64 NIC ticks — no router is ticked until it holds flits.
void BM_NetworkCycleIdleSoa(benchmark::State& state) {
  NetworkConfig cfg;
  cfg.scheduling = SchedulingMode::kSoa;
  Network net(cfg);
  for (auto _ : state) {
    net.Tick();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetworkCycleIdleSoa);

/// One network cycle under sparse load: a single long-lived packet stream
/// crossing the mesh corner-to-corner keeps a handful of components busy
/// while the other ~60 routers idle — the common low-intensity regime of
/// the paper's latency-throughput sweeps.
template <SchedulingMode kMode>
void BM_NetworkCycleSparse(benchmark::State& state) {
  NetworkConfig cfg;
  cfg.scheduling = kMode;
  Network net(cfg);
  Cycle next_inject = 0;
  for (auto _ : state) {
    if (net.now() >= next_inject) {
      Packet p;
      p.src = 0;
      p.dst = net.num_nodes() - 1;
      p.type = PacketType::kReadRequest;
      p.num_flits = 2;
      net.Inject(p);
      next_inject = net.now() + 8;
    }
    net.Tick();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_NetworkCycleSparse<SchedulingMode::kFull>)
    ->Name("BM_NetworkCycleSparseFull");
BENCHMARK(BM_NetworkCycleSparse<SchedulingMode::kSoa>)
    ->Name("BM_NetworkCycleSparseSoa");

/// One loaded GPGPU cycle (56 SMs + 8 MCs + 64 routers, KMN workload).
void BM_GpuCycleLoaded(benchmark::State& state) {
  GpuConfig cfg = GpuConfig::Baseline();
  GpuSystem gpu(cfg, FindWorkload("KMN"));
  for (Cycle c = 0; c < 2000; ++c) gpu.Tick();  // reach steady state
  for (auto _ : state) {
    gpu.Tick();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_GpuCycleLoaded);

}  // namespace

// Custom main so the harness accepts the same json=<path> option as the
// figure drivers (mapped onto google-benchmark's JSON reporter) while
// still honoring native --benchmark_* flags.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  storage.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("json=", 0) == 0) {
      storage.push_back("--benchmark_out=" + arg.substr(5));
      storage.push_back("--benchmark_out_format=json");
    } else {
      storage.push_back(arg);
    }
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
