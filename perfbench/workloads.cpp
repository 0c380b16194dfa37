#include "workloads.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "assembly.hpp"
#include "common/json.hpp"
#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "dse/job.hpp"
#include "dse/server.hpp"
#include "sim/experiment.hpp"

namespace perfbench {

using namespace gnoc;
namespace fs = std::filesystem;

namespace {

// Constructions per cell before the measured phase. setup_s sums each
// cell's median construction time over these and the measured phase's.
constexpr int kSetupRepeats = 3;
// Cycles per sim.window span in traced runs.
constexpr Cycle kTraceWindow = 500;
// Threads for the `full`-backend reference pass, which runs after the
// measured phase.
constexpr unsigned kReferenceThreads = 4;
// JobServer settings of dse-server.
constexpr int kServerMaxJobs = 2;
constexpr int kServerPollMs = 5;
constexpr int kSweepJobs = 20;
// Derived seeds per torus8-ckpt profile.
constexpr int kTorusSeeds = 4;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Peak resident memory of this process image (VmHWM). Unlike
/// getrusage's ru_maxrss it does not carry over the parent's peak across
/// exec (run.py is a Python process).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double RealtimeSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double MtimeSeconds(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0.0;
  return static_cast<double>(st.st_mtim.tv_sec) +
         1e-9 * static_cast<double>(st.st_mtim.tv_nsec);
}

/// Flushes the filesystem holding `dir`, so that writeback of earlier
/// files does not land in the measured phase.
void SyncFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string Hex(std::uint64_t v) {
  std::ostringstream oss;
  oss << std::hex << std::setw(16) << std::setfill('0') << v;
  return oss.str();
}

std::string StatsBytes(const GpuRunStats& stats) {
  Serializer s;
  gnoc::Save(s, stats);
  return s.TakeBytes();
}

/// Packet-latency sum and count over both classes.
std::pair<double, double> LatencySumCount(const GpuRunStats& s) {
  double sum = 0.0;
  double count = 0.0;
  for (const RunningStats& r : s.network.packet_latency) {
    sum += r.sum();
    count += static_cast<double>(r.count());
  }
  return {sum, count};
}

// ---------------------------------------------------------------------------
// Workload definitions.

GpuConfig MeshBase(std::uint64_t seed) {
  GpuConfig c = GpuConfig::Baseline();
  c.scheduling = SchedulingMode::kSoa;
  c.seed = seed;
  return c;
}

/// fig8's four VC schemes plus strict QoS over full monopolizing with one
/// reserved VC per class (the qos_starvation contract; replies first).
std::vector<std::pair<std::string, GpuConfig>> MeshSchemes(std::uint64_t seed) {
  const GpuConfig base = MeshBase(seed);
  GpuConfig xy_mono = base;
  xy_mono.vc_policy = VcPolicyKind::kFullMonopolize;
  GpuConfig yx_mono = xy_mono;
  yx_mono.routing = RoutingAlgorithm::kYX;
  GpuConfig xyyx_pm = base;
  xyyx_pm.routing = RoutingAlgorithm::kXYYX;
  xyyx_pm.vc_policy = VcPolicyKind::kPartialMonopolize;
  GpuConfig qos = xy_mono;
  qos.num_vcs = 4;
  qos.qos.arbitration = QosArbitration::kStrict;
  for (int c = 0; c < kNumClasses; ++c) {
    TrafficClassSpec& spec = qos.qos.classes[static_cast<std::size_t>(c)];
    spec.reserved_vcs = 1;
    spec.priority = c == ClassIndex(TrafficClass::kReply) ? 2 : 1;
  }
  return {{"XY split", base},
          {"XY mono", xy_mono},
          {"YX mono", yx_mono},
          {"XY-YX partial", xyyx_pm},
          {"XY mono strict-QoS", qos}};
}

/// dse-server's backlog: kSweepJobs small sweep jobs plus one NSGA-II
/// search, all on a 4x4 mesh. Returns (job id, spec JSON) in submit order.
std::vector<std::pair<std::string, std::string>> JobSpecs(
    std::uint64_t seed, const std::string& scheduling) {
  static const char* const kProfiles[] = {
      "BFS", "KMN", "MUM", "PVR", "CP", "NQU", "STO", "LUD", "HOT", "SS"};
  static const char* const kSchemes[] = {
      R"({"label": "xy-split", "config": {}})",
      R"({"label": "yx-mono", "config": {"routing": "yx", "vc_policy": "mono"}})",
      R"({"label": "xy-mono", "config": {"vc_policy": "mono"}})",
      R"({"label": "xyyx-pm", "config": {"routing": "xy-yx", "vc_policy": "partial"}})"};
  std::ostringstream base;
  base << R"({"width": 4, "height": 4, "num_mcs": 4, "scheduling": ")"
       << scheduling << R"(", "seed": )" << seed << "}";

  std::vector<std::pair<std::string, std::string>> out;
  constexpr int kNumProfiles = sizeof(kProfiles) / sizeof(kProfiles[0]);
  for (int j = 0; j < kSweepJobs; ++j) {
    std::ostringstream spec;
    spec << R"({"type": "sweep", "workloads": [")"
         << kProfiles[(2 * j) % kNumProfiles] << R"(", ")"
         << kProfiles[(2 * j + 1) % kNumProfiles]
         << R"("], "warmup": 300, "measure": 1200, "threads": 1, "base": )"
         << base.str() << R"(, "schemes": [)" << kSchemes[j % 4] << ", "
         << kSchemes[(j + 1) % 4] << "]}";
    std::ostringstream id;
    id << "sweep-" << std::setw(2) << std::setfill('0') << j;
    out.emplace_back(id.str(), spec.str());
  }
  std::ostringstream search;
  search << R"({"type": "pareto-search", "workloads": ["BFS"], )"
         << R"("warmup": 300, "measure": 1200, "threads": 1, )"
         << R"("strategy": "nsga2", "objectives": ["ipc", "buffer_area"], )"
         << R"("population": 4, "max_evaluations": 8, "seed": )" << seed
         << R"(, "space": {"base": )" << base.str()
         << R"(, "placements": ["bottom"], "routings": ["xy", "yx"], )"
         << R"("vc_policies": ["split", "mono"], "topologies": ["mesh"], )"
         << R"("vc_counts": [2, 4], "vc_depths": [2, 4]}})";
  out.emplace_back("search", search.str());
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "mesh8-loaded", "mesh8-light", "torus8-ckpt", "dse-server"};
  return kNames;
}

SimPlan MakeSimPlan(const std::string& workload, std::uint64_t seed) {
  SimPlan plan;
  const auto add_grid = [&](const std::vector<std::pair<std::string,
                                                        GpuConfig>>& schemes,
                            const std::vector<std::string>& profiles) {
    for (const std::string& profile : profiles) {
      for (const auto& [label, config] : schemes) {
        plan.cells.push_back({label, profile, config});
      }
    }
  };
  if (workload == "mesh8-loaded" || workload == "mesh8-light") {
    add_grid(MeshSchemes(seed),
             workload == "mesh8-loaded"
                 ? std::vector<std::string>{"BFS", "KMN", "MUM", "PVR"}
                 : std::vector<std::string>{"CP", "NQU", "STO", "LUD"});
    plan.warmup = 500;
    plan.measure = 2000;
  } else if (workload == "torus8-ckpt") {
    // A saturated torus makes a single cell's results swing widely from
    // seed to seed, so each profile runs under kTorusSeeds seeds derived
    // from `seed`.
    std::vector<std::pair<std::string, GpuConfig>> schemes;
    for (int k = 0; k < kTorusSeeds; ++k) {
      GpuConfig torus = MeshBase(seed * kTorusSeeds + k);
      torus.topology = TopologyKind::kTorus;
      torus.num_vcs = 4;
      schemes.emplace_back("torus8 XY split #" + std::to_string(k), torus);
    }
    add_grid(schemes, {"BFS", "HOT", "CP"});
    plan.warmup = 500;
    plan.measure = 2000;
    plan.snapshot_every = 700;
  } else if (workload == "dse-server") {
    for (const auto& [id, text] : JobSpecs(seed, "soa")) {
      const JobSpec spec = JobSpec::Parse(text);
      if (spec.type != JobType::kSweep) continue;
      for (const std::string& profile : spec.workloads) {
        for (const SchemeSpec& scheme : spec.BuildSchemes()) {
          plan.cells.push_back({id + " " + scheme.label, profile,
                                scheme.config});
        }
      }
      plan.warmup = spec.lengths.warmup;
      plan.measure = spec.lengths.measure;
    }
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return plan;
}

namespace {

// ---------------------------------------------------------------------------
// Running one cell.

/// Advances `sys` to cycle `until` on GpuSystem::Run's schedule: statistics
/// reset when the clock reaches `warmup`, early stop on deadlock while
/// measuring. Calls `save` after each cycle that is a multiple of `every`
/// (when > 0) short of `until`.
template <class Sys, class TickFn, class SaveFn>
void Advance(Sys& sys, Cycle warmup, Cycle until, Cycle every, TickFn&& tick,
             SaveFn&& save) {
  while (sys.now() < until) {
    if (sys.now() == warmup) sys.ResetStats();
    tick();
    if (sys.now() > warmup && sys.fabric().Deadlocked()) return;
    if (every > 0 && sys.now() % every == 0 && sys.now() < until) save();
  }
}

struct CellRun {
  GpuRunStats stats;
  std::string bytes;  ///< serialized stats
  double construct_s = 0.0;
  double run_s = 0.0;  ///< everything after construction
  Cycle cycles = 0;    ///< cycles ticked, snapshot replay included
  /// The run resumed from its last snapshot finished identical (always
  /// true without snapshots).
  bool resume_identical = true;
};

CellRun RunCellUntraced(const CellSpec& cell, const SimPlan& plan) {
  const WorkloadProfile& profile = FindWorkload(cell.profile);
  const Cycle total = plan.warmup + plan.measure;
  CellRun r;
  const double t0 = NowSeconds();
  GpuSystem sys(cell.config, profile);
  const double t1 = NowSeconds();
  std::string snapshot;
  Advance(sys, plan.warmup, total, plan.snapshot_every, [&] { sys.Tick(); },
          [&] {
            Serializer s;
            sys.Save(s);
            snapshot = s.TakeBytes();
          });
  r.stats = sys.Measure();
  r.bytes = StatsBytes(r.stats);
  r.cycles = sys.now();
  if (!snapshot.empty()) {
    GpuSystem resumed(cell.config, profile);
    Deserializer d(snapshot);
    resumed.Load(d);
    d.Finish();
    const Cycle from = resumed.now();
    Advance(resumed, plan.warmup, total, 0, [&] { resumed.Tick(); }, [] {});
    r.cycles += resumed.now() - from;
    r.resume_identical = StatsBytes(resumed.Measure()) == r.bytes;
  }
  r.construct_s = t1 - t0;
  r.run_s = NowSeconds() - t1;
  return r;
}

/// Per-layer host times and simulated counts pooled over traced cells.
struct LayerTotals {
  TickSeconds tick;            ///< every cycle of the uninterrupted runs
  double noc_measure_s = 0.0;  ///< noc tick time in measured cycles
  double cycles = 0.0;         ///< cycles of the uninterrupted runs
  double measured_cycles = 0.0;
  double flits_forwarded = 0.0, sa_stalls = 0.0, va_failures = 0.0;
  double busy_router_cycles = 0.0, router_cycles = 0.0;
  double buffered_flit_cycles = 0.0;
  double inject_stall_cycles = 0.0, nic_cycles = 0.0;
  double tick_steps = 0.0, tick_step_cycles = 0.0;
  double sm_issue_stalls = 0.0, sm_no_ready = 0.0, sm_cycles = 0.0;
  double l2_hits = 0.0, l2_misses = 0.0;
  double row_hits = 0.0, dram_accesses = 0.0;
  double read_latency_sum = 0.0, read_latency_count = 0.0;
  std::vector<double> construct_s, save_s, load_s, snapshot_bytes;
};

void CollectCounts(const OutsideInSystem& sys, const GpuRunStats& stats,
                   LayerTotals& acc) {
  const Fabric& fabric = sys.fabric();
  const double cycles = static_cast<double>(stats.cycles);
  for (int n = 0; n < fabric.num_networks(); ++n) {
    const Network& net =
        fabric.net(n == 0 ? TrafficClass::kRequest : TrafficClass::kReply);
    for (int r = 0; r < net.num_routers(); ++r) {
      const RouterStats& rs = net.router(static_cast<NodeId>(r)).stats();
      acc.flits_forwarded += static_cast<double>(rs.flits_forwarded);
      acc.sa_stalls += static_cast<double>(rs.sa_stalls);
      acc.va_failures += static_cast<double>(rs.va_failures);
      acc.busy_router_cycles += static_cast<double>(rs.busy_cycles);
      acc.buffered_flit_cycles += static_cast<double>(rs.buffered_flit_cycles);
    }
    acc.router_cycles += net.num_routers() * cycles;
    for (int t = 0; t < net.num_nodes(); ++t) {
      acc.inject_stall_cycles += static_cast<double>(
          net.nic(static_cast<NodeId>(t)).stats().inject_stall_cycles);
    }
    acc.nic_cycles += net.num_nodes() * cycles;
    acc.tick_steps += static_cast<double>(net.TickSteps());
    acc.tick_step_cycles += static_cast<double>(net.now());
  }
  for (const auto& sm : sys.sms()) {
    acc.sm_issue_stalls += static_cast<double>(sm->stats().issue_stalls);
    acc.sm_no_ready += static_cast<double>(sm->stats().no_ready_warp);
    acc.read_latency_sum += sm->stats().read_latency.sum();
    acc.read_latency_count +=
        static_cast<double>(sm->stats().read_latency.count());
  }
  acc.sm_cycles += static_cast<double>(sys.sms().size()) * cycles;
  for (const auto& mc : sys.mcs()) {
    acc.l2_hits += static_cast<double>(mc->stats().l2_read_hits);
    acc.l2_misses += static_cast<double>(mc->stats().l2_read_misses);
    acc.row_hits += static_cast<double>(mc->dram_stats().row_hits);
    acc.dram_accesses += static_cast<double>(mc->dram_stats().accesses);
  }
  acc.measured_cycles += cycles;
}

/// RunCellUntraced through OutsideInSystem, with spans: one `cell` root per
/// cell holding sim.construct, sim.window and common.serialize spans.
CellRun RunCellTraced(const CellSpec& cell, const SimPlan& plan,
                      Tracer& tracer, int parent, LayerTotals& acc) {
  const WorkloadProfile& profile = FindWorkload(cell.profile);
  const std::string label = cell.label();
  const Cycle total = plan.warmup + plan.measure;
  ScopedSpan cell_span(tracer, "cell", "sim", label, parent);
  const int root = cell_span.index();
  const auto build = [&](double* seconds) {
    ScopedSpan span(tracer, "sim.construct", "sim", label, root);
    const double t0 = NowSeconds();
    auto sys = std::make_unique<OutsideInSystem>(cell.config, profile, tracer,
                                                 label, span.index());
    *seconds = NowSeconds() - t0;
    return sys;
  };

  CellRun r;
  std::unique_ptr<OutsideInSystem> sys = build(&r.construct_s);
  acc.construct_s.push_back(r.construct_s);
  const double t1 = NowSeconds();
  std::string snapshot;
  {
    WindowedTicker warm(*sys, tracer, label, root, kTraceWindow);
    WindowedTicker meas(*sys, tracer, label, root, kTraceWindow);
    Advance(
        *sys, plan.warmup, total, plan.snapshot_every,
        [&] {
          if (sys->now() < plan.warmup) {
            warm.Tick();
          } else {
            warm.Flush();
            meas.Tick();
          }
        },
        [&] {
          warm.Flush();
          meas.Flush();
          ScopedSpan span(tracer, "common.serialize.save", "common", label,
                          root);
          const double s0 = NowSeconds();
          Serializer s;
          sys->Save(s);
          snapshot = s.TakeBytes();
          acc.save_s.push_back(NowSeconds() - s0);
          acc.snapshot_bytes.push_back(static_cast<double>(snapshot.size()));
        });
    warm.Flush();
    meas.Flush();
    for (const TickSeconds* t : {&warm.total(), &meas.total()}) {
      acc.tick.sm += t->sm;
      acc.tick.mc += t->mc;
      acc.tick.noc += t->noc;
    }
    acc.noc_measure_s += meas.total().noc;
  }
  {
    ScopedSpan span(tracer, "sim.measure", "sim", label, root);
    r.stats = sys->Measure();
  }
  r.bytes = StatsBytes(r.stats);
  r.cycles = sys->now();
  acc.cycles += static_cast<double>(sys->now());
  CollectCounts(*sys, r.stats, acc);

  if (!snapshot.empty()) {
    double construct_s = 0.0;
    std::unique_ptr<OutsideInSystem> resumed = build(&construct_s);
    {
      ScopedSpan span(tracer, "common.serialize.load", "common", label, root);
      const double l0 = NowSeconds();
      Deserializer d(snapshot);
      resumed->Load(d);
      d.Finish();
      acc.load_s.push_back(NowSeconds() - l0);
    }
    const Cycle from = resumed->now();
    {
      WindowedTicker replay(*resumed, tracer, label, root, kTraceWindow);
      Advance(*resumed, plan.warmup, total, 0, [&] { replay.Tick(); }, [] {});
    }
    r.cycles += resumed->now() - from;
    ScopedSpan span(tracer, "sim.measure", "sim", label, root);
    r.resume_identical = StatsBytes(resumed->Measure()) == r.bytes;
  }
  r.run_s = NowSeconds() - t1;
  return r;
}

// ---------------------------------------------------------------------------
// Reference results.

/// The per-cell values the reference check compares: the named headline
/// fields plus an FNV-1a hash of the whole serialized GpuRunStats.
struct RefRow {
  double ipc = 0.0;
  std::uint64_t cycles = 0, instructions = 0, request_flits = 0,
                reply_flits = 0;
  double request_latency_sum = 0.0, reply_latency_sum = 0.0;
  std::uint64_t stats_fnv = 0;
  bool operator==(const RefRow&) const = default;
};

RefRow RowOf(const GpuRunStats& s, const std::string& bytes) {
  RefRow row;
  row.ipc = s.ipc;
  row.cycles = s.cycles;
  row.instructions = s.instructions;
  row.request_flits = s.request_flits;
  row.reply_flits = s.reply_flits;
  row.request_latency_sum =
      s.network.packet_latency[ClassIndex(TrafficClass::kRequest)].sum();
  row.reply_latency_sum =
      s.network.packet_latency[ClassIndex(TrafficClass::kReply)].sum();
  row.stats_fnv = Fnv1a64(bytes);
  return row;
}

/// What the benchmark keeps of one cell's runs: the first run's statistics
/// and, per run, its host times and whether it reproduced the first run.
struct CellSamples {
  std::optional<GpuRunStats> first;
  RefRow row;  ///< of `first`
  Cycle cycles = 0;
  std::vector<double> run_s, cell_s;
  std::uint64_t runs = 0;
  /// Runs that deadlocked, resumed differently or differ from `first`.
  std::uint64_t bad = 0;

  void Add(const CellRun& r) {
    const RefRow run_row = RowOf(r.stats, r.bytes);
    if (!first) {
      first = r.stats;
      row = run_row;
      cycles = r.cycles;
    }
    ++runs;
    if (r.stats.deadlocked || !r.resume_identical || run_row != row) ++bad;
    run_s.push_back(r.run_s);
    cell_s.push_back(r.construct_s + r.run_s);
  }
};

/// Host-time estimates over a workload's cells, from each cell's fastest
/// run. Other tenants of a shared host only ever slow a run, in phases of
/// tens of seconds; on a 4-core sandbox the fastest run per cell varied
/// about a third as much from run to run as the median run did.
struct CellTimes {
  double cycles_per_s = 0.0;  ///< summed cycles over summed run seconds
  double cell_p50_s = 0.0;    ///< median over cells of construct + run
};

CellTimes EstimateTimes(const std::vector<CellSamples>& cells) {
  double cycles = 0.0, run_s = 0.0;
  std::vector<double> cell_s;
  for (const CellSamples& c : cells) {
    if (c.runs == 0) continue;
    cycles += static_cast<double>(c.cycles);
    run_s += Min(c.run_s);
    cell_s.push_back(Min(c.cell_s));
  }
  return {Ratio(cycles, run_s), Median(cell_s)};
}

std::string FormatDouble(double v) {
  std::ostringstream oss;
  oss << std::setprecision(17) << v;
  return oss.str();
}

/// Reference file: '#' comment lines, then one tab-separated line per key.
std::map<std::string, std::vector<std::string>> ReadReferenceFile(
    const std::string& path) {
  std::map<std::string, std::vector<std::string>> rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields;
    std::istringstream ls(line);
    std::string f;
    while (std::getline(ls, f, '\t')) fields.push_back(f);
    if (fields.size() >= 2) {
      const std::string key = fields.front();
      fields.erase(fields.begin());
      rows[key] = fields;
    }
  }
  return rows;
}

std::optional<RefRow> ParseRefRow(const std::vector<std::string>& f) {
  if (f.size() != 8) return std::nullopt;
  try {
    RefRow row;
    row.ipc = std::stod(f[0]);
    row.cycles = std::stoull(f[1]);
    row.instructions = std::stoull(f[2]);
    row.request_flits = std::stoull(f[3]);
    row.reply_flits = std::stoull(f[4]);
    row.request_latency_sum = std::stod(f[5]);
    row.reply_latency_sum = std::stod(f[6]);
    row.stats_fnv = std::stoull(f[7], nullptr, 16);
    return row;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::string RefRowLine(const std::string& key, const RefRow& r) {
  std::ostringstream oss;
  oss << key << '\t' << FormatDouble(r.ipc) << '\t' << r.cycles << '\t'
      << r.instructions << '\t' << r.request_flits << '\t' << r.reply_flits
      << '\t' << FormatDouble(r.request_latency_sum) << '\t'
      << FormatDouble(r.reply_latency_sum) << '\t' << Hex(r.stats_fnv);
  return oss.str();
}

/// Runs `fn(i)` for i in [0, n) on up to kReferenceThreads threads.
template <class Fn>
void ParallelFor(std::size_t n, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) fn(i);
  };
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t count = std::min<std::size_t>(
      n, std::min(kReferenceThreads, hw));
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < count; ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
}

/// The cell rows of `plan` run through GpuSystem::Run on the `full`
/// backend (nullopt where a cell throws).
std::vector<std::optional<RefRow>> FullBackendRows(const SimPlan& plan) {
  std::vector<std::optional<RefRow>> rows(plan.cells.size());
  ParallelFor(plan.cells.size(), [&](std::size_t i) {
    try {
      GpuConfig config = plan.cells[i].config;
      config.scheduling = SchedulingMode::kFull;
      GpuSystem sys(config, FindWorkload(plan.cells[i].profile));
      const GpuRunStats stats = sys.Run(plan.warmup, plan.measure);
      rows[i] = RowOf(stats, StatsBytes(stats));
    } catch (const std::exception&) {
    }
  });
  return rows;
}

/// Expected rows for `plan` at `seed`: the committed ones when `seed` is
/// the reference seed and the file covers every cell, else `full` runs.
std::vector<std::optional<RefRow>> ExpectedRows(const SimPlan& plan,
                                                const RunOptions& o,
                                                std::string* source) {
  if (o.seed == kReferenceSeed) {
    const auto file =
        ReadReferenceFile(o.reference_dir + "/" + o.workload + ".tsv");
    std::vector<std::optional<RefRow>> rows;
    for (const CellSpec& cell : plan.cells) {
      const auto it = file.find(cell.label());
      if (it == file.end()) break;
      rows.push_back(ParseRefRow(it->second));
    }
    if (rows.size() == plan.cells.size()) {
      *source = "committed reference (seed " +
                std::to_string(kReferenceSeed) + ")";
      return rows;
    }
  }
  *source = "full backend";
  return FullBackendRows(plan);
}

// ---------------------------------------------------------------------------
// Simulation workloads (mesh8-loaded, mesh8-light, torus8-ckpt).

/// Construction host seconds per cell of a plan.
using SetupSamples = std::vector<std::vector<double>>;

/// Constructs every cell's system once, recording the time taken.
void SampleSetup(const SimPlan& plan, SetupSamples& samples) {
  samples.resize(plan.cells.size());
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const double t0 = NowSeconds();
    GpuSystem sys(plan.cells[i].config, FindWorkload(plan.cells[i].profile));
    samples[i].push_back(NowSeconds() - t0);
  }
}

/// setup_s: the sum over cells of each cell's median construction time.
double SetupSeconds(const SetupSamples& samples) {
  double total = 0.0;
  for (const std::vector<double>& s : samples) total += Median(s);
  return total;
}

/// The modelled design's own results over the cells' first runs: geometric
/// mean IPC and packet latency pooled over both classes.
void AddModelMetrics(const std::vector<CellSamples>& cells,
                     std::map<std::string, double>& v) {
  std::vector<double> ipcs;
  double latency_sum = 0.0, latency_count = 0.0;
  for (const CellSamples& c : cells) {
    if (!c.first) continue;
    ipcs.push_back(c.first->ipc);
    const auto [sum, count] = LatencySumCount(*c.first);
    latency_sum += sum;
    latency_count += count;
  }
  v["ipc_geomean"] = GeometricMean(ipcs);
  v["latency_mean_cycles"] = Ratio(latency_sum, latency_count);
}

/// Checks every run of every cell against its expected row; returns the
/// number of failed runs and notes each failing cell.
std::uint64_t CheckRuns(const SimPlan& plan,
                        const std::vector<CellSamples>& cells,
                        const std::vector<std::optional<RefRow>>& expected,
                        std::vector<std::string>& notes) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const CellSamples& c = cells[i];
    const bool first_ok = c.first && expected[i] && c.row == *expected[i];
    const std::uint64_t bad = first_ok ? c.bad : c.runs;
    if (bad > 0) {
      notes.push_back("FAILED " + plan.cells[i].label() + ": " +
                      std::to_string(bad) + " of " + std::to_string(c.runs) +
                      " runs");
    }
    failed += bad;
  }
  return failed;
}

RunResult RunSimUntraced(const RunOptions& o) {
  const SimPlan plan = MakeSimPlan(o.workload, o.seed);
  RunResult result;
  SetupSamples setup;
  for (int r = 0; r < kSetupRepeats; ++r) SampleSetup(plan, setup);

  // Measured phase: whole passes over the cells until the time is up, so
  // every cell has the same number of samples.
  std::vector<CellSamples> cells(plan.cells.size());
  std::vector<std::string> errors;
  const double start = NowSeconds();
  int passes = 0;
  do {
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
      try {
        const CellRun run = RunCellUntraced(plan.cells[i], plan);
        setup[i].push_back(run.construct_s);
        cells[i].Add(run);
      } catch (const std::exception& e) {
        errors.push_back(plan.cells[i].label() + ": " + e.what());
      }
    }
    ++passes;
  } while (NowSeconds() - start < o.seconds);
  const double rss_mb = PeakRssMb();

  std::string source;
  const auto expected = ExpectedRows(plan, o, &source);
  for (const CellSamples& c : cells) result.attempted += c.runs;
  result.attempted += errors.size();
  result.failed = CheckRuns(plan, cells, expected, result.notes) +
                  errors.size();
  for (const std::string& e : errors) result.notes.push_back("ERROR " + e);
  result.notes.push_back("reference: " + source + "; " +
                         std::to_string(plan.cells.size()) + " cells x " +
                         std::to_string(passes) + " passes");

  const CellTimes times = EstimateTimes(cells);
  result.metrics = {
      {"sim_cycles_per_s", times.cycles_per_s, "1/s"},
      {"setup_s", SetupSeconds(setup), "s"},
      {"op_p50_s", times.cell_p50_s, "s"},
      {"max_rss_mb", rss_mb, "MB"},
  };
  std::map<std::string, double> model;
  AddModelMetrics(cells, model);
  result.aliases = {
      {"cell_p50_s", times.cell_p50_s, "s"},
      {"ipc_geomean", model["ipc_geomean"], "instr/cycle"},
      {"latency_mean_cycles", model["latency_mean_cycles"], "cycles"}};
  return result;
}

// Per-layer metric names in BENCHMARK.json order; every traced run reports
// all of them (0 where the workload does not exercise the layer).
const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"ipc_geomean", "instr/cycle"},
      {"latency_mean_cycles", "cycles"},
      {"noc.ns_per_flit", "ns"},
      {"noc.sa_grant_ratio", "ratio"},
      {"noc.va_failures_per_flit", "ratio"},
      {"noc.router_busy_fraction", "ratio"},
      {"noc.buffered_flits_mean", "flits"},
      {"noc.ns_per_cycle", "ns"},
      {"noc.tick_steps_per_cycle", "count"},
      {"noc.full_ns_per_cycle", "ns"},
      {"noc.nic.inject_stall_fraction", "ratio"},
      {"gpgpu.sm.ns_per_cycle", "ns"},
      {"gpgpu.sm.issue_stall_fraction", "ratio"},
      {"gpgpu.sm.no_ready_warp_fraction", "ratio"},
      {"gpgpu.mc.ns_per_cycle", "ns"},
      {"gpgpu.l2.miss_rate", "ratio"},
      {"gpgpu.dram.row_hit_rate", "ratio"},
      {"gpgpu.sm.read_latency_mean_cycles", "cycles"},
      {"sim.construct_ms", "ms"},
      {"sim.report.write_json_ms", "ms"},
      {"common.serialize.save_ms_p50", "ms"},
      {"common.serialize.load_ms_p50", "ms"},
      {"common.serialize.snapshot_bytes", "bytes"},
      {"dse.spec_parse_us", "us"},
      {"dse.runjob_s_p50", "s"},
      {"dse.server_overhead_s", "s"},
      {"trace_overhead_ratio", "ratio"},
      {"noc.self_s", "s"},
      {"gpgpu.self_s", "s"},
      {"sim.self_s", "s"},
      {"common.self_s", "s"},
      {"dse.self_s", "s"},
      {"trace.uncovered_s", "s"},
      {"trace.wall_s", "s"},
  };
  return kNames;
}

/// Fills `result.metrics` with every per-layer name, taking values from
/// `values` (missing names report 0).
void SetPerLayer(RunResult& result, const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : PerLayerNames()) {
    const auto it = values.find(name);
    result.metrics.push_back({name, it == values.end() ? 0.0 : it->second,
                              unit});
  }
}

/// Adds the self-time accounting of `tracer`: the traced wall time (its
/// root `pass` spans), each layer's self time, and the rest of the wall
/// time, which no layer span covers (the driver's own loop).
void AddSelfTimes(const Tracer& tracer, std::map<std::string, double>& values) {
  const double wall = tracer.RootSeconds();
  const std::map<std::string, double> self = tracer.SelfSecondsByLayer();
  double covered = 0.0;
  for (const char* layer : {"noc", "gpgpu", "sim", "common", "dse"}) {
    const auto it = self.find(layer);
    const double s = it == self.end() ? 0.0 : it->second;
    values[std::string(layer) + ".self_s"] = s;
    covered += s;
  }
  values["trace.uncovered_s"] = wall - covered;
  values["trace.wall_s"] = wall;
}

std::map<std::string, std::string> Provenance(const RunOptions& o);

/// The traced run over a SimPlan's cells. Each pass runs every cell
/// untraced (GpuSystem) and then traced (OutsideInSystem); the two must
/// agree bit for bit, and both count as attempted operations.
class TracedCells {
 public:
  explicit TracedCells(SimPlan plan)
      : plan_(std::move(plan)),
        untraced_(plan_.cells.size()),
        samples_(plan_.cells.size()) {}

  /// Runs every cell through GpuSystem; returns the host seconds taken.
  double RunUntraced() {
    const double t0 = NowSeconds();
    for (std::size_t i = 0; i < plan_.cells.size(); ++i) {
      untraced_[i].reset();
      try {
        untraced_[i] = RunCellUntraced(plan_.cells[i], plan_);
      } catch (const std::exception& e) {
        errors_.push_back(plan_.cells[i].label() + ": " + e.what());
      }
    }
    return NowSeconds() - t0;
  }

  /// Runs every cell through OutsideInSystem with spans under `parent`,
  /// compares each with the preceding RunUntraced, and (when `report`)
  /// times SweepResult::WriteJson over the pass's cells. Returns the host
  /// seconds taken.
  double RunTraced(Tracer& tracer, int parent, const std::string& label,
                   bool report) {
    const double t0 = NowSeconds();
    std::vector<std::pair<const CellSpec*, GpuRunStats>> pass_stats;
    for (std::size_t i = 0; i < plan_.cells.size(); ++i) {
      try {
        CellRun r = RunCellTraced(plan_.cells[i], plan_, tracer, parent, acc_);
        if (report) pass_stats.emplace_back(&plan_.cells[i], r.stats);
        if (untraced_[i] && untraced_[i]->bytes == r.bytes) {
          samples_[i].Add(r);
        } else {
          ++mismatches_;
          notes_.push_back("FAILED traced != untraced: " +
                           plan_.cells[i].label());
        }
      } catch (const std::exception& e) {
        errors_.push_back(plan_.cells[i].label() + ": " + e.what());
      }
      if (untraced_[i]) samples_[i].Add(*untraced_[i]);
      untraced_[i].reset();
    }
    if (report) {
      std::vector<std::string> schemes, profiles;
      for (const auto& [cell, stats] : pass_stats) {
        if (std::find(schemes.begin(), schemes.end(), cell->scheme) ==
            schemes.end()) {
          schemes.push_back(cell->scheme);
        }
        if (std::find(profiles.begin(), profiles.end(), cell->profile) ==
            profiles.end()) {
          profiles.push_back(cell->profile);
        }
      }
      SweepResult sweep(schemes, profiles);
      for (const auto& [cell, stats] : pass_stats) {
        sweep.Set(cell->scheme, cell->profile, stats);
      }
      ScopedSpan span(tracer, "sim.report.write_json", "sim", label, parent);
      const double j0 = NowSeconds();
      std::ostringstream json;
      sweep.WriteJson(json);
      write_json_ms_.push_back(1e3 * (NowSeconds() - j0));
    }
    return NowSeconds() - t0;
  }

  /// Runs the cells on the `full` reference core, timed by layer without
  /// spans, and returns their reference rows.
  std::vector<std::optional<RefRow>> RunFull() {
    Tracer off(false);
    std::vector<std::optional<RefRow>> rows(plan_.cells.size());
    SimPlan no_snapshots = plan_;
    no_snapshots.snapshot_every = 0;
    for (std::size_t i = 0; i < plan_.cells.size(); ++i) {
      CellSpec cell = plan_.cells[i];
      cell.config.scheduling = SchedulingMode::kFull;
      try {
        const CellRun r = RunCellTraced(cell, no_snapshots, off, -1, full_acc_);
        rows[i] = RowOf(r.stats, r.bytes);
      } catch (const std::exception& e) {
        errors_.push_back(cell.label() + " (full): " + e.what());
      }
    }
    return rows;
  }

  /// Adds attempted/failed counts and notes against `expected` rows.
  void Check(const std::vector<std::optional<RefRow>>& expected,
             RunResult& result) const {
    for (const CellSamples& c : samples_) result.attempted += c.runs;
    result.attempted += mismatches_ + errors_.size();
    result.failed += CheckRuns(plan_, samples_, expected, result.notes) +
                     mismatches_ + errors_.size();
    result.notes.insert(result.notes.end(), notes_.begin(), notes_.end());
    for (const std::string& e : errors_) result.notes.push_back("ERROR " + e);
  }

  /// The noc / gpgpu / sim / common per-layer metrics.
  void AddMetrics(std::map<std::string, double>& v) const {
    const LayerTotals& a = acc_;
    const double ns = 1e9;
    v["noc.ns_per_flit"] = ns * Ratio(a.noc_measure_s, a.flits_forwarded);
    v["noc.sa_grant_ratio"] =
        Ratio(a.flits_forwarded, a.flits_forwarded + a.sa_stalls);
    v["noc.va_failures_per_flit"] = Ratio(a.va_failures, a.flits_forwarded);
    v["noc.router_busy_fraction"] =
        Ratio(a.busy_router_cycles, a.router_cycles);
    v["noc.buffered_flits_mean"] =
        Ratio(a.buffered_flit_cycles, a.measured_cycles);
    v["noc.ns_per_cycle"] = ns * Ratio(a.tick.noc, a.cycles);
    v["noc.tick_steps_per_cycle"] = Ratio(a.tick_steps, a.tick_step_cycles);
    v["noc.full_ns_per_cycle"] =
        ns * Ratio(full_acc_.tick.noc, full_acc_.cycles);
    v["noc.nic.inject_stall_fraction"] =
        Ratio(a.inject_stall_cycles, a.nic_cycles);
    v["gpgpu.sm.ns_per_cycle"] = ns * Ratio(a.tick.sm, a.cycles);
    v["gpgpu.sm.issue_stall_fraction"] = Ratio(a.sm_issue_stalls, a.sm_cycles);
    v["gpgpu.sm.no_ready_warp_fraction"] = Ratio(a.sm_no_ready, a.sm_cycles);
    v["gpgpu.mc.ns_per_cycle"] = ns * Ratio(a.tick.mc, a.cycles);
    v["gpgpu.l2.miss_rate"] = Ratio(a.l2_misses, a.l2_hits + a.l2_misses);
    v["gpgpu.dram.row_hit_rate"] = Ratio(a.row_hits, a.dram_accesses);
    v["gpgpu.sm.read_latency_mean_cycles"] =
        Ratio(a.read_latency_sum, a.read_latency_count);
    v["sim.construct_ms"] = 1e3 * Median(a.construct_s);
    v["sim.report.write_json_ms"] = Median(write_json_ms_);
    v["common.serialize.save_ms_p50"] = 1e3 * Median(a.save_s);
    v["common.serialize.load_ms_p50"] = 1e3 * Median(a.load_s);
    v["common.serialize.snapshot_bytes"] = Median(a.snapshot_bytes);
    AddModelMetrics(samples_, v);
  }

  const SimPlan& plan() const { return plan_; }

 private:
  SimPlan plan_;
  std::vector<std::optional<CellRun>> untraced_;
  std::vector<CellSamples> samples_;
  LayerTotals acc_, full_acc_;
  std::vector<double> write_json_ms_;
  std::vector<std::string> errors_, notes_;
  std::uint64_t mismatches_ = 0;
};

std::string WriteTrace(const Tracer& tracer, const RunOptions& o) {
  const std::string path = o.out_dir + "/trace-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".json";
  tracer.WriteChromeTrace(path, Provenance(o));
  return path;
}

RunResult RunSimTraced(const RunOptions& o) {
  TracedCells cells(MakeSimPlan(o.workload, o.seed));
  RunResult result;
  Tracer tracer(true);
  std::vector<double> untraced_s, traced_s;
  const double start = NowSeconds();
  int pass = 0;
  do {
    untraced_s.push_back(cells.RunUntraced());
    const std::string label = "pass " + std::to_string(pass++);
    ScopedSpan span(tracer, "pass", "bench", label, -1);
    traced_s.push_back(cells.RunTraced(tracer, span.index(), label, true));
  } while (NowSeconds() - start < o.seconds);

  const auto full_rows = cells.RunFull();
  std::string source = "full backend";
  const auto expected = o.seed == kReferenceSeed
                            ? ExpectedRows(cells.plan(), o, &source)
                            : full_rows;
  cells.Check(expected, result);
  result.notes.push_back("reference: " + source + "; traced passes " +
                         std::to_string(pass));

  std::map<std::string, double> v;
  cells.AddMetrics(v);
  v["trace_overhead_ratio"] = Ratio(Median(traced_s), Median(untraced_s));
  AddSelfTimes(tracer, v);
  SetPerLayer(result, v);
  result.trace_path = WriteTrace(tracer, o);
  return result;
}

// ---------------------------------------------------------------------------
// dse-server.

struct DrainOutcome {
  double wall_s = 0.0;
  /// Per finished job id: seconds from submit to done.
  std::map<std::string, double> latency_s;
  /// Per job id: artifact FNV-1a, or "" when the job did not finish.
  std::map<std::string, std::string> artifact_fnv;
  double simulated_cycles = 0.0;
};

/// Cycles simulated by a finished job, from its artifact.
void AccountArtifact(const JobSpec& spec, const std::string& text,
                     DrainOutcome& out) {
  const JsonValue doc = JsonValue::Parse(text);
  const double per_cell = static_cast<double>(spec.lengths.warmup +
                                              spec.lengths.measure);
  if (spec.type == JobType::kSweep) {
    out.simulated_cycles +=
        per_cell * static_cast<double>(doc.At("cells").AsArray().size());
  } else {
    for (const JsonValue& d : doc.At("designs").AsArray()) {
      if (d.At("feasible").AsBool()) {
        out.simulated_cycles +=
            per_cell * static_cast<double>(spec.workloads.size());
      }
    }
  }
}

std::string SpoolDir(const RunOptions& o, const std::string& tag) {
  return o.out_dir + "/spool-" + tag + "-" + std::to_string(::getpid());
}

/// Submits every job to a fresh JobServer on `spool` at once and runs it
/// until the backlog drains. Spools are never deleted by the benchmark
/// (about 1 MB per drain): on a disk mounted with `discard`, deleting them
/// slowed the file operations of the following runs by about 10%.
DrainOutcome Drain(const std::vector<std::pair<std::string, std::string>>& jobs,
                   const std::string& spool, Tracer& tracer, int parent) {
  fs::remove_all(spool);
  DrainOutcome out;
  ServerOptions options;
  options.spool = spool;
  options.max_jobs = kServerMaxJobs;
  options.poll_ms = kServerPollMs;
  options.once = true;
  std::map<std::string, double> submitted;
  const double t0 = NowSeconds();
  {
    ScopedSpan span(tracer, "dse.server.drain", "dse",
                    fs::path(spool).filename().string(), parent);
    JobServer server(options);
    for (const auto& [id, text] : jobs) {
      server.Submit(id, text);
      submitted[id] = RealtimeSeconds();
    }
    server.Run();
  }
  out.wall_s = NowSeconds() - t0;
  for (const auto& [id, text] : jobs) {
    const std::string status_path = spool + "/status/" + id + ".json";
    std::string fnv;
    try {
      const JsonValue status = JsonValue::Parse(ReadFile(status_path));
      if (status.At("state").AsString() == "done") {
        out.latency_s[id] = MtimeSeconds(status_path) - submitted[id];
        const std::string artifact =
            ReadFile(status.At("artifact").AsString());
        fnv = Hex(Fnv1a64(artifact));
        AccountArtifact(JobSpec::Parse(text), artifact, out);
      }
    } catch (const std::exception&) {
      fnv.clear();
    }
    out.artifact_fnv[id] = fnv;
  }
  return out;
}

/// Artifact hash per job id from RunJob of every spec without
/// checkpointing, one job at a time or on the reference threads; records a
/// `dse.runjob` span and the job's seconds per job. Results stay in `dir`
/// (see Drain).
std::map<std::string, std::string> SerialArtifacts(
    const std::vector<std::pair<std::string, std::string>>& jobs,
    const std::string& dir, bool parallel, Tracer& tracer, int parent,
    std::vector<double>* runjob_s) {
  std::map<std::string, std::string> out;
  std::mutex mu;
  const auto run = [&](std::size_t i) {
    const auto& [id, text] = jobs[i];
    std::string fnv;
    const double t0 = NowSeconds();
    try {
      const JobSpec spec = JobSpec::Parse(text);
      const JobOutcome outcome = RunJob(spec, dir + "/" + id, "");
      if (outcome.completed) fnv = Hex(Fnv1a64(ReadFile(outcome.artifact)));
    } catch (const std::exception&) {
      fnv.clear();
    }
    const double t1 = NowSeconds();
    std::lock_guard<std::mutex> lock(mu);
    out[id] = fnv;
    if (runjob_s != nullptr) runjob_s->push_back(t1 - t0);
    if (tracer.enabled()) tracer.Add("dse.runjob", "dse", id, parent, t0, t1);
  };
  if (parallel) {
    ParallelFor(jobs.size(), run);
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) run(i);
  }
  return out;
}

std::map<std::string, std::string> ExpectedArtifacts(
    const RunOptions& o, std::string* source) {
  const auto full_jobs = JobSpecs(o.seed, "full");
  if (o.seed == kReferenceSeed) {
    const auto file =
        ReadReferenceFile(o.reference_dir + "/" + o.workload + ".tsv");
    std::map<std::string, std::string> out;
    for (const auto& [id, text] : full_jobs) {
      const auto it = file.find(id);
      if (it != file.end() && it->second.size() == 1) {
        out[id] = it->second.front();
      }
    }
    if (out.size() == full_jobs.size()) {
      *source = "committed reference (seed " +
                std::to_string(kReferenceSeed) + ")";
      return out;
    }
  }
  *source = "full backend";
  Tracer off(false);
  return SerialArtifacts(full_jobs, SpoolDir(o, "reference"),
                         /*parallel=*/true, off, -1, nullptr);
}

std::uint64_t CheckDrains(const std::vector<DrainOutcome>& drains,
                          const std::map<std::string, std::string>& expected,
                          std::vector<std::string>& notes) {
  std::map<std::string, std::uint64_t> failed_by_job;
  for (const DrainOutcome& d : drains) {
    for (const auto& [id, fnv] : d.artifact_fnv) {
      const auto it = expected.find(id);
      if (fnv.empty() || it == expected.end() || it->second != fnv) {
        ++failed_by_job[id];
      }
    }
  }
  std::uint64_t failed = 0;
  for (const auto& [id, n] : failed_by_job) {
    notes.push_back("FAILED job " + id + ": " + std::to_string(n) + " runs");
    failed += n;
  }
  return failed;
}

RunResult RunDseUntraced(const RunOptions& o) {
  const auto jobs = JobSpecs(o.seed, "soa");
  RunResult result;
  const SimPlan plan = MakeSimPlan(o.workload, o.seed);
  SetupSamples setup;
  for (int r = 0; r < kSetupRepeats; ++r) SampleSetup(plan, setup);

  Tracer off(false);
  std::vector<DrainOutcome> drains;
  SyncFilesystem(o.out_dir);
  const double start = NowSeconds();
  do {
    SampleSetup(plan, setup);
    drains.push_back(
        Drain(jobs, SpoolDir(o, std::to_string(drains.size())), off, -1));
  } while (NowSeconds() - start < o.seconds);
  const double rss_mb = PeakRssMb();

  std::string source;
  const auto expected = ExpectedArtifacts(o, &source);
  result.attempted = drains.size() * jobs.size();
  result.failed = CheckDrains(drains, expected, result.notes);
  result.notes.push_back("reference: " + source + "; drains " +
                         std::to_string(drains.size()) + " of " +
                         std::to_string(jobs.size()) + " jobs");

  // The median drain stands for the workload; each job's latency is its
  // median over the drains.
  std::vector<double> walls;
  std::map<std::string, std::vector<double>> job_latency_s;
  for (const DrainOutcome& d : drains) {
    walls.push_back(d.wall_s);
    for (const auto& [id, s] : d.latency_s) job_latency_s[id].push_back(s);
  }
  std::vector<double> job_s;
  for (const auto& [id, s] : job_latency_s) job_s.push_back(Median(s));
  const double wall_s = Median(walls);
  result.metrics = {
      {"sim_cycles_per_s", Ratio(drains.front().simulated_cycles, wall_s),
       "1/s"},
      {"setup_s", SetupSeconds(setup), "s"},
      {"op_p50_s", Median(job_s), "s"},
      {"max_rss_mb", rss_mb, "MB"},
  };
  result.aliases = {
      {"job_p50_s", Median(job_s), "s"},
      {"jobs_per_s", Ratio(static_cast<double>(jobs.size()), wall_s), "1/s"}};
  return result;
}

RunResult RunDseTraced(const RunOptions& o) {
  const auto jobs = JobSpecs(o.seed, "soa");
  // The cells the sweep jobs simulate, also run outside-in so the noc,
  // gpgpu and sim layers are measured on this workload's small meshes.
  TracedCells cells(MakeSimPlan(o.workload, o.seed));
  RunResult result;
  Tracer tracer(true);
  Tracer off(false);
  std::vector<double> parse_us, runjob_s, overhead_s, untraced_s, traced_s;
  std::vector<DrainOutcome> drains;
  std::map<std::string, std::string> first_serial;
  SyncFilesystem(o.out_dir);
  const double start = NowSeconds();
  int pass = 0;
  do {
    // Untraced: a drain and the cells. Traced: spec parsing, a serial
    // RunJob of every job, a drain and the cells.
    const std::string tag = std::to_string(pass);
    drains.push_back(Drain(jobs, SpoolDir(o, "u" + tag), off, -1));
    untraced_s.push_back(drains.back().wall_s + cells.RunUntraced());

    const std::string label = "pass " + tag;
    ScopedSpan pass_span(tracer, "pass", "bench", label, -1);
    for (const auto& [id, text] : jobs) {
      ScopedSpan span(tracer, "dse.spec_parse", "dse", id, pass_span.index());
      const double t0 = NowSeconds();
      const JobSpec spec = JobSpec::Parse(text);
      parse_us.push_back(1e6 * (NowSeconds() - t0));
    }
    std::vector<double> serial;
    const auto artifacts =
        SerialArtifacts(jobs, SpoolDir(o, "serial" + tag), /*parallel=*/false,
                        tracer, pass_span.index(), &serial);
    if (first_serial.empty()) first_serial = artifacts;
    runjob_s.insert(runjob_s.end(), serial.begin(), serial.end());
    drains.push_back(
        Drain(jobs, SpoolDir(o, "t" + tag), tracer, pass_span.index()));
    overhead_s.push_back(drains.back().wall_s - Sum(serial) / kServerMaxJobs);
    traced_s.push_back(drains.back().wall_s +
                       cells.RunTraced(tracer, pass_span.index(), label,
                                       /*report=*/false));
    ++pass;
  } while (NowSeconds() - start < o.seconds);

  std::string source;
  const auto expected = ExpectedArtifacts(o, &source);
  DrainOutcome serial_outcome;  // serial RunJob artifacts are checked too
  serial_outcome.artifact_fnv = first_serial;
  drains.push_back(serial_outcome);
  result.attempted = drains.size() * jobs.size();
  result.failed = CheckDrains(drains, expected, result.notes);
  cells.Check(cells.RunFull(), result);
  result.notes.push_back("reference: " + source + "; traced passes " +
                         std::to_string(pass));

  std::map<std::string, double> v;
  cells.AddMetrics(v);
  v["dse.spec_parse_us"] = Median(parse_us);
  v["dse.runjob_s_p50"] = Median(runjob_s);
  v["dse.server_overhead_s"] = Median(overhead_s);
  v["trace_overhead_ratio"] = Ratio(Median(traced_s), Median(untraced_s));
  AddSelfTimes(tracer, v);
  SetPerLayer(result, v);
  result.trace_path = WriteTrace(tracer, o);
  return result;
}

std::map<std::string, std::string> Provenance(const RunOptions& o) {
  return {{"workload", o.workload},
          {"commit", o.commit},
          {"seed", std::to_string(o.seed)},
          {"compiler", PERFBENCH_COMPILER},
          {"build_type", PERFBENCH_BUILD_TYPE},
          {"nproc", std::to_string(std::thread::hardware_concurrency())}};
}

}  // namespace

RunResult RunWorkload(const RunOptions& options) {
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }
  fs::create_directories(options.out_dir);
  if (options.workload == "dse-server") {
    return options.trace ? RunDseTraced(options) : RunDseUntraced(options);
  }
  return options.trace ? RunSimTraced(options) : RunSimUntraced(options);
}

void RecordReference(const std::string& workload, const std::string& path,
                     const std::string& out_dir) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# " << workload << " reference results at seed " << kReferenceSeed
      << ", recorded on the full backend.\n";
  if (workload == "dse-server") {
    out << "# job\tartifact_fnv1a64\n";
    Tracer off(false);
    const std::string dir = out_dir + "/record-jobs";
    const auto artifacts = SerialArtifacts(JobSpecs(kReferenceSeed, "full"),
                                           dir, true, off, -1, nullptr);
    fs::remove_all(dir);
    for (const auto& [id, fnv] : artifacts) {
      if (fnv.empty()) throw std::runtime_error("job failed: " + id);
      out << id << '\t' << fnv << '\n';
    }
    return;
  }
  out << "# cell\tipc\tcycles\tinstructions\trequest_flits\treply_flits\t"
         "request_latency_sum\treply_latency_sum\tstats_fnv1a64\n";
  const SimPlan plan = MakeSimPlan(workload, kReferenceSeed);
  const auto rows = FullBackendRows(plan);
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    if (!rows[i]) {
      throw std::runtime_error("cell failed: " + plan.cells[i].label());
    }
    out << RefRowLine(plan.cells[i].label(), *rows[i]) << '\n';
  }
}

std::string GpuSystemStatsBytes(const CellSpec& cell, const SimPlan& plan) {
  GpuSystem sys(cell.config, FindWorkload(cell.profile));
  return StatsBytes(sys.Run(plan.warmup, plan.measure));
}

std::string OutsideInStatsBytes(const CellSpec& cell, const SimPlan& plan) {
  Tracer tracer(true);
  LayerTotals acc;
  const CellRun r = RunCellTraced(cell, plan, tracer, -1, acc);
  return r.resume_identical ? r.bytes : std::string();
}

}  // namespace perfbench
