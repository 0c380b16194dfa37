#include "sim/gpu_config.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/cli.hpp"
#include "common/enum_registry.hpp"

namespace gnoc {

namespace {

const EnumRegistry<NetworkDivision>& DivisionRegistry() {
  static const EnumRegistry<NetworkDivision> kRegistry{
      "division",
      {
          {"virtual", NetworkDivision::kVirtual},
          {"physical", NetworkDivision::kPhysical},
      }};
  return kRegistry;
}

const EnumRegistry<McScheduler>& McSchedulerRegistry() {
  static const EnumRegistry<McScheduler> kRegistry{
      "mc_scheduler",
      {
          {"in-order", McScheduler::kInOrder},
          {"inorder", McScheduler::kInOrder},
          {"fifo", McScheduler::kInOrder},
          {"fr-fcfs", McScheduler::kFrFcfs},
          {"frfcfs", McScheduler::kFrFcfs},
      }};
  return kRegistry;
}

/// One GpuConfig override key, the only place it is declared: `declare`
/// registers its type, default, help text and range check on a FlagSet,
/// and `apply` stores a value that passed those checks.
struct GpuConfigKey {
  std::string name;
  std::function<void(FlagSet&)> declare;
  std::function<void(GpuConfig&, const Config&)> apply;
};

/// The member a key sets, reached through a member-pointer path such as
/// (&GpuConfig::sm, &SmConfig::warps_per_sm).
template <typename... Path>
auto& Field(GpuConfig& c, Path... path) {
  return (c .* ... .* path);
}

template <typename... Path>
GpuConfigKey IntKey(const char* name, std::int64_t min, const char* doc,
                    Path... path) {
  GpuConfig def;
  const auto def_value = static_cast<std::int64_t>(Field(def, path...));
  return {name,
          [=](FlagSet& f) { f.AddInt(name, def_value, doc, AtLeast(min)); },
          [=](GpuConfig& c, const Config& o) {
            auto& v = Field(c, path...);
            v = static_cast<std::remove_reference_t<decltype(v)>>(
                o.GetInt(name, 0));
          }};
}

template <typename... Path>
GpuConfigKey BoolKey(const char* name, const char* doc, Path... path) {
  GpuConfig def;
  const bool def_value = Field(def, path...);
  return {name, [=](FlagSet& f) { f.AddBool(name, def_value, doc); },
          [=](GpuConfig& c, const Config& o) {
            Field(c, path...) = o.GetBool(name, false);
          }};
}

/// A key backed by an enum registry: the flag lists its canonical names
/// and accepts every alias its Parse accepts.
template <typename E, typename... Path>
GpuConfigKey EnumKey(const char* name, const char* doc,
                     const EnumRegistry<E>& registry, Path... path) {
  GpuConfig def;
  const std::string def_name = registry.Name(Field(def, path...));
  const EnumRegistry<E>* reg = &registry;  // a function-local static
  return {name, [=](FlagSet& f) { f.AddEnum(name, def_name, doc, *reg); },
          [=](GpuConfig& c, const Config& o) {
            Field(c, path...) = reg->Parse(o.GetString(name));
          }};
}

/// Every override key, in the order ApplyOverrides applies them (radix
/// after width/height, so it wins over them; num_mcs after radix, so an
/// explicit num_mcs wins over the shorthand) and help lists them.
const std::vector<GpuConfigKey>& GpuConfigKeys() {
  using G = GpuConfig;
  static const std::vector<GpuConfigKey> kKeys = {
      IntKey("width", 1, "tile grid width", &G::width),
      IntKey("height", 1, "tile grid height", &G::height),
      // Square-grid shorthand, the paper's scaling: N MCs in an N x N
      // grid, one per bottom-row column, which keeps the classes
      // link-disjoint under DOR.
      {"radix",
       [](FlagSet& f) {
         f.AddInt("radix", G{}.width,
                  "square-grid shorthand: width = height = num_mcs = radix",
                  AtLeast(2));
       },
       [](GpuConfig& c, const Config& o) {
         const int n = static_cast<int>(o.GetInt("radix", 0));
         c.width = c.height = c.num_mcs = n;
       }},
      IntKey("num_mcs", 1, "number of memory controllers", &G::num_mcs),
      EnumKey("topology", "interconnect topology", TopologyRegistry(),
              &G::topology),
      IntKey("circulant_s1", 1, "circulant chord step s1 (topology=circulant)",
             &G::circulant_s1),
      IntKey("circulant_s2", 0, "circulant chord step s2 (0 = near-sqrt(N))",
             &G::circulant_s2),
      EnumKey("placement", "MC placement", McPlacementRegistry(),
              &G::placement),
      EnumKey("routing", "routing algorithm", RoutingRegistry(), &G::routing),
      EnumKey("vc_policy", "VC policy (aliases: mono, partial, asym, ...)",
              VcPolicyRegistry(), &G::vc_policy),
      IntKey("num_vcs", 1,
             "VCs per port (dateline topologies need >= 4 under split)",
             &G::num_vcs),
      IntKey("vc_depth", 1, "flit slots per VC", &G::vc_depth),
      IntKey("dynamic_epoch", 1,
             "cycles per dynamic VC partitioning epoch (vc_policy=dynamic)",
             &G::dynamic_epoch),
      BoolKey("allow_unsafe", "allow protocol-deadlock-unsafe configurations",
              &G::allow_unsafe),
      EnumKey("division", "request/reply network division",
              DivisionRegistry(), &G::division),
      BoolKey("atomic_vc_realloc", "conservative (atomic) VC reallocation",
              &G::atomic_vc_realloc),
      BoolKey("record_trace", "record every injected packet",
              &G::record_trace),
      BoolKey("audit", "run the NoC invariant auditor", &G::audit),
      IntKey("audit_interval", 1, "cycles between auditor sweeps",
             &G::audit_interval),
      BoolKey("telemetry", "run the NoC telemetry sampler", &G::telemetry),
      IntKey("telemetry_interval", 1, "cycles between telemetry samples",
             &G::telemetry_interval),
      IntKey("telemetry_max_windows", 0, "telemetry window cap (0 = unbounded)",
             &G::telemetry_max_windows),
      EnumKey("scheduling",
              "NoC component scheduling (soa skips idle routers and links, "
              "bit-identically)",
              SchedulingRegistry(), &G::scheduling),
      EnumKey("qos", "QoS arbitration discipline", QosArbitrationRegistry(),
              &G::qos, &QosConfig::arbitration),
      // Positional and repeatable: the i-th non-empty occurrence replaces
      // class i wholesale.
      {"qos_class",
       [](FlagSet& f) {
         f.AddString("qos_class", "",
                     "traffic class spec '<name>[,prio=N][,rate=X][,burst=N]"
                     "[,vcs=N][,p99=X]' (repeatable; i-th occurrence = class "
                     "i: request, reply)",
                     [](const std::string& v) {
                       return v.empty() ? std::string()
                                        : ParsedBy(ParseTrafficClassSpec)(v);
                     });
       },
       [](GpuConfig& c, const Config& o) {
         std::vector<std::string> specs = o.GetList("qos_class");
         std::erase(specs, "");
         if (specs.size() > static_cast<std::size_t>(kNumClasses)) {
           throw std::invalid_argument(
               "qos_class: at most " + std::to_string(kNumClasses) +
               " classes are modelled, got " + std::to_string(specs.size()));
         }
         for (std::size_t i = 0; i < specs.size(); ++i) {
           c.qos.classes[i] = ParseTrafficClassSpec(specs[i]);
         }
       }},
      BoolKey("ideal_noc",
              "replace the NoC with the contention-free ideal fabric",
              &G::ideal_noc),
      IntKey("mc_inject_bw", 1, "MC NIC injection bandwidth (flits/cycle)",
             &G::mc_inject_flits_per_cycle),
      EnumKey("mc_scheduler", "MC request scheduling", McSchedulerRegistry(),
              &G::mc, &McConfig::scheduler),
      EnumKey("arbiter", "VA/SA arbiter", ArbiterKindRegistry(), &G::arbiter),
      IntKey("warps", 1, "warps per SM", &G::sm, &SmConfig::warps_per_sm),
      IntKey("mshr", 1, "MSHR entries per SM", &G::sm, &SmConfig::mshr_entries),
      BoolKey("real_l1",
              "model the L1 structurally instead of probabilistically",
              &G::sm, &SmConfig::use_real_l1),
      IntKey("l2_latency", 0, "MC-side L2 read service latency", &G::mc,
             &McConfig::l2_latency),
      IntKey("seed", std::numeric_limits<std::int64_t>::min(),
             "master RNG seed", &G::seed),
  };
  return kKeys;
}

/// The key table as a FlagSet: the one validator of every override value.
const FlagSet& GpuConfigFlags() {
  static const FlagSet kFlags = [] {
    FlagSet flags("gpu_config", "GpuConfig override keys");
    RegisterGpuConfigFlags(flags);
    return flags;
  }();
  return kFlags;
}

}  // namespace

GpuConfig GpuConfig::Baseline() { return GpuConfig{}; }

void GpuConfig::ApplyOverrides(const Config& overrides) {
  // Keys that are not GpuConfig keys belong to the caller (drivers pass
  // their whole parsed command line through here) and are ignored.
  Config own;
  for (const GpuConfigKey& key : GpuConfigKeys()) {
    for (const std::string& value : overrides.GetList(key.name)) {
      own.Append(key.name, value);
    }
  }
  GpuConfigFlags().Validate(own);
  GpuConfig next = *this;  // a setter can still throw (too many qos_class)
  for (const GpuConfigKey& key : GpuConfigKeys()) {
    if (own.Contains(key.name)) key.apply(next, own);
  }
  *this = next;
}

void ValidateGpuConfigKeys(const Config& overrides) {
  GpuConfigFlags().Validate(overrides);
}

void RegisterGpuConfigFlags(FlagSet& flags) {
  for (const GpuConfigKey& key : GpuConfigKeys()) key.declare(flags);
}

void RegisterGpuConfigFlags(FlagSet& flags,
                            const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    const auto& keys = GpuConfigKeys();
    const auto it = std::find_if(keys.begin(), keys.end(),
                                 [&](const GpuConfigKey& k) {
                                   return k.name == name;
                                 });
    if (it == keys.end()) {
      throw std::invalid_argument("'" + name + "' is not a GpuConfig key");
    }
    it->declare(flags);
  }
}

std::string GpuConfig::Describe() const {
  std::ostringstream oss;
  oss << McPlacementName(placement) << " + " << RoutingName(routing) << ", "
      << VcPolicyName(vc_policy) << ", " << num_vcs << " VCs x depth "
      << vc_depth;
  if (topology != TopologyKind::kMesh) {
    oss << ", " << TopologyName(topology);
  }
  if (division == NetworkDivision::kPhysical) oss << ", dual physical nets";
  if (scheduling == SchedulingMode::kSoa) oss << ", soa sched";
  if (qos.Enabled()) oss << ", qos " << QosArbitrationName(qos.arbitration);
  return oss.str();
}

}  // namespace gnoc
