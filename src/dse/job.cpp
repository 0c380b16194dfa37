#include "dse/job.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "common/json.hpp"

namespace gnoc {

const char* JobTypeName(JobType t) {
  switch (t) {
    case JobType::kSweep: return "sweep";
    case JobType::kParetoSearch: return "pareto-search";
  }
  return "?";
}

namespace {

/// A JSON scalar as the string Config stores (numbers via the shortest
/// round-trip form, so integer-valued doubles stay integer-looking).
std::string ScalarToString(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kString: return v.AsString();
    case JsonValue::Kind::kBool: return v.AsBool() ? "true" : "false";
    case JsonValue::Kind::kNumber: return JsonNumber(v.AsNumber());
    default:
      throw std::invalid_argument(
          "config values must be scalars (string/number/bool)");
  }
}

/// A JSON object of GpuConfig override keys -> Config, checked against
/// the same key table as the flags.
Config ParseOverrides(const JsonValue& obj) {
  Config cfg;
  for (const auto& [key, value] : obj.AsObject()) {
    cfg.Set(key, ScalarToString(value));
  }
  ValidateGpuConfigKeys(cfg);
  return cfg;
}

constexpr double kIntMax = std::numeric_limits<int>::max();

/// A job-level number in [0, max], an integer unless T is double. JSON
/// numbers are doubles, which hold every integer up to 2^53 exactly.
template <typename T>
T InRange(const JsonValue& v, const char* field, double max = 0x1p53) {
  const double d = v.AsNumber();
  const bool integral = !std::is_floating_point_v<T>;
  if (!(d >= 0.0 && d <= max) || (integral && d != std::floor(d))) {
    throw std::invalid_argument(std::string(field) + ": must be " +
                                (integral ? "an integer " : "") + "in [0, " +
                                JsonNumber(max) + "], got " + JsonNumber(d));
  }
  return static_cast<T>(d);
}

std::vector<std::string> ParseStringArray(const JsonValue& arr) {
  std::vector<std::string> out;
  for (const JsonValue& v : arr.AsArray()) out.push_back(v.AsString());
  return out;
}

/// A vc_counts / vc_depths axis; see ParseAxisValue.
std::vector<int> ParseAxisValues(const JsonValue& arr, const char* key) {
  std::vector<int> out;
  for (const JsonValue& v : arr.AsArray()) {
    out.push_back(ParseAxisValue(key, ScalarToString(v)));
  }
  return out;
}

DesignSpace ParseSpace(const JsonValue& obj) {
  DesignSpace s;  // single-point baseline; listed axes override
  if (const JsonValue* base = obj.Find("base")) {
    s.base.ApplyOverrides(ParseOverrides(*base));
  }
  if (const JsonValue* v = obj.Find("placements")) {
    s.placements.clear();
    for (const std::string& name : ParseStringArray(*v)) {
      s.placements.push_back(ParseMcPlacement(name));
    }
  }
  if (const JsonValue* v = obj.Find("routings")) {
    s.routings.clear();
    for (const std::string& name : ParseStringArray(*v)) {
      s.routings.push_back(ParseRouting(name));
    }
  }
  if (const JsonValue* v = obj.Find("vc_policies")) {
    s.vc_policies.clear();
    for (const std::string& name : ParseStringArray(*v)) {
      s.vc_policies.push_back(ParseVcPolicy(name));
    }
  }
  if (const JsonValue* v = obj.Find("topologies")) {
    s.topologies.clear();
    for (const std::string& name : ParseStringArray(*v)) {
      s.topologies.push_back(ParseTopology(name));
    }
  }
  if (const JsonValue* v = obj.Find("vc_counts")) {
    s.vc_counts = ParseAxisValues(*v, "num_vcs");
  }
  if (const JsonValue* v = obj.Find("vc_depths")) {
    s.vc_depths = ParseAxisValues(*v, "vc_depth");
  }
  s.NumPoints();  // throws on an empty axis
  return s;
}

}  // namespace

JobSpec JobSpec::Parse(const std::string& json_text) {
  return Parse(JsonValue::Parse(json_text));
}

JobSpec JobSpec::Parse(const JsonValue& doc) {
  JobSpec spec;
  const std::string type = doc.At("type").AsString();
  if (type == "sweep") {
    spec.type = JobType::kSweep;
  } else if (type == "pareto-search" || type == "search") {
    spec.type = JobType::kParetoSearch;
  } else {
    throw std::invalid_argument("unknown job type '" + type +
                                "' (want sweep|pareto-search)");
  }
  if (const JsonValue* v = doc.Find("id")) spec.id = v->AsString();
  if (const JsonValue* v = doc.Find("workloads")) {
    spec.workloads = ParseStringArray(*v);
    if (spec.workloads.empty()) {
      throw std::invalid_argument("job needs at least one workload");
    }
  }
  if (const JsonValue* v = doc.Find("warmup")) {
    spec.lengths.warmup = InRange<Cycle>(*v, "warmup");
  }
  if (const JsonValue* v = doc.Find("measure")) {
    spec.lengths.measure = InRange<Cycle>(*v, "measure");
  }
  if (const JsonValue* v = doc.Find("threads")) {
    spec.threads = InRange<int>(*v, "threads", kIntMax);
  }
  if (const JsonValue* v = doc.Find("base")) {
    spec.base_overrides = ParseOverrides(*v);
  }

  if (spec.type == JobType::kSweep) {
    const JsonValue& schemes = doc.At("schemes");
    for (const JsonValue& s : schemes.AsArray()) {
      SchemeOverride so;
      so.label = s.At("label").AsString();
      if (const JsonValue* cfg = s.Find("config")) {
        so.overrides = ParseOverrides(*cfg);
      }
      spec.schemes.push_back(std::move(so));
    }
    if (spec.schemes.empty()) {
      throw std::invalid_argument("sweep job needs at least one scheme");
    }
    if (const JsonValue* v = doc.Find("baseline")) {
      spec.baseline = v->AsString();
    }
    return spec;
  }

  // pareto-search
  if (const JsonValue* v = doc.Find("space")) {
    spec.space = ParseSpace(*v);
  } else {
    spec.space = DesignSpace::Default();
  }
  spec.space.base.ApplyOverrides(spec.base_overrides);
  if (const JsonValue* v = doc.Find("strategy")) {
    spec.strategy = ParseSearchStrategy(v->AsString());
  }
  if (const JsonValue* v = doc.Find("objectives")) {
    spec.objectives.clear();
    for (const std::string& name : ParseStringArray(*v)) {
      spec.objectives.push_back(ParseSearchObjective(name));
    }
  }
  if (const JsonValue* v = doc.Find("population")) {
    spec.population = InRange<int>(*v, "population", kIntMax);
  }
  if (const JsonValue* v = doc.Find("max_evaluations")) {
    spec.max_evaluations = InRange<int>(*v, "max_evaluations", kIntMax);
  }
  if (const JsonValue* v = doc.Find("seed")) {
    spec.seed = InRange<std::uint64_t>(*v, "seed");
  }
  if (const JsonValue* v = doc.Find("crossover_rate")) {
    spec.crossover_rate = InRange<double>(*v, "crossover_rate", 1.0);
  }
  if (const JsonValue* v = doc.Find("mutation_rate")) {
    spec.mutation_rate = InRange<double>(*v, "mutation_rate", 1.0);
  }
  return spec;
}

std::vector<SchemeSpec> JobSpec::BuildSchemes() const {
  if (schemes.empty()) {
    throw std::invalid_argument("sweep job has no schemes");
  }
  std::vector<SchemeSpec> out;
  out.reserve(schemes.size());
  for (const SchemeOverride& so : schemes) {
    GpuConfig cfg = GpuConfig::Baseline();
    cfg.ApplyOverrides(base_overrides);
    cfg.ApplyOverrides(so.overrides);
    out.push_back({so.label, cfg});
  }
  return out;
}

namespace {

/// Thrown from the sweep progress hook to unwind a preempted sweep job.
struct JobPreempted {};

}  // namespace

JobOutcome RunJob(const JobSpec& spec, const std::string& result_dir,
                  const std::string& checkpoint_dir,
                  const std::function<bool()>& should_stop,
                  const JobProgressFn& progress) {
  std::filesystem::create_directories(result_dir);
  JobOutcome outcome;

  if (spec.type == JobType::kSweep) {
    const std::vector<SchemeSpec> schemes = spec.BuildSchemes();
    const std::vector<WorkloadProfile> workloads =
        WorkloadSubset(spec.workloads);
    SweepOptions so;
    so.lengths = spec.lengths;
    so.threads = spec.threads;
    so.checkpoint_dir = checkpoint_dir;
    so.resume = !checkpoint_dir.empty();
    so.progress = [&](const std::string& scheme, const std::string& workload,
                      int done, int total) {
      if (progress) progress(done, total, scheme + " x " + workload);
      if (should_stop && should_stop()) throw JobPreempted{};
    };
    try {
      const SweepResult result = RunSweep(schemes, workloads, so);
      outcome.artifact = result_dir + "/sweep.json";
      result.WriteJsonFile(outcome.artifact, spec.baseline);
      outcome.completed = true;
    } catch (const JobPreempted&) {
      outcome.completed = false;
    }
    return outcome;
  }

  // pareto-search
  SearchOptions opts;
  opts.strategy = spec.strategy;
  opts.objectives = spec.objectives;
  opts.population = spec.population;
  opts.max_evaluations = spec.max_evaluations;
  opts.seed = spec.seed;
  opts.crossover_rate = spec.crossover_rate;
  opts.mutation_rate = spec.mutation_rate;
  opts.lengths = spec.lengths;
  opts.threads = spec.threads;
  opts.checkpoint_dir = checkpoint_dir;
  opts.resume = !checkpoint_dir.empty();
  opts.should_stop = should_stop;
  if (progress) {
    opts.on_design = [&](const EvaluatedDesign& d, int evaluated, int budget) {
      progress(evaluated, budget, d.label);
    };
  }
  const ParetoResult result =
      ParetoSearch(spec.space, WorkloadSubset(spec.workloads), opts);
  if (result.completed) {
    outcome.artifact = result_dir + "/pareto.json";
    result.WriteJsonFile(outcome.artifact);
    outcome.completed = true;
  }
  return outcome;
}

}  // namespace gnoc
