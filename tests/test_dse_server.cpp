// Tests for the DSE job layer and spool server (DESIGN.md §13): JobSpec
// parsing, RunJob artifacts, and the JobServer lifecycle — submit/run/
// done, cancellation, failure accounting and crash recovery (a spec left
// in running/ is re-adopted and finished by the next server).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "dse/job.hpp"
#include "dse/server.hpp"
#include "dse/space.hpp"
#include "gpgpu/workload.hpp"
#include "sim/gpu_config.hpp"
#include "sim/gpu_system.hpp"

namespace gnoc {
namespace {

namespace fs = std::filesystem;

/// A sweep job small enough for a unit test: two schemes, one workload.
constexpr const char* kSweepSpec = R"({
  "type": "sweep",
  "workloads": ["BFS"], "warmup": 300, "measure": 1500,
  "schemes": [{"label": "base"},
              {"label": "yx", "config": {"routing": "yx"}}]
})";

/// A two-point exhaustive search on a 4x4 grid.
constexpr const char* kSearchSpec = R"({
  "type": "pareto-search",
  "workloads": ["BFS"], "warmup": 300, "measure": 1500,
  "strategy": "grid", "max_evaluations": 0,
  "objectives": ["ipc", "buffer_area"],
  "space": {"base": {"width": 4, "height": 4, "num_mcs": 4},
            "routings": ["xy", "yx"]}
})";

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

/// A one-scheme sweep job whose "base" object holds `key: value` (a JSON
/// number).
std::string SpecWithBase(const std::string& key, const std::string& value) {
  return R"({"type": "sweep", "workloads": ["BFS"], "warmup": 300,
             "measure": 1500, "base": {")" +
         key + "\": " + value + R"(}, "schemes": [{"label": "x"}]})";
}

/// Bad GpuConfig keys and the one message every input surface gives.
struct BadKey {
  std::string key;
  std::string value;
  std::string message;
};

const std::vector<BadKey>& BadKeys() {
  static const std::vector<BadKey> kBad = {
      {"warps", "0", "warps: must be >= 1"},
      {"num_vcs", "0", "num_vcs: must be >= 1"},
      {"vc_depth", "0", "vc_depth: must be >= 1"},
      {"radix", "1", "radix: must be >= 2"},
      {"l2_latency", "-5", "l2_latency: must be >= 0"},
      {"num_vc", "4",
       "unknown flag 'num_vc'; did you mean 'num_vcs'? (run with help= for "
       "the flag list)"},
  };
  return kBad;
}

/// Parses `tokens` through `flags`; returns the error message ("" = ok).
std::string FlagError(FlagSet& flags, const std::vector<std::string>& tokens) {
  std::vector<const char*> argv{"prog"};
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  try {
    flags.Parse(static_cast<int>(argv.size()), argv.data());
  } catch (const CliError& e) {
    return e.what();
  }
  return "";
}

// The command-line flags, a config= file, the sweep harnesses' grid flags
// and a job spec's "base" object all read the one GpuConfig key table, so
// a bad value or a typo fails with the same message on each of them.
TEST(InputSurfaceTest, BadGpuConfigKeysFailAlikeOnEverySurface) {
  const fs::path config_file =
      fs::temp_directory_path() / "gnoc_input_surface_test.cfg";
  for (const BadKey& bad : BadKeys()) {
    const std::string token = bad.key + "=" + bad.value;

    FlagSet driver("quickstart", "");
    driver.AddString("workload", "BFS", "workload");
    RegisterGpuConfigFlags(driver);
    EXPECT_EQ(FlagError(driver, {token}), bad.message);

    std::ofstream(config_file) << token << "\n";
    EXPECT_EQ(FlagError(driver, {"config=" + config_file.string()}),
              bad.message);

    FlagSet sweep("fig8_vc_monopolizing", "");
    bench::RegisterSweepFlags(sweep);
    if (sweep.Contains(bad.key) || !driver.Contains(bad.key)) {
      EXPECT_EQ(FlagError(sweep, {token}), bad.message);
    }

    try {
      JobSpec::Parse(SpecWithBase(bad.key, bad.value));
      ADD_FAILURE() << token << " accepted in a job spec";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), bad.message);
    }
  }
  fs::remove(config_file);
}

/// Routers wider than the allocator's 64-bit request masks (ports x
/// num_vcs > 64), as flags and as a job spec's "base" members, with the
/// message every surface gives.
struct WideRouter {
  std::vector<std::string> tokens;
  std::string base;
  std::string message;
};

const std::vector<WideRouter>& WideRouters() {
  static const std::vector<WideRouter> kWide = {
      {{"num_vcs=13"},
       R"("num_vcs": 13)",
       "num_vcs=13 is too many for the 5-port routers of topology 'mesh': "
       "the VC allocator needs router radix x num_vcs <= 64 (here num_vcs "
       "<= 12)"},
      {{"topology=cmesh", "num_vcs=9"},
       R"("topology": "cmesh", "num_vcs": 9)",
       "num_vcs=9 is too many for the 8-port routers of topology 'cmesh': "
       "the VC allocator needs router radix x num_vcs <= 64 (here num_vcs "
       "<= 8)"},
  };
  return kWide;
}

/// A one-scheme sweep job with `base` as the members of its "base" object.
std::string SpecWithBaseMembers(const std::string& base) {
  return R"({"type": "sweep", "workloads": ["BFS"], "warmup": 300,
             "measure": 1500, "base": {)" +
         base + R"(}, "schemes": [{"label": "x"}]})";
}

/// Runs a sweep harness's option parsing over `tokens` (exits 2 on error).
void ParseSweepHarness(const std::vector<std::string>& tokens) {
  std::vector<std::string> storage{"fig8_vc_monopolizing"};
  storage.insert(storage.end(), tokens.begin(), tokens.end());
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  bench::ParseBenchOptions(static_cast<int>(argv.size()), argv.data(),
                           "fig8_vc_monopolizing", "");
}

// Each key is in range on its own, so only the network can tell that the
// combination does not fit; every surface must still fail with a typed
// error naming num_vcs, the router radix and the limit.
TEST(InputSurfaceTest, TooWideRoutersFailOnEverySurface) {
  const fs::path config_file =
      fs::temp_directory_path() / "gnoc_wide_router_test.cfg";
  for (const WideRouter& wide : WideRouters()) {
    // A driver with the full flag surface (quickstart): the flags parse,
    // building the system throws.
    FlagSet driver("quickstart", "");
    RegisterGpuConfigFlags(driver);
    std::vector<const char*> argv{"quickstart"};
    for (const std::string& t : wide.tokens) argv.push_back(t.c_str());
    GpuConfig cfg = GpuConfig::Baseline();
    cfg.ApplyOverrides(
        driver.Parse(static_cast<int>(argv.size()), argv.data()));
    try {
      GpuSystem gpu(cfg, FindWorkload("BFS"));
      ADD_FAILURE() << wide.tokens.back() << " built a network";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), wide.message);
    }

    // The sweep harnesses reject it while parsing, from flags and from a
    // config= file alike.
    EXPECT_EXIT(ParseSweepHarness(wide.tokens), ::testing::ExitedWithCode(2),
                "too many for the [0-9]-port routers");
    {
      std::ofstream file(config_file);
      for (const std::string& t : wide.tokens) file << t << "\n";
    }
    EXPECT_EXIT(ParseSweepHarness({"config=" + config_file.string()}),
                ::testing::ExitedWithCode(2),
                "too many for the [0-9]-port routers");
  }
  fs::remove(config_file);
}

TEST(InputSurfaceTest, WidestMeshRoutersStillRun) {
  FlagSet driver("quickstart", "");
  RegisterGpuConfigFlags(driver);
  const std::vector<const char*> argv{"quickstart", "num_vcs=12"};
  GpuConfig cfg = GpuConfig::Baseline();
  cfg.ApplyOverrides(driver.Parse(static_cast<int>(argv.size()), argv.data()));
  ASSERT_EQ(cfg.num_vcs, 12);
  GpuSystem gpu(cfg, FindWorkload("BFS"));
  const GpuRunStats stats = gpu.Run(100, 400);
  EXPECT_EQ(stats.cycles, 400u);
  EXPECT_GT(stats.instructions, 0u);
}

TEST(JobSpecTest, ParsesSweepSpecs) {
  const JobSpec spec = JobSpec::Parse(kSweepSpec);
  EXPECT_EQ(spec.type, JobType::kSweep);
  EXPECT_STREQ(JobTypeName(spec.type), "sweep");
  EXPECT_EQ(spec.workloads, (std::vector<std::string>{"BFS"}));
  EXPECT_EQ(spec.lengths.warmup, 300u);
  EXPECT_EQ(spec.lengths.measure, 1500u);
  ASSERT_EQ(spec.schemes.size(), 2u);
  EXPECT_EQ(spec.schemes[1].label, "yx");

  const auto schemes = spec.BuildSchemes();
  ASSERT_EQ(schemes.size(), 2u);
  EXPECT_EQ(schemes[0].config.routing, RoutingAlgorithm::kXY);
  EXPECT_EQ(schemes[1].config.routing, RoutingAlgorithm::kYX);
}

TEST(JobSpecTest, ParsesSearchSpecs) {
  const JobSpec spec = JobSpec::Parse(kSearchSpec);
  EXPECT_EQ(spec.type, JobType::kParetoSearch);
  EXPECT_EQ(spec.strategy, SearchStrategy::kGrid);
  EXPECT_EQ(spec.max_evaluations, 0);
  EXPECT_EQ(spec.objectives,
            (std::vector<SearchObjective>{SearchObjective::kIpc,
                                          SearchObjective::kBufferArea}));
  // The space starts from the single-point baseline and overrides only
  // the listed axes; "base" keys reshape the grid.
  EXPECT_EQ(spec.space.NumPoints(), 2u);
  EXPECT_EQ(spec.space.base.width, 4);
  EXPECT_EQ(spec.space.base.num_mcs, 4);
}

TEST(JobSpecTest, MissingSpaceMeansThePaperSpace) {
  const JobSpec spec = JobSpec::Parse(R"({"type": "search"})");
  EXPECT_EQ(spec.type, JobType::kParetoSearch);
  EXPECT_EQ(spec.space.NumPoints(), DesignSpace::Default().NumPoints());
}

TEST(JobSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(JobSpec::Parse("{"), std::invalid_argument);
  EXPECT_THROW(JobSpec::Parse(R"({"workloads": ["BFS"]})"),
               std::invalid_argument);  // no type
  EXPECT_THROW(JobSpec::Parse(R"({"type": "mystery"})"),
               std::invalid_argument);
  EXPECT_THROW(JobSpec::Parse(R"({"type": "sweep"})"),
               std::invalid_argument);  // no schemes
  EXPECT_THROW(JobSpec::Parse(R"({"type": "sweep", "schemes": [],
                                  "workloads": []})"),
               std::invalid_argument);
  // Config values must be scalars.
  EXPECT_THROW(
      JobSpec::Parse(R"({"type": "sweep", "base": {"width": [8]},
                         "schemes": [{"label": "x"}]})"),
      std::invalid_argument);
  // Unknown axis names surface from the enum parsers.
  EXPECT_THROW(
      JobSpec::Parse(R"({"type": "search",
                         "space": {"routings": ["zigzag"]}})"),
      std::invalid_argument);
  // Job-level numbers must be integers in range, rates within [0, 1].
  for (const char* field :
       {R"("warmup": -1)", R"("measure": 1.5)", R"("threads": -2)",
        R"("threads": 3e9)", R"("warmup": 1e300)"}) {
    EXPECT_THROW(JobSpec::Parse(std::string(R"({"type": "sweep", )") + field +
                                R"(, "schemes": [{"label": "x"}]})"),
                 std::invalid_argument)
        << field;
  }
  const std::vector<std::pair<std::string, std::string>> search_fields = {
      {"population", "-1"},     {"max_evaluations", "0.5"},
      {"seed", "-3"},           {"seed", "18014398509481984"},
      {"crossover_rate", "1.5"}, {"mutation_rate", "-0.1"}};
  for (const auto& [name, value] : search_fields) {
    try {
      JobSpec::Parse(R"({"type": "search", ")" + name + "\": " + value + "}");
      ADD_FAILURE() << name << "=" << value << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(name + ": must be", 0), 0u)
          << e.what();
    }
  }
  // Config objects hold only GpuConfig keys, each within its range.
  EXPECT_THROW(JobSpec::Parse(SpecWithBase("warps", "0")),
               std::invalid_argument);
  EXPECT_THROW(JobSpec::Parse(SpecWithBase("num_vc", "4")),
               std::invalid_argument);
  EXPECT_THROW(
      JobSpec::Parse(R"({"type": "sweep", "schemes":
                         [{"label": "x", "config": {"vc_depth": 0}}]})"),
      std::invalid_argument);
  EXPECT_THROW(JobSpec::Parse(R"({"type": "search",
                                  "space": {"base": {"radix": 1}}})"),
               std::invalid_argument);
  // So do the removed scheduling backends, with the valid choices, when
  // the server builds the job's configurations.
  for (const char* mode : {"active-set", "event"}) {
    try {
      const std::string spec =
          std::string(R"({"type": "sweep", "base": {"scheduling": ")") +
          mode + R"("}, "schemes": [{"label": "x"}]})";
      JobSpec::Parse(spec).BuildSchemes();
      ADD_FAILURE() << mode << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("full|soa"), std::string::npos)
          << e.what();
    }
  }
  // Search axis values pass the num_vcs / vc_depth key checks, with the
  // messages of num_vcs=0 / vc_depth=0.
  const std::vector<std::pair<std::string, std::string>> axes = {
      {R"("vc_counts": [0])", "num_vcs: must be >= 1"},
      {R"("vc_counts": [2, -4])", "num_vcs: must be >= 1"},
      {R"("vc_depths": [0])", "vc_depth: must be >= 1"},
  };
  for (const auto& [axis, message] : axes) {
    try {
      JobSpec::Parse(R"({"type": "search", "space": {)" + axis + "}}");
      ADD_FAILURE() << axis << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), message) << axis;
    }
  }
  EXPECT_THROW(JobSpec::Parse(R"({"type": "search",
                                  "space": {"vc_depths": [2.5]}})"),
               std::invalid_argument);
}

// pareto_search applies only the run flags and radix= of the shared set;
// the other grid keys fail as unknown flags instead of being ignored.
TEST(InputSurfaceTest, ParetoSearchRejectsFlagsItDoesNotApply) {
  FlagSet search("pareto_search", "");
  bench::RegisterSearchFlags(search);
  EXPECT_EQ(FlagError(search, {"radix=4", "workloads=BFS", "scale=0.1"}), "");
  for (const char* token :
       {"topology=torus", "num_vcs=4", "qos=strict", "circulant_s1=2",
        "json=out.json", "audit=true", "scheduling=soa"}) {
    EXPECT_EQ(FlagError(search, {token}).rfind("unknown flag", 0), 0u)
        << token;
  }
  // The axis overrides check their values like the flags they stand for.
  EXPECT_THROW(ParseAxisValue("num_vcs", "0"), std::invalid_argument);
  EXPECT_THROW(ParseAxisValue("vc_depth", "four"), std::invalid_argument);
  EXPECT_EQ(ParseAxisValue("num_vcs", "4"), 4);
}

class DseServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("gnoc_dse_server_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Spool() const { return (dir_ / "spool").string(); }

  std::string Status(const std::string& id) const {
    return JsonValue::Parse(ReadFile(Spool() + "/status/" + id + ".json"))
        .At("state")
        .AsString();
  }

  /// Runs a drain-the-backlog server over the spool.
  int RunOnce(int max_jobs = 2) {
    ServerOptions options;
    options.spool = Spool();
    options.max_jobs = max_jobs;
    options.poll_ms = 10;
    options.once = true;
    JobServer server(options);
    return server.Run();
  }

  fs::path dir_;
};

TEST_F(DseServerTest, RunJobWritesSweepArtifact) {
  JobSpec spec = JobSpec::Parse(kSweepSpec);
  const JobOutcome outcome = RunJob(spec, (dir_ / "results").string(),
                                    (dir_ / "ckpt").string());
  EXPECT_TRUE(outcome.completed);
  ASSERT_TRUE(fs::exists(outcome.artifact));
  const JsonValue doc = JsonValue::Parse(ReadFile(outcome.artifact));
  EXPECT_EQ(doc.At("cells").AsArray().size(), 2u);
  EXPECT_EQ(doc.At("baseline").AsString(), "base");
}

TEST_F(DseServerTest, OnceModeDrainsTheBacklog) {
  ServerOptions options;
  options.spool = Spool();
  options.once = true;
  options.poll_ms = 10;
  JobServer server(options);
  server.Submit("search1", kSearchSpec);
  server.Submit("sweep1", kSweepSpec);
  EXPECT_EQ(server.Run(), 0);

  for (const std::string id : {"search1", "sweep1"}) {
    EXPECT_TRUE(fs::exists(Spool() + "/done/" + id + ".json")) << id;
    EXPECT_FALSE(fs::exists(Spool() + "/jobs/" + id + ".json")) << id;
    EXPECT_EQ(Status(id), "done") << id;
  }
  const JsonValue pareto =
      JsonValue::Parse(ReadFile(Spool() + "/results/search1/pareto.json"));
  EXPECT_EQ(pareto.At("num_designs").AsNumber(), 2.0);
  EXPECT_TRUE(
      fs::exists(Spool() + "/results/sweep1/sweep.json"));
}

TEST_F(DseServerTest, CancelMarkerCancelsTheJob) {
  {
    ServerOptions options;
    options.spool = Spool();
    options.once = true;
    options.poll_ms = 10;
    JobServer server(options);
    server.Submit("doomed", kSearchSpec);
    server.Cancel("doomed");
    EXPECT_EQ(server.Run(), 0);
  }
  EXPECT_EQ(Status("doomed"), "cancelled");
  // A cancelled job retires: spec in done/, checkpoints dropped, marker
  // consumed — nothing resurrects on the next server run.
  EXPECT_TRUE(fs::exists(Spool() + "/done/doomed.json"));
  EXPECT_FALSE(fs::exists(Spool() + "/checkpoints/doomed"));
  EXPECT_FALSE(fs::exists(Spool() + "/cancel/doomed"));
  EXPECT_EQ(RunOnce(), 0);  // nothing left to do
  EXPECT_EQ(Status("doomed"), "cancelled");
}

TEST_F(DseServerTest, BadSpecsCountAsFailures) {
  {
    ServerOptions options;
    options.spool = Spool();
    options.once = true;
    options.poll_ms = 10;
    JobServer server(options);
    server.Submit("broken", R"({"type": "sweep"})");
    EXPECT_EQ(server.Run(), 1);
  }
  EXPECT_EQ(Status("broken"), "failed");
  EXPECT_TRUE(fs::exists(Spool() + "/done/broken.json"));
}

// A spec nested far deeper than any real one used to overflow the
// recursive parser's stack and crash the server on every restart. It must
// fail like any other malformed spec: retired to done/ with status
// "failed" and the parse error as the reason.
TEST_F(DseServerTest, DeeplyNestedSpecFailsWithParseError) {
  {
    ServerOptions options;
    options.spool = Spool();
    options.once = true;
    options.poll_ms = 10;
    JobServer server(options);
    server.Submit("poison", std::string(200000, '['));
    EXPECT_EQ(server.Run(), 1);
  }
  EXPECT_EQ(Status("poison"), "failed");
  EXPECT_TRUE(fs::exists(Spool() + "/done/poison.json"));
  const JsonValue status =
      JsonValue::Parse(ReadFile(Spool() + "/status/poison.json"));
  EXPECT_NE(status.At("error").AsString().find("nesting deeper than"),
            std::string::npos)
      << status.At("error").AsString();
}

// A spec with an out-of-range or unknown config key used to crash the
// server (warps=0) or finish with nonsense (num_vcs=0). Each must end
// failed with the flags' message while the server drains the rest.
TEST_F(DseServerTest, BadConfigKeysFailWithoutStoppingTheServer) {
  {
    ServerOptions options;
    options.spool = Spool();
    options.once = true;
    options.poll_ms = 10;
    JobServer server(options);
    for (std::size_t i = 0; i < BadKeys().size(); ++i) {
      server.Submit("bad" + std::to_string(i),
                    SpecWithBase(BadKeys()[i].key, BadKeys()[i].value));
    }
    server.Submit("good", kSweepSpec);
    EXPECT_EQ(server.Run(), static_cast<int>(BadKeys().size()));
  }
  for (std::size_t i = 0; i < BadKeys().size(); ++i) {
    const std::string id = "bad" + std::to_string(i);
    EXPECT_EQ(Status(id), "failed") << id;
    EXPECT_TRUE(fs::exists(Spool() + "/done/" + id + ".json")) << id;
    const JsonValue status =
        JsonValue::Parse(ReadFile(Spool() + "/status/" + id + ".json"));
    EXPECT_EQ(status.At("error").AsString(), BadKeys()[i].message) << id;
  }
  EXPECT_EQ(Status("good"), "done");
  EXPECT_TRUE(fs::exists(Spool() + "/results/good/sweep.json"));
}

TEST_F(DseServerTest, TooWideRoutersFailWithoutStoppingTheServer) {
  {
    ServerOptions options;
    options.spool = Spool();
    options.once = true;
    options.poll_ms = 10;
    JobServer server(options);
    for (std::size_t i = 0; i < WideRouters().size(); ++i) {
      server.Submit("wide" + std::to_string(i),
                    SpecWithBaseMembers(WideRouters()[i].base));
    }
    EXPECT_EQ(server.Run(), static_cast<int>(WideRouters().size()));
  }
  for (std::size_t i = 0; i < WideRouters().size(); ++i) {
    const std::string id = "wide" + std::to_string(i);
    EXPECT_EQ(Status(id), "failed") << id;
    EXPECT_TRUE(fs::exists(Spool() + "/done/" + id + ".json")) << id;
    const JsonValue status =
        JsonValue::Parse(ReadFile(Spool() + "/status/" + id + ".json"));
    EXPECT_EQ(status.At("error").AsString(), WideRouters()[i].message) << id;
  }
}

TEST_F(DseServerTest, OrphanedRunningSpecsAreReAdopted) {
  // Simulate a SIGKILL'd server: the spec sits in running/ with no worker.
  fs::create_directories(Spool() + "/running");
  std::ofstream(Spool() + "/running/orphan.json") << kSearchSpec;
  EXPECT_EQ(RunOnce(), 0);
  EXPECT_EQ(Status("orphan"), "done");
  EXPECT_TRUE(fs::exists(Spool() + "/results/orphan/pareto.json"));
}

}  // namespace
}  // namespace gnoc
