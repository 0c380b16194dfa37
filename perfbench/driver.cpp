// Benchmark driver: runs one workload and prints its metrics.
//
//   perfbench_driver --workload mesh8-loaded --seed 3 --seconds 10 --trace 0
//       [--reference-dir perfbench/reference] [--out-dir .bench_build/out]
//       [--commit <git sha>]
//   perfbench_driver --record-reference <workload> <path>
//
// The last line of standard output is one JSON object with the keys
// `correct`, `attempted`, `failed` and `metrics`. The lines before it list
// every metric, the provenance and any failed cell. A full result document
// (provenance included) is written to the output directory. Exit status is
// 0 when the workload ran (check `correct`), 2 on usage errors and 1 when
// the run itself threw.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunResult;

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "perfbench_driver: " << error << "\n"
            << "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--reference-dir DIR] [--out-dir DIR] "
               "[--commit SHA]\n"
               "       perfbench_driver --record-reference NAME PATH "
               "[--out-dir DIR]\n"
               "workloads:";
  for (const std::string& w : perfbench::WorkloadNames()) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t ParseU64(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used);
    if (used == text.size() && text[0] != '-') return v;
  } catch (const std::exception&) {
  }
  Usage(flag + " expects a non-negative integer, got '" + text + "'");
}

void WriteMetrics(gnoc::JsonWriter& w, const std::vector<Metric>& metrics) {
  w.BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name).BeginObject();
    w.Key("value").Value(m.value);
    w.Key("unit").Value(m.unit);
    w.EndObject();
  }
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  o.reference_dir = "perfbench/reference";
  o.out_dir = ".bench_build/out";
  std::string record_workload;
  std::string record_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      o.workload = next();
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = ParseU64(flag, next());
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(ParseU64(flag, next()));
    } else if (flag == "--trace") {
      const std::string t = next();
      if (t != "0" && t != "1") Usage("--trace expects 0 or 1");
      o.trace = t == "1";
    } else if (flag == "--reference-dir") {
      o.reference_dir = next();
    } else if (flag == "--out-dir") {
      o.out_dir = next();
    } else if (flag == "--commit") {
      o.commit = next();
    } else if (flag == "--record-reference") {
      record_workload = next();
      record_path = next();
    } else {
      Usage("unknown argument '" + flag + "'");
    }
  }

  try {
    if (!record_workload.empty()) {
      perfbench::RecordReference(record_workload, record_path, o.out_dir);
      std::cout << "wrote " << record_path << "\n";
      return 0;
    }
    if (!have_workload) Usage("--workload is required");
    if (o.seconds <= 0) Usage("--seconds must be positive");

    const RunResult r = perfbench::RunWorkload(o);
    for (const Metric& m : r.metrics) {
      if (!std::isfinite(m.value)) {
        throw std::runtime_error("metric " + m.name + " is not finite");
      }
    }

    const std::string nproc = std::to_string(std::thread::hardware_concurrency());
    std::cout << "perfbench " << o.workload << " seed=" << o.seed
              << " seconds=" << o.seconds << " trace=" << o.trace
              << " commit=" << o.commit << " compiler=\"" << PERFBENCH_COMPILER
              << "\" build=" << PERFBENCH_BUILD_TYPE << " nproc=" << nproc
              << "\n";
    for (const Metric& m : r.metrics) {
      std::cout << "  " << m.name << " = " << gnoc::JsonNumber(m.value) << " "
                << m.unit << "\n";
    }
    for (const Metric& m : r.aliases) {
      std::cout << "  (" << m.name << " = " << gnoc::JsonNumber(m.value) << " "
                << m.unit << ")\n";
    }
    for (const std::string& n : r.notes) std::cout << "  note: " << n << "\n";
    if (!r.trace_path.empty()) {
      std::cout << "  trace: " << r.trace_path << "\n";
    }

    const std::string doc_path = o.out_dir + "/result-" + o.workload +
                                 "-seed" + std::to_string(o.seed) + "-trace" +
                                 (o.trace ? "1" : "0") + ".json";
    std::ofstream doc(doc_path);
    gnoc::JsonWriter d(doc);
    d.BeginObject();
    d.Key("provenance").BeginObject();
    d.Key("workload").Value(o.workload);
    d.Key("seed").Value(o.seed);
    d.Key("seconds").Value(o.seconds);
    d.Key("trace").Value(o.trace);
    d.Key("commit").Value(o.commit);
    d.Key("compiler").Value(PERFBENCH_COMPILER);
    d.Key("build_type").Value(PERFBENCH_BUILD_TYPE);
    d.Key("nproc").Value(nproc);
    d.EndObject();
    d.Key("attempted").Value(r.attempted);
    d.Key("failed").Value(r.failed);
    d.Key("metrics");
    WriteMetrics(d, r.metrics);
    d.Key("aliases");
    WriteMetrics(d, r.aliases);
    d.Key("notes").BeginArray();
    for (const std::string& n : r.notes) d.Value(n);
    d.EndArray();
    if (!r.trace_path.empty()) d.Key("trace").Value(r.trace_path);
    d.EndObject();

    std::ostringstream line;
    gnoc::JsonWriter w(line, /*indent=*/0);
    w.BeginObject();
    w.Key("correct").Value(r.failed == 0);
    w.Key("attempted").Value(r.attempted);
    w.Key("failed").Value(r.failed);
    w.Key("metrics");
    WriteMetrics(w, r.metrics);
    w.EndObject();
    std::cout << line.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
