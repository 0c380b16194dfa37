// gnoc_server — the DSE job server binary (DESIGN.md §13).
//
// Watches a spool directory for JSON job specs (sweeps and Pareto
// searches, see dse/job.hpp) and runs them with checkpoint/restore, so a
// killed server restarted on the same spool finishes its in-flight jobs.
//
//   gnoc_server spool=/tmp/dse                 # serve until SIGINT/SIGTERM
//   gnoc_server spool=/tmp/dse once=true       # drain the backlog, exit
//   gnoc_server spool=/tmp/dse stdin=true      # also accept stdin lines:
//     {"type": "pareto-search", ...}           #   submit a job
//     cancel <id>                              #   cancel a job
//     quit                                     #   graceful shutdown

#include <csignal>
#include <iostream>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "dse/job.hpp"
#include "dse/server.hpp"

namespace {

gnoc::JobServer* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

/// The stdin line protocol: spec documents, "cancel <id>", "quit".
void StdinLoop(gnoc::JobServer& server) {
  std::string line;
  int counter = 0;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == "quit") break;
    if (line.rfind("cancel ", 0) == 0) {
      server.Cancel(line.substr(7));
      continue;
    }
    try {
      const gnoc::JobSpec spec = gnoc::JobSpec::Parse(line);  // validate
      std::string id = spec.id;
      if (id.empty()) id = "stdin_" + std::to_string(counter++);
      std::cout << "submitted " << server.Submit(id, line) << std::endl;
    } catch (const std::exception& e) {
      std::cerr << "gnoc_server: bad spec: " << e.what() << std::endl;
    }
  }
  server.RequestShutdown();
}

}  // namespace

int main(int argc, char** argv) {
  gnoc::FlagSet flags("gnoc_server",
                      "DSE job server: runs sweep and pareto-search jobs "
                      "from a spool directory with checkpoint/restore");
  flags.AddString("spool", "", "spool root directory (required)",
                  [](const std::string& v) {
                    return v.empty() ? "spool directory is required"
                                     : std::string();
                  });
  flags.AddInt("jobs", 2, "concurrently running jobs", gnoc::AtLeast(1));
  flags.AddInt("poll_ms", 200, "spool scan interval (ms)", gnoc::AtLeast(1));
  flags.AddBool("once", false, "drain the current backlog, then exit");
  flags.AddBool("stdin", false,
                "also accept job specs / cancel / quit lines on stdin");

  gnoc::Config args;
  try {
    args = flags.Parse(argc, argv);
  } catch (const gnoc::CliError& e) {
    std::cerr << "gnoc_server: " << e.what() << std::endl;
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Help();
    return 0;
  }

  gnoc::ServerOptions options;
  options.spool = args.GetString("spool");
  options.max_jobs = static_cast<int>(args.GetInt("jobs", 2));
  options.poll_ms = static_cast<int>(args.GetInt("poll_ms", 200));
  options.once = args.GetBool("once", false);
  if (options.spool.empty()) {
    std::cerr << "gnoc_server: spool= is required (see help)" << std::endl;
    return 2;
  }

  try {
    gnoc::JobServer server(options);
    g_server = &server;
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    std::thread stdin_thread;
    if (args.GetBool("stdin", false)) {
      stdin_thread = std::thread(StdinLoop, std::ref(server));
    }
    const int failed = server.Run();
    g_server = nullptr;
    if (stdin_thread.joinable()) stdin_thread.detach();  // may block on read
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "gnoc_server: " << e.what() << std::endl;
    return 2;
  }
}
