#include "cli/cli_app.hpp"

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>

#include "core/anacin.hpp"
#include "core/journal.hpp"
#include "course/module.hpp"
#include "course/quiz.hpp"
#include "course/use_cases.hpp"
#include "net/agent.hpp"
#include "net/server.hpp"
#include "obs/obs.hpp"
#include "proc/executor.hpp"
#include "proc/worker_main.hpp"
#include "proc/worker_pool.hpp"
#include "replay/bisect.hpp"
#include "store/hash.hpp"
#include "store/store.hpp"
#include "support/error.hpp"
#include "support/fault_plan.hpp"
#include "support/fs.hpp"

namespace anacin::cli {

namespace {

// ---------------------------------------------------------------------------
// Exit codes (documented in docs/RESILIENCE.md)
// ---------------------------------------------------------------------------

constexpr int kExitOk = 0;
/// Any error that aborted the command (fail-fast campaign failure,
/// ConfigError, I/O failure).
constexpr int kExitError = 1;
/// The command completed but quarantined at least one work unit
/// (--keep-going): results are partial and the report says which units.
constexpr int kExitPartial = 2;
/// Unknown command (usage error) — distinct from kExitPartial so scripts
/// can tell "partial results" from "you typoed the command".
constexpr int kExitUsage = 64;
/// SIGINT: in-flight work drained, completed work journaled, then exited.
constexpr int kExitInterrupted = 130;
/// SIGTERM: identical graceful drain, shell-convention exit code 128+15.
constexpr int kExitTerminated = 143;

// ---------------------------------------------------------------------------
// SIGINT / SIGTERM → cooperative cancellation
// ---------------------------------------------------------------------------

CancelToken& interrupt_token() {
  static CancelToken token;
  return token;
}

/// Which signal asked us to stop (0 = none); decides 130 vs 143.
std::atomic<int>& interrupt_signal() {
  static std::atomic<int> signo{0};
  return signo;
}

void handle_interrupt(int signo) {
  // Async-signal-safe: two lock-free atomic stores. Workers poll the
  // token between work units; a second signal falls through to the
  // default disposition because the handler is one-shot per scope.
  interrupt_signal().store(signo, std::memory_order_relaxed);
  interrupt_token().cancel();
}

int interrupted_exit_code() {
  return interrupt_signal().load(std::memory_order_relaxed) == SIGTERM
             ? kExitTerminated
             : kExitInterrupted;
}

/// Installs the SIGINT and SIGTERM handlers for the duration of a
/// long-running command; restores the previous dispositions (and clears
/// the token) on scope exit so in-process callers (tests) can run
/// commands repeatedly. The signal-number atomic is reset on entry, NOT
/// on exit: InterruptedError unwinds through this destructor before
/// run_cli's catch block maps it to 130/143.
class InterruptScope {
public:
  InterruptScope() {
    interrupt_signal().store(0, std::memory_order_relaxed);
    previous_int_ = std::signal(SIGINT, handle_interrupt);
    previous_term_ = std::signal(SIGTERM, handle_interrupt);
  }
  ~InterruptScope() {
    std::signal(SIGINT, previous_int_);
    std::signal(SIGTERM, previous_term_);
    interrupt_token().reset();
  }
  InterruptScope(const InterruptScope&) = delete;
  InterruptScope& operator=(const InterruptScope&) = delete;

private:
  void (*previous_int_)(int) = nullptr;
  void (*previous_term_)(int) = nullptr;
};

// ---------------------------------------------------------------------------
// Strict numeric parsing (full consumption, no silent partial parses)
// ---------------------------------------------------------------------------

std::uint64_t parse_uint64_strict(std::string_view text,
                                  std::string_view flag) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    throw ConfigError(std::string(flag) +
                      " expects a non-negative integer, got '" +
                      std::string(text) + "'");
  }
  return value;
}

double parse_double_strict(std::string_view text, std::string_view flag) {
  std::string token{trim(text)};
  if (token.empty()) {
    throw ConfigError(std::string(flag) + " expects a number, got ''");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    throw ConfigError(std::string(flag) + " expects a number, got '" +
                      token + "'");
  }
  return value;
}

std::vector<int> parse_id_list(const std::string& text,
                               std::string_view flag) {
  std::vector<int> ids;
  if (trim(text).empty()) return ids;
  for (const std::string& piece : split(text, ',')) {
    const std::string token{trim(piece)};
    int value = 0;
    const char* const end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (token.empty() || ec != std::errc{} || ptr != end || value < 0) {
      throw ConfigError(std::string(flag) +
                        " expects a comma-separated list of non-negative "
                        "ids, got '" +
                        text + "'");
    }
    ids.push_back(value);
  }
  return ids;
}

// ---------------------------------------------------------------------------
// Shared option bundles
// ---------------------------------------------------------------------------

struct WorkloadOptions {
  std::string pattern = "message_race";
  int ranks = 8;
  int iterations = 1;
  int nodes = 1;
  int message_bytes = 1;
  double nd_percent = 100.0;
  std::uint64_t seed = 1;

  void add_to(ArgParser& parser) {
    parser.add_string("pattern", "mini-application name", &pattern);
    parser.add_int("ranks", "number of MPI processes", &ranks);
    parser.add_int("iterations", "communication pattern iterations",
                   &iterations);
    parser.add_int("nodes", "number of compute nodes", &nodes);
    parser.add_int("msg-bytes", "message payload size in bytes",
                   &message_bytes);
    parser.add_double("nd", "percentage of non-determinism [0..100]",
                      &nd_percent);
    parser.add_uint64("seed", "execution seed", &seed);
  }

  patterns::PatternConfig shape() const {
    patterns::PatternConfig config;
    config.num_ranks = ranks;
    config.iterations = iterations;
    config.message_bytes = static_cast<std::uint32_t>(message_bytes);
    return config;
  }

  sim::SimConfig sim_config() const {
    sim::SimConfig config;
    config.num_ranks = ranks;
    config.num_nodes = nodes;
    config.seed = seed;
    config.network.nd_fraction = nd_percent / 100.0;
    return config;
  }

  core::CampaignConfig campaign(int runs, const std::string& kernel,
                                const std::string& policy) const {
    core::CampaignConfig config;
    config.pattern = pattern;
    config.shape = shape();
    config.num_nodes = nodes;
    config.nd_fraction = nd_percent / 100.0;
    config.num_runs = runs;
    config.base_seed = seed;
    config.kernel = kernel;
    config.label_policy = kernels::label_policy_from_name(policy);
    return config;
  }
};

/// Fault-injection flags shared by run / measure / sweep. The drop
/// probability is kept as text because `sweep` also accepts a lo:hi:step
/// range on the same flag.
struct FaultOptions {
  std::string drop_spec;
  double dup = 0.0;
  int retries = 3;
  double timeout_us = 50.0;
  std::string stragglers;
  double straggler_factor = 4.0;
  std::string slow_nodes;
  double slow_factor = 2.0;

  void add_to(ArgParser& parser, bool sweepable_drop = false) {
    parser.add_string("fault-drop",
                      sweepable_drop
                          ? "message drop probability [0..1], or lo:hi:step "
                            "to sweep the drop axis instead of ND%"
                          : "message drop probability [0..1]",
                      &drop_spec);
    parser.add_double("fault-dup", "message duplication probability [0..1]",
                      &dup);
    parser.add_int("fault-retries",
                   "max retransmissions of a dropped message", &retries);
    parser.add_double("fault-timeout", "retransmit timeout in microseconds",
                      &timeout_us);
    parser.add_string("stragglers", "comma-separated straggler rank ids",
                      &stragglers);
    parser.add_double("straggler-factor",
                      "compute slowdown of straggler ranks", &straggler_factor);
    parser.add_string("slow-nodes", "comma-separated slow node ids",
                      &slow_nodes);
    parser.add_double("slow-factor",
                      "compute+latency slowdown of slow nodes", &slow_factor);
  }

  double scalar_drop() const {
    if (drop_spec.empty()) return 0.0;
    if (drop_spec.find(':') != std::string::npos) {
      throw ConfigError(
          "--fault-drop expects a single probability here; lo:hi:step "
          "ranges only work with `anacin sweep`");
    }
    return parse_double_strict(drop_spec, "--fault-drop");
  }

  sim::FaultConfig config(double drop_probability) const {
    sim::FaultConfig config;
    config.drop_probability = drop_probability;
    config.duplicate_probability = dup;
    config.max_retries = retries;
    config.retry_timeout_us = timeout_us;
    config.straggler_ranks = parse_id_list(stragglers, "--stragglers");
    config.straggler_multiplier = straggler_factor;
    config.slow_nodes = parse_id_list(slow_nodes, "--slow-nodes");
    config.node_slowdown_multiplier = slow_factor;
    return config;
  }

  sim::FaultConfig config() const { return config(scalar_drop()); }
};

/// Resilience flags shared by measure / sweep / rootcause / report (the
/// campaign-running commands). See docs/RESILIENCE.md.
struct ResilienceCliOptions {
  bool keep_going = false;
  int max_retries = 0;
  std::uint64_t backoff_us = 1000;
  double run_deadline_ms = 0.0;
  std::string isolate = "none";
  std::uint64_t unit_mem_limit = 0;

  void add_to(ArgParser& parser) {
    parser.add_flag("keep-going",
                    "quarantine failed work units and finish with the "
                    "survivors instead of aborting (exit 2 when partial)",
                    &keep_going);
    parser.add_int("max-retries",
                   "retries per work unit after a transient failure",
                   &max_retries);
    parser.add_uint64("backoff-us",
                      "first retry backoff in microseconds (doubles per "
                      "retry, deterministic jitter)",
                      &backoff_us);
    parser.add_double("run-deadline-ms",
                      "per-attempt wall-clock deadline (0 = none); under "
                      "--isolate=process a watchdog SIGKILLs the worker "
                      "child preemptively",
                      &run_deadline_ms);
    parser.add_string("isolate",
                      "work-unit sandbox: none | process (fork/exec'd "
                      "worker children; requires --store)",
                      &isolate);
    parser.add_uint64("unit-mem-limit",
                      "RLIMIT_AS per worker child in bytes under "
                      "--isolate=process (0 = unlimited)",
                      &unit_mem_limit);
  }

  /// The executable to fork/exec as a worker child: this binary, unless
  /// ANACIN_WORKER_EXE overrides it (tests run inside a gtest binary
  /// whose /proc/self/exe has no `__worker` command).
  static std::string worker_executable() {
    if (const char* env = std::getenv("ANACIN_WORKER_EXE");
        env != nullptr && *env != '\0') {
      return env;
    }
    std::error_code ec;
    const std::filesystem::path exe =
        std::filesystem::read_symlink("/proc/self/exe", ec);
    if (ec) {
      throw ConfigError(
          "cannot resolve /proc/self/exe for --isolate=process; set "
          "ANACIN_WORKER_EXE to the anacin binary");
    }
    return exe.string();
  }

  /// Build the worker pool for --isolate=process (nullptr for none).
  std::unique_ptr<proc::WorkerPool> make_worker_pool() const {
    const proc::IsolationMode mode = proc::isolation_mode_from_name(isolate);
    if (mode == proc::IsolationMode::kNone) {
      if (unit_mem_limit != 0) {
        throw ConfigError("--unit-mem-limit requires --isolate=process");
      }
      return nullptr;
    }
    store::ArtifactStore* store = store::active_store();
    if (store == nullptr) {
      throw ConfigError(
          "--isolate=process requires an artifact store (--store DIR or "
          "ANACIN_STORE_DIR): isolated results flow back through it");
    }
    proc::WorkerPoolConfig config;
    config.worker_exe = worker_executable();
    config.store_dir = store->objects().root().string();
    config.run_deadline_ms = run_deadline_ms;
    config.mem_limit_bytes = unit_mem_limit;
    return std::make_unique<proc::WorkerPool>(config);
  }

  /// Bundle for run_campaign; wires in the SIGINT/SIGTERM token so a
  /// signal drains in-flight units instead of killing the process
  /// mid-write. `executor` may be null (in-process execution), a worker
  /// pool (--isolate=process), or an agent fleet (`anacin serve`).
  core::ResilienceOptions options(proc::UnitExecutor* executor = nullptr)
      const {
    if (max_retries < 0) throw ConfigError("--max-retries must be >= 0");
    if (run_deadline_ms < 0.0) {
      throw ConfigError("--run-deadline-ms must be >= 0");
    }
    core::ResilienceOptions resilience;
    resilience.retry.max_retries = max_retries;
    resilience.retry.base_backoff_us = backoff_us;
    resilience.retry.run_deadline_ms = run_deadline_ms;
    resilience.keep_going = keep_going;
    resilience.cancel = &interrupt_token();
    resilience.executor = executor;
    return resilience;
  }
};

/// Prints the quarantine ledger of a partial campaign; returns the exit
/// code (kExitPartial when units were quarantined, kExitOk otherwise).
int report_quarantine(std::ostream& out, const core::CampaignResult& result) {
  if (result.complete()) return kExitOk;
  out << "PARTIAL RESULTS: " << result.quarantined.size()
      << " work unit(s) quarantined (--keep-going)\n";
  for (const core::QuarantinedUnit& unit : result.quarantined) {
    out << "  quarantined " << unit.unit << " after " << unit.attempts
        << " attempt(s): " << unit.error << '\n';
    if (unit.has_triage) {
      out << "    triage: " << unit.triage.disposition;
      if (!unit.triage.signal.empty()) {
        out << " signal=" << unit.triage.signal;
      }
      if (unit.triage.exit_status >= 0) {
        out << " exit=" << unit.triage.exit_status;
      }
      out << " peak_rss_kib=" << unit.triage.peak_rss_kib << '\n';
    }
  }
  return kExitPartial;
}

/// Rebuilds a Summary from the "summary" object of a journaled
/// CampaignResult::to_json() payload (resumed sweep points print and
/// export without recomputing anything).
analysis::Summary summary_from_json(const json::Value& doc) {
  analysis::Summary summary;
  summary.count = static_cast<std::size_t>(doc.at("count").as_number());
  summary.mean = doc.at("mean").as_number();
  summary.stddev = doc.at("stddev").as_number();
  summary.min = doc.at("min").as_number();
  summary.q1 = doc.at("q1").as_number();
  summary.median = doc.at("median").as_number();
  summary.q3 = doc.at("q3").as_number();
  summary.max = doc.at("max").as_number();
  return summary;
}

/// A lo:hi:step range on --fault-drop (sweep only); nullopt for scalars.
struct DropRange {
  double lo = 0.0;
  double hi = 0.0;
  double step = 0.0;
};

std::optional<DropRange> parse_drop_range(const std::string& spec) {
  if (spec.find(':') == std::string::npos) return std::nullopt;
  const auto parts = split(spec, ':');
  if (parts.size() != 3) {
    throw ConfigError("--fault-drop range must be lo:hi:step, got '" + spec +
                      "'");
  }
  DropRange range;
  range.lo = parse_double_strict(parts[0], "--fault-drop");
  range.hi = parse_double_strict(parts[1], "--fault-drop");
  range.step = parse_double_strict(parts[2], "--fault-drop");
  if (!(range.lo >= 0.0 && range.hi <= 1.0 && range.lo <= range.hi)) {
    throw ConfigError("--fault-drop range must satisfy 0 <= lo <= hi <= 1");
  }
  if (!(range.step > 0.0)) {
    throw ConfigError("--fault-drop range step must be positive");
  }
  return range;
}

void print_summary(std::ostream& out, const std::string& label,
                   const analysis::Summary& summary) {
  out << pad_right(label, 22) << " n=" << summary.count
      << " median=" << format_fixed(summary.median, 3)
      << " mean=" << format_fixed(summary.mean, 3)
      << " q1=" << format_fixed(summary.q1, 3)
      << " q3=" << format_fixed(summary.q3, 3)
      << " max=" << format_fixed(summary.max, 3) << '\n';
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

int cmd_patterns(const std::vector<const char*>& argv, std::ostream& out) {
  ArgParser parser("anacin patterns — list packaged mini-applications");
  if (!parser.parse(static_cast<int>(argv.size()), argv.data())) return 0;
  for (const std::string& name : patterns::pattern_names()) {
    const auto pattern = patterns::make_pattern(name);
    out << pad_right(name, 20) << pattern->description() << '\n';
  }
  return 0;
}

int cmd_run(const std::vector<const char*>& argv, std::ostream& out) {
  WorkloadOptions workload;
  FaultOptions faults;
  std::string trace_out;
  std::string svg_out;
  bool ascii = false;
  bool metrics = false;
  ArgParser parser("anacin run — simulate one execution of a mini-app");
  workload.add_to(parser);
  faults.add_to(parser);
  parser.add_string("trace-out", "write the trace as JSON", &trace_out);
  parser.add_string("svg", "render the event graph to an SVG file", &svg_out);
  parser.add_flag("ascii", "print an ASCII event graph", &ascii);
  parser.add_flag("metrics", "print structural metrics", &metrics);
  if (!parser.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  sim::SimConfig sim_config = workload.sim_config();
  sim_config.faults = faults.config();
  const sim::RunResult result =
      core::run_pattern_once(workload.pattern, workload.shape(), sim_config);
  out << "pattern=" << workload.pattern << " ranks=" << workload.ranks
      << " nd=" << workload.nd_percent << "% seed=" << workload.seed << '\n';
  out << "events=" << result.trace.total_events()
      << " messages=" << result.stats.messages
      << " wildcard_recvs=" << result.stats.wildcard_recvs
      << " makespan_us=" << format_fixed(result.stats.makespan_us, 2) << '\n';
  if (sim_config.faults.enabled()) {
    out << "faults: drops=" << result.stats.drops
        << " retries=" << result.stats.retries
        << " duplicates=" << result.stats.duplicates
        << " straggler_events=" << result.stats.straggler_events << '\n';
  }

  const graph::EventGraph event_graph =
      graph::EventGraph::from_trace(result.trace);
  if (ascii) out << viz::ascii_event_graph(event_graph);
  if (metrics) {
    const graph::CommMatrix matrix =
        graph::communication_matrix(event_graph);
    out << "\ncommunication matrix (messages):\n"
        << viz::ascii_comm_matrix(matrix);
    const graph::CriticalPath path = graph::critical_path(event_graph);
    out << "critical path: " << path.nodes.size() << " events, "
        << format_fixed(path.virtual_duration, 2) << " us, recv share "
        << format_fixed(path.recv_share * 100.0, 1) << "%\n";
  }
  if (!trace_out.empty()) {
    core::write_json_file(trace_out, result.trace.to_json());
    out << "trace written to " << trace_out << '\n';
  }
  if (!svg_out.empty()) {
    viz::render_event_graph(event_graph).save(svg_out);
    out << "event graph written to " << svg_out << '\n';
  }
  return 0;
}

int cmd_graph(const std::vector<const char*>& argv, std::ostream& out) {
  std::string trace_in;
  std::string svg_out;
  bool no_ascii = false;
  bool metrics = false;
  ArgParser parser("anacin graph — inspect a saved trace");
  parser.add_string("trace", "trace JSON file (from `anacin run`)",
                    &trace_in);
  parser.add_string("svg", "render the event graph to an SVG file", &svg_out);
  parser.add_flag("metrics", "print structural metrics", &metrics);
  parser.add_flag("no-ascii", "suppress the ASCII rendering", &no_ascii);
  if (!parser.parse(static_cast<int>(argv.size()), argv.data())) return 0;
  if (trace_in.empty()) throw ConfigError("--trace is required");

  const trace::Trace trace =
      trace::Trace::from_json(json::parse(core::read_text_file(trace_in)));
  const graph::EventGraph event_graph = graph::EventGraph::from_trace(trace);
  out << "ranks=" << event_graph.num_ranks()
      << " nodes=" << event_graph.num_nodes()
      << " messages=" << event_graph.message_edges().size()
      << " max_lamport=" << event_graph.max_lamport() << '\n';
  if (!no_ascii) out << viz::ascii_event_graph(event_graph);
  if (metrics) {
    out << "\ncommunication matrix (messages):\n"
        << viz::ascii_comm_matrix(graph::communication_matrix(event_graph));
  }
  if (!svg_out.empty()) {
    viz::render_event_graph(event_graph).save(svg_out);
    out << "event graph written to " << svg_out << '\n';
  }
  return 0;
}

int cmd_measure(const std::vector<const char*>& argv, std::ostream& out) {
  WorkloadOptions workload;
  FaultOptions faults;
  ResilienceCliOptions resilience;
  int runs = 20;
  std::string kernel = "wl:2";
  std::string policy = "type_peer";
  std::string reduction = "to_reference";
  std::string csv_out;
  std::string violin_out;
  std::string json_out;
  ArgParser parser("anacin measure — quantify a mini-app's non-determinism");
  workload.add_to(parser);
  faults.add_to(parser);
  resilience.add_to(parser);
  parser.add_int("runs", "number of independent executions", &runs);
  parser.add_string("kernel", "graph kernel (wl[:h], vertex_histogram, ...)",
                    &kernel);
  parser.add_string("policy", "node label policy", &policy);
  parser.add_string("reduction", "to_reference | pairwise", &reduction);
  parser.add_string("csv", "write the distance sample as CSV", &csv_out);
  parser.add_string("violin", "write a violin plot SVG", &violin_out);
  parser.add_string("json", "write the full measurement result as JSON",
                    &json_out);
  if (!parser.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  core::CampaignConfig config = workload.campaign(runs, kernel, policy);
  config.faults = faults.config();
  if (reduction == "pairwise") {
    config.reduction = analysis::DistanceReduction::kPairwise;
  } else if (reduction != "to_reference") {
    throw ConfigError("unknown reduction '" + reduction + "'");
  }
  InterruptScope interrupt;
  ThreadPool pool;
  const std::unique_ptr<proc::WorkerPool> workers =
      resilience.make_worker_pool();
  const core::CampaignResult result =
      core::run_campaign(config, pool, store::active_store(),
                         resilience.options(workers.get()));
  print_summary(out, workload.pattern, result.distance_summary);
  const auto num_runs = static_cast<std::uint64_t>(config.num_runs);
  out << "messages/run=" << result.total_messages / num_runs
      << " wildcard recvs/run=" << result.total_wildcard_recvs / num_runs
      << '\n';
  if (config.faults.enabled()) {
    out << "faults: drops=" << result.total_drops
        << " duplicates=" << result.total_duplicates
        << " straggler_events=" << result.total_straggler_events << '\n';
  }

  if (!result.measurement.distances.empty()) {
    const analysis::BootstrapCi ci = analysis::bootstrap_ci(
        result.measurement.distances,
        [](std::span<const double> v) { return analysis::median(v); });
    out << "median 95% CI: [" << format_fixed(ci.lower, 3) << ", "
        << format_fixed(ci.upper, 3) << "]\n";
  }

  if (!csv_out.empty()) {
    core::CsvWriter csv({"run", "kernel_distance"});
    for (std::size_t i = 0; i < result.measurement.distances.size(); ++i) {
      csv.add_row({std::to_string(i),
                   format_fixed(result.measurement.distances[i], 6)});
    }
    csv.save(csv_out);
    out << "distances written to " << csv_out << '\n';
  }
  if (!json_out.empty()) {
    core::write_json_file(json_out, result.to_json());
    out << "measurement written to " << json_out << '\n';
  }
  if (!violin_out.empty() && !result.measurement.distances.empty()) {
    viz::violin_plot({{workload.pattern,
                       analysis::gaussian_kde(result.measurement.distances)}},
                     {.width = 420,
                      .height = 360,
                      .title = "kernel distance: " + workload.pattern,
                      .x_label = "",
                      .y_label = "kernel distance"})
        .save(violin_out);
    out << "violin written to " << violin_out << '\n';
  }
  return report_quarantine(out, result);
}

/// The sweep work description shared by `sweep` (local / --isolate) and
/// `serve` (distributed): both enumerate the same points and run the same
/// journaled loop — only the UnitExecutor differs, which is exactly why
/// distributed reports are byte-identical to local ones.
struct SweepCliOptions {
  WorkloadOptions workload;
  FaultOptions faults;
  ResilienceCliOptions resilience;
  int runs = 10;
  int step = 10;
  std::string kernel = "wl:2";
  std::string csv_out;
  std::string json_out;
  std::string journal_path;
  bool resume = false;

  SweepCliOptions() {
    workload.pattern = "amg2013";
    workload.ranks = 16;
  }

  void add_to(ArgParser& parser) {
    workload.add_to(parser);
    faults.add_to(parser, /*sweepable_drop=*/true);
    resilience.add_to(parser);
    parser.add_int("runs", "executions per setting", &runs);
    parser.add_int("step", "ND percentage increment", &step);
    parser.add_string("kernel", "graph kernel", &kernel);
    parser.add_string("csv", "write the sweep as CSV", &csv_out);
    parser.add_string("json", "write every point's full result as JSON",
                      &json_out);
    parser.add_string("journal",
                      "crash-consistent journal of completed sweep points "
                      "(written after every point; enables --resume)",
                      &journal_path);
    parser.add_flag("resume",
                    "replay points already in the journal, compute only the "
                    "rest (a killed sweep continues where it stopped)",
                    &resume);
  }
};

/// The journaled sweep loop, shared by cmd_sweep and cmd_serve. The caller
/// owns the InterruptScope and the executor's lifetime.
int run_sweep(std::ostream& out, SweepCliOptions& options,
              proc::UnitExecutor* executor) {
  WorkloadOptions& workload = options.workload;
  FaultOptions& faults = options.faults;
  ResilienceCliOptions& resilience = options.resilience;
  const int runs = options.runs;
  const int step = options.step;
  const std::string& kernel = options.kernel;
  const std::string& csv_out = options.csv_out;
  const std::string& json_out = options.json_out;
  std::string& journal_path = options.journal_path;
  const bool resume = options.resume;
  if (step < 1 || step > 100) throw ConfigError("step must be in [1,100]");

  ThreadPool pool;
  const std::optional<DropRange> drop_range =
      parse_drop_range(faults.drop_spec);

  // Enumerate every point's full config up front: the journal key must
  // cover the exact work list, so a journal recorded for a different
  // sweep (other pattern, runs, axis, ...) can never be replayed here.
  struct Point {
    std::string label;
    double axis = 0.0;
    core::CampaignConfig config;
  };
  std::vector<Point> points;
  if (drop_range) {
    // Fault sweep: ND% stays at --nd, the drop probability is the axis.
    const int count = static_cast<int>(
        std::llround((drop_range->hi - drop_range->lo) / drop_range->step));
    for (int i = 0; i <= count; ++i) {
      const double p = std::min(
          drop_range->lo + static_cast<double>(i) * drop_range->step, 1.0);
      core::CampaignConfig config =
          workload.campaign(runs, kernel, "type_peer");
      config.faults = faults.config(p);
      points.push_back({"drop " + format_fixed(p, 2), p, std::move(config)});
    }
  } else {
    for (int percent = 0; percent <= 100; percent += step) {
      core::CampaignConfig config =
          workload.campaign(runs, kernel, "type_peer");
      config.nd_fraction = percent / 100.0;
      config.faults = faults.config();
      points.push_back({std::to_string(percent) + "% ND",
                        static_cast<double>(percent), std::move(config)});
    }
  }

  json::Value key_doc = json::Value::array();
  for (const Point& point : points) key_doc.push_back(point.config.to_json());
  const std::string campaign_key = store::digest_json(key_doc).to_hex();

  std::unique_ptr<core::CampaignJournal> journal;
  if (resume || !journal_path.empty()) {
    if (journal_path.empty()) {
      // Default next to the artifact store when one is active — resumable
      // sweeps want the store anyway (it covers the half-finished point).
      const store::ArtifactStore* store = store::active_store();
      const std::filesystem::path dir =
          store != nullptr
              ? store->objects().root() / "journal"
              : std::filesystem::path(".");
      journal_path =
          (dir / ("sweep-" + campaign_key.substr(0, 16) + ".jsonl")).string();
    }
    if (!resume) {
      // A fresh (non-resume) sweep must not inherit a stale journal.
      std::error_code ec;
      std::filesystem::remove(journal_path, ec);
    }
    journal = std::make_unique<core::CampaignJournal>(journal_path,
                                                      campaign_key);
    if (resume) {
      out << "resume: " << journal->size() << " of " << points.size()
          << " points journaled at " << journal_path << '\n';
    }
  }

  std::vector<double> axis;
  std::vector<double> medians;
  std::optional<core::CsvWriter> csv;
  if (!csv_out.empty()) {
    csv.emplace(std::vector<std::string>{
        drop_range ? "drop_probability" : "nd_percent", "median", "mean"});
  }
  json::Value points_json = json::Value::array();
  std::size_t quarantined_units = 0;
  bool interrupted = false;

  for (const Point& point : points) {
    if (interrupt_token().cancelled()) {
      interrupted = true;
      break;
    }
    const std::string point_key =
        store::digest_json(point.config.to_json()).to_hex();
    const json::Value* replay =
        journal != nullptr && resume ? journal->lookup(point_key) : nullptr;
    json::Value result_json;
    analysis::Summary summary;
    if (replay != nullptr) {
      result_json = *replay;
      summary = summary_from_json(result_json.at("summary"));
      obs::counter("resilience.points_replayed").add(1);
    } else {
      core::CampaignResult result;
      try {
        result = core::run_campaign(point.config, pool,
                                    store::active_store(),
                                    resilience.options(executor));
      } catch (const InterruptedError&) {
        interrupted = true;
        break;
      }
      result_json = result.to_json();
      summary = result.distance_summary;
      if (journal != nullptr) journal->record(point_key, result_json);
    }
    quarantined_units +=
        result_json.at("resilience").at("quarantined").size();
    print_summary(out, point.label, summary);
    axis.push_back(point.axis);
    medians.push_back(summary.median);
    if (csv) {
      csv->add_row({format_fixed(point.axis, drop_range ? 4 : 0),
                    format_fixed(summary.median, 4),
                    format_fixed(summary.mean, 4)});
    }
    json::Value entry = json::Value::object();
    entry.set("label", point.label);
    entry.set("axis", point.axis);
    entry.set("result", std::move(result_json));
    points_json.push_back(std::move(entry));
  }

  double spearman = 0.0;
  if (!interrupted) {
    spearman = analysis::spearman(axis, medians);
    out << (drop_range ? "Spearman(median, drop) = "
                       : "Spearman(median, nd%) = ")
        << format_fixed(spearman, 3) << '\n';
  } else {
    out << "interrupted: " << axis.size() << " of " << points.size()
        << " points completed";
    if (journal != nullptr) out << " (journaled; rerun with --resume)";
    out << '\n';
  }
  if (csv) {
    csv->save(csv_out);
    out << "sweep written to " << csv_out << '\n';
  }
  if (!json_out.empty()) {
    json::Value doc = json::Value::object();
    doc.set("complete", !interrupted && quarantined_units == 0);
    doc.set("points", std::move(points_json));
    if (!interrupted) doc.set("spearman", spearman);
    core::write_json_file(json_out, doc);
    out << "sweep json written to " << json_out << '\n';
  }
  if (interrupted) return interrupted_exit_code();
  if (quarantined_units > 0) {
    out << "PARTIAL RESULTS: " << quarantined_units
        << " work unit(s) quarantined across the sweep (--keep-going)\n";
    return kExitPartial;
  }
  return kExitOk;
}

int cmd_sweep(const std::vector<const char*>& argv, std::ostream& out) {
  SweepCliOptions options;
  ArgParser parser(
      "anacin sweep — kernel distance vs ND% (paper Fig 7), or vs message "
      "drop probability when --fault-drop is a lo:hi:step range");
  options.add_to(parser);
  if (!parser.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  InterruptScope interrupt;
  const std::unique_ptr<proc::WorkerPool> workers =
      options.resilience.make_worker_pool();
  return run_sweep(out, options, workers.get());
}

int cmd_serve(const std::vector<const char*>& argv, std::ostream& out) {
  SweepCliOptions options;
  // Agent loss is expected in a fleet; default to re-queueing a unit a few
  // times (on surviving agents) before giving up, unlike local sweeps
  // where a transient failure usually means a bug.
  options.resilience.max_retries = 3;
  std::string bind = "127.0.0.1";
  int port = 0;
  int agents = 1;
  std::string port_file;
  double heartbeat_timeout_ms = 10'000.0;
  double unit_lease_ms = 30'000.0;
  int max_inflight = 0;
  ArgParser parser(
      "anacin serve — run a sweep as a scheduler farming work units to "
      "`anacin agent` fleets over TCP (see docs/DISTRIBUTED.md)");
  options.add_to(parser);
  parser.add_string("bind", "listener address (IPv4 literal)", &bind);
  parser.add_int("port", "listener port (0 = ephemeral; see --port-file)",
                 &port);
  parser.add_int("agents", "wait for this many agents before starting",
                 &agents);
  parser.add_string("port-file",
                    "write the bound port to FILE once listening (how "
                    "tests and scripts discover an ephemeral port)",
                    &port_file);
  parser.add_double("agent-heartbeat-timeout-ms",
                    "close an agent connection after this long without a "
                    "frame while a unit is in flight, forcing a reconnect "
                    "(0 = never)",
                    &heartbeat_timeout_ms);
  parser.add_double("unit-lease-ms",
                    "how long a disconnected agent session may take to "
                    "reconnect and resume before its unit is re-queued",
                    &unit_lease_ms);
  parser.add_int("net-max-inflight",
                 "at most this many units on the fabric at once "
                 "(0 = unbounded)",
                 &max_inflight);
  if (!parser.parse(static_cast<int>(argv.size()), argv.data())) return 0;
  ANACIN_CHECK(agents >= 1, "--agents must be >= 1");
  ANACIN_CHECK(port >= 0 && port <= 65535, "--port must be in [0,65535]");
  ANACIN_CHECK(unit_lease_ms > 0.0, "--unit-lease-ms must be > 0");
  ANACIN_CHECK(max_inflight >= 0, "--net-max-inflight must be >= 0");
  ANACIN_CHECK(options.resilience.isolate == "none",
               "serve farms units to remote agents; --isolate does not "
               "compose with it");
  store::ArtifactStore* store = store::active_store();
  if (store == nullptr) {
    throw ConfigError(
        "serve requires an artifact store (--store DIR or "
        "ANACIN_STORE_DIR): distributed results flow back through it");
  }

  InterruptScope interrupt;
  net::AgentServerConfig server_config;
  server_config.bind_host = bind;
  server_config.port = static_cast<std::uint16_t>(port);
  server_config.heartbeat_timeout_ms = heartbeat_timeout_ms;
  server_config.unit_lease_ms = unit_lease_ms;
  server_config.max_inflight = static_cast<std::size_t>(max_inflight);
  net::AgentServer server(server_config, *store);
  out << "serve: listening on " << bind << ":" << server.port() << '\n';
  if (!port_file.empty()) {
    support::atomic_write_file(port_file, std::to_string(server.port()));
  }
  out << "serve: waiting for " << agents << " agent(s)\n";
  while (!server.wait_for_agents(static_cast<std::size_t>(agents), 100)) {
    if (interrupt_token().cancelled()) return interrupted_exit_code();
  }
  out << "serve: " << server.agent_count() << " agent(s) connected\n";
  return run_sweep(out, options, &server);
}

int cmd_agent(const std::vector<const char*>& argv, std::ostream& out) {
  std::string connect;
  std::string name;
  double heartbeat_ms = 50.0;
  std::uint64_t max_units = 0;
  int reconnect_max = 5;
  double reconnect_backoff_ms = 100.0;
  ArgParser parser(
      "anacin agent — join an `anacin serve` scheduler and execute its "
      "work units against the local artifact store");
  parser.add_string("connect", "scheduler address as HOST:PORT", &connect);
  parser.add_string("name", "agent name in scheduler diagnostics", &name);
  parser.add_double("heartbeat-ms", "heartbeat interval while executing",
                    &heartbeat_ms);
  parser.add_uint64("max-units",
                    "exit after this many units (0 = until the scheduler "
                    "hangs up; tests use 1 to exercise re-queueing)",
                    &max_units);
  parser.add_int("reconnect-max",
                 "give up after this many consecutive failed (re)connect "
                 "attempts",
                 &reconnect_max);
  parser.add_double("reconnect-backoff-ms",
                    "base of the seeded exponential reconnect backoff",
                    &reconnect_backoff_ms);
  if (!parser.parse(static_cast<int>(argv.size()), argv.data())) return 0;
  ANACIN_CHECK(heartbeat_ms > 0.0, "--heartbeat-ms must be > 0");
  ANACIN_CHECK(reconnect_max >= 1, "--reconnect-max must be >= 1");
  ANACIN_CHECK(reconnect_backoff_ms >= 0.0,
               "--reconnect-backoff-ms must be >= 0");
  const auto colon = connect.rfind(':');
  if (connect.empty() || colon == std::string::npos || colon == 0 ||
      colon + 1 == connect.size()) {
    throw ConfigError("--connect expects HOST:PORT, got '" + connect + "'");
  }
  const std::uint64_t port =
      parse_uint64_strict(connect.substr(colon + 1), "--connect port");
  ANACIN_CHECK(port >= 1 && port <= 65535,
               "--connect port must be in [1,65535]");
  store::ArtifactStore* store = store::active_store();
  if (store == nullptr) {
    throw ConfigError(
        "agent requires a local artifact store (--store DIR or "
        "ANACIN_STORE_DIR): it executes units against it and ships "
        "objects from it");
  }

  net::AgentConfig config;
  config.host = connect.substr(0, colon);
  config.port = static_cast<std::uint16_t>(port);
  config.name = name;
  config.heartbeat_interval_ms = heartbeat_ms;
  config.max_units = max_units;
  config.reconnect_max = reconnect_max;
  config.reconnect_backoff_ms = reconnect_backoff_ms;
  out << "agent: joining " << config.host << ":" << config.port << '\n';
  return net::run_agent(*store, config);
}

int cmd_rootcause(const std::vector<const char*>& argv, std::ostream& out) {
  WorkloadOptions workload;
  workload.pattern = "amg2013";
  workload.ranks = 16;
  int runs = 8;
  int slice_window = 16;
  double hot_fraction = 0.5;
  std::string bar_out;
  ArgParser parser(
      "anacin rootcause — callstacks in high-ND regions (paper Fig 8)");
  workload.add_to(parser);
  parser.add_int("runs", "executions to compare", &runs);
  parser.add_int("slice-window", "logical-time slice width", &slice_window);
  parser.add_double("hot-fraction", "fraction of the peak that counts as hot",
                    &hot_fraction);
  parser.add_string("bar", "write a bar chart SVG", &bar_out);
  if (!parser.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  ThreadPool pool;
  const core::CampaignConfig config =
      workload.campaign(runs, "wl:2", "type_peer");
  std::vector<graph::EventGraph> graphs;
  core::run_campaign(config, pool, store::active_store(), {}, &graphs);
  analysis::RootCauseConfig root_config;
  root_config.slice_window = static_cast<std::uint64_t>(slice_window);
  root_config.hot_fraction = hot_fraction;
  const auto kernel = kernels::make_kernel(config.kernel);
  const analysis::RootCauseReport report = analysis::find_root_causes(
      *kernel, config.label_policy, graphs, root_config, pool);

  if (report.callstacks.empty()) {
    out << "no divergence found — the application appears deterministic at "
           "these settings\n";
    return 0;
  }
  out << "hot slices: " << report.hot_slices.size() << " of "
      << report.profile.distance.size() << '\n';
  std::vector<std::string> labels;
  std::vector<double> values;
  std::vector<viz::Bar> bars;
  for (const auto& entry : report.callstacks) {
    labels.push_back(entry.path);
    values.push_back(entry.frequency);
    bars.push_back({entry.path, entry.frequency});
  }
  out << viz::ascii_bar_chart(labels, values);
  out << "likely root source: " << report.callstacks.front().path << '\n';
  if (!bar_out.empty()) {
    viz::bar_plot(bars, {.width = 720,
                         .height = 300,
                         .title = "callstacks in high-ND regions",
                         .x_label = "normalized relative frequency",
                         .y_label = ""})
        .save(bar_out);
    out << "bar chart written to " << bar_out << '\n';
  }
  return 0;
}

int cmd_replay(const std::vector<const char*>& argv, std::ostream& out) {
  WorkloadOptions workload;
  std::uint64_t replay_seed = 9999;
  std::string schedule_out;
  ArgParser parser("anacin replay — record one run, replay under new noise");
  workload.add_to(parser);
  parser.add_uint64("replay-seed", "noise seed for the replayed run",
                    &replay_seed);
  parser.add_string("schedule-out", "write the recorded schedule as JSON",
                    &schedule_out);
  if (!parser.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  const sim::RankProgram program =
      patterns::make_pattern(workload.pattern)->program(workload.shape());
  sim::SimConfig replay_config = workload.sim_config();
  replay_config.seed = replay_seed;
  const replay::RecordReplayResult rr = replay::record_and_replay(
      workload.sim_config(), replay_config, program);

  const sim::ReplaySchedule schedule =
      replay::record_schedule(rr.recorded.trace);
  out << "recorded wildcard matches: " << schedule.total_matches() << '\n';

  const auto kernel = kernels::make_kernel("wl:2");
  const double distance = kernel->distance(
      kernels::build_labeled_graph(
          graph::EventGraph::from_trace(rr.recorded.trace),
          kernels::LabelPolicy::kTypePeer),
      kernels::build_labeled_graph(
          graph::EventGraph::from_trace(rr.replayed.trace),
          kernels::LabelPolicy::kTypePeer));
  out << "kernel distance(recorded, replayed) = " << distance << '\n';
  out << (distance == 0.0 ? "replay reproduced the recorded matching exactly"
                          : "replay diverged (unexpected)")
      << '\n';
  if (!schedule_out.empty()) {
    core::write_json_file(schedule_out, replay::schedule_to_json(schedule));
    out << "schedule written to " << schedule_out << '\n';
  }
  return distance == 0.0 ? 0 : 1;
}

int cmd_bisect(const std::vector<const char*>& argv, std::ostream& out) {
  WorkloadOptions workload;
  FaultOptions faults;
  ResilienceCliOptions resilience;
  std::uint64_t replay_seed = 9999;
  double target = 0.9;
  std::string kernel = "wl:2";
  std::string policy = "type_peer";
  std::uint64_t slice_window = 16;
  std::string json_out;
  std::string bar_out;
  ArgParser parser(
      "anacin bisect — delta-debug the recorded wildcard matches down to a "
      "minimal racy set and rank its root causes (see docs/REPLAY.md)");
  workload.add_to(parser);
  faults.add_to(parser);
  resilience.add_to(parser);
  parser.add_uint64("replay-seed",
                    "noise seed of the candidate replays (must differ from "
                    "--seed, or there is no gap to bisect)",
                    &replay_seed);
  parser.add_double("target",
                    "fraction of the all-freed distance a candidate must "
                    "reproduce to count as racy [0..1]",
                    &target);
  parser.add_string("kernel", "graph kernel (wl[:h], vertex_histogram, ...)",
                    &kernel);
  parser.add_string("policy", "node label policy", &policy);
  parser.add_uint64("slice-window", "logical-time slice width of the report",
                    &slice_window);
  parser.add_string("json", "write the full bisection result as JSON",
                    &json_out);
  parser.add_string("bar", "write the ranked report as a bar chart SVG",
                    &bar_out);
  if (!parser.parse(static_cast<int>(argv.size()), argv.data())) return 0;
  // Every candidate's distance is load-bearing for convergence, so there is
  // no partial-results mode to keep going into.
  if (resilience.keep_going) {
    throw ConfigError(
        "bisect cannot skip failed candidates; --keep-going is not "
        "supported here");
  }

  replay::BisectConfig config;
  config.pattern = workload.pattern;
  config.shape = workload.shape();
  config.record_sim = workload.sim_config();
  config.record_sim.faults = faults.config();
  config.replay_seed = replay_seed;
  config.kernel_spec = kernel;
  config.label_policy = kernels::label_policy_from_name(policy);
  config.target_fraction = target;
  config.slice_window = slice_window;
  config.retry = resilience.options().retry;

  InterruptScope interrupt;
  ThreadPool pool;
  const std::unique_ptr<proc::WorkerPool> workers =
      resilience.make_worker_pool();
  const replay::BisectResult result =
      replay::bisect(config, pool, workers.get(), &interrupt_token());

  out << "recorded wildcard matches: " << result.schedule.total_matches()
      << '\n';
  out << "full gap (all matches freed): " << format_fixed(result.full_gap, 3)
      << '\n';
  if (result.minimal.empty()) {
    out << "no racy matches found — replays reproduce the recording at "
           "these settings\n";
  } else {
    out << "minimal racy set: " << result.minimal.size() << " of "
        << result.schedule.total_matches() << " matches (" << result.rounds
        << " round(s), " << result.candidates << " candidate replay(s))\n";
    out << "achieved " << format_fixed(result.achieved, 3) << " = "
        << format_fixed(100.0 * result.achieved / result.full_gap, 1)
        << "% of the gap\n";
    std::vector<std::string> labels;
    std::vector<double> values;
    std::vector<viz::Bar> bars;
    for (const replay::RacyMatch& match : result.report) {
      out << "  rank " << match.rank << " recv#" << match.recv_seq
          << " <- rank " << match.source << " (slice " << match.slice
          << ")  " << match.callsite
          << "  contribution=" << format_fixed(match.contribution, 3) << '\n';
      const std::string label = match.callsite + " [r" +
                                std::to_string(match.rank) + " s" +
                                std::to_string(match.slice) + "]";
      labels.push_back(label);
      values.push_back(match.contribution);
      bars.push_back({label, match.contribution});
    }
    out << viz::ascii_bar_chart(labels, values);
    out << "likely root cause: " << result.report.front().callsite << '\n';
    if (!bar_out.empty()) {
      viz::bar_plot(bars, {.width = 720,
                           .height = 90.0 + 34.0 * bars.size(),
                           .title = "minimal racy matches: " +
                                    workload.pattern,
                           .x_label = "standalone kernel-distance "
                                      "contribution",
                           .y_label = ""})
          .save(bar_out);
      out << "bar chart written to " << bar_out << '\n';
    }
  }
  if (!json_out.empty()) {
    core::write_json_file(json_out, replay::bisect_to_json(config, result));
    out << "bisection written to " << json_out << '\n';
  }
  return kExitOk;
}

int cmd_figures(const std::vector<const char*>& argv, std::ostream& out) {
  std::string id;
  ArgParser parser("anacin figures — index of reproduced paper items");
  parser.add_string("id", "show one item (tab1, fig1..fig8)", &id);
  if (!parser.parse(static_cast<int>(argv.size()), argv.data())) return 0;
  if (id.empty()) {
    out << core::render_experiment_index();
    return 0;
  }
  const core::ExperimentInfo* experiment = core::find_experiment(id);
  if (experiment == nullptr) {
    throw ConfigError("unknown experiment id '" + id + "' (try tab1, fig1..fig8)");
  }
  out << experiment->paper_item << ": " << experiment->title << '\n'
      << "workload: " << experiment->workload << '\n'
      << "bench:    build/bench/" << experiment->bench_target << '\n'
      << "expected: " << experiment->expected_shape << '\n';
  for (const std::string& artifact : experiment->artifacts) {
    out << "artifact: results/" << artifact << '\n';
  }
  return 0;
}

int cmd_report(const std::vector<const char*>& argv, std::ostream& out) {
  WorkloadOptions workload;
  workload.pattern = "amg2013";
  workload.ranks = 16;
  int runs = 10;
  std::string out_path = "anacin_report.html";
  ArgParser parser(
      "anacin report — one-stop HTML analysis of an application's "
      "non-determinism (the packaged-notebook workflow)");
  workload.add_to(parser);
  parser.add_int("runs", "executions to sample", &runs);
  parser.add_string("out", "output HTML path", &out_path);
  if (!parser.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  ThreadPool pool;
  const core::CampaignConfig config =
      workload.campaign(runs, "wl:2", "type_peer");
  std::vector<graph::EventGraph> graphs;
  const core::CampaignResult campaign =
      core::run_campaign(config, pool, store::active_store(), {}, &graphs);
  const auto kernel = kernels::make_kernel(config.kernel);
  const auto num_runs = static_cast<std::uint64_t>(config.num_runs);

  core::HtmlReport report("Non-determinism analysis: " + workload.pattern);
  report.add_paragraph(
      "Generated by `anacin report`. The kernel distance between event "
      "graphs of repeated executions is the proxy metric for "
      "non-determinism: identical runs have distance 0.");
  report.add_table({
      {"pattern", workload.pattern},
      {"MPI processes", std::to_string(workload.ranks)},
      {"compute nodes", std::to_string(workload.nodes)},
      {"iterations", std::to_string(workload.iterations)},
      {"% non-determinism", format_fixed(workload.nd_percent, 0)},
      {"executions", std::to_string(runs)},
      {"kernel", config.kernel},
      {"median kernel distance",
       format_fixed(campaign.distance_summary.median, 3)},
      {"max kernel distance",
       format_fixed(campaign.distance_summary.max, 3)},
      {"messages per run", std::to_string(campaign.total_messages / num_runs)},
      {"wildcard receives per run",
       std::to_string(campaign.total_wildcard_recvs / num_runs)},
  });

  report.add_heading("Kernel-distance distribution");
  report.add_figure(
      viz::violin_plot({{workload.pattern,
                         analysis::gaussian_kde(
                             campaign.measurement.distances)}},
                       {.width = 420,
                        .height = 340,
                        .title = "",
                        .x_label = "",
                        .y_label = "kernel distance to reference"}),
      std::to_string(runs) + " executions vs a jitter-free reference run");

  report.add_heading("One execution, visualized");
  const graph::EventGraph& sample = graphs.front();
  if (sample.num_nodes() <= 400) {
    report.add_figure(viz::render_event_graph(sample),
                      "event graph of the first sampled run");
  } else {
    report.add_preformatted(viz::ascii_event_graph(sample, 8));
  }
  report.add_figure(
      viz::comm_matrix_heatmap(graph::communication_matrix(sample)),
      "message counts per (sender, receiver) pair");

  report.add_heading("Where the runs diverge (root-cause analysis)");
  const analysis::RootCauseReport causes = analysis::find_root_causes(
      *kernel, config.label_policy, graphs, {}, pool);
  if (causes.callstacks.empty()) {
    report.add_paragraph(
        "No divergence detected: the application behaved deterministically "
        "at these settings.");
  } else {
    std::vector<viz::Point> profile;
    for (std::size_t s = 0; s < causes.profile.distance.size(); ++s) {
      profile.push_back(
          {static_cast<double>(s), causes.profile.distance[s]});
    }
    report.add_figure(
        viz::line_plot({{"divergence", profile}},
                       {.width = 620,
                        .height = 280,
                        .title = "",
                        .x_label = "logical-time slice",
                        .y_label = "mean pairwise distance"}),
        "divergence across logical time; peaks are the high-ND regions");
    std::vector<viz::Bar> bars;
    for (const auto& entry : causes.callstacks) {
      bars.push_back({entry.path, entry.frequency});
    }
    report.add_figure(
        viz::bar_plot(bars, {.width = 700,
                             .height = 90.0 + 34.0 * bars.size(),
                             .title = "",
                             .x_label = "normalized relative frequency",
                             .y_label = ""}),
        "call paths of divergent events inside the high-ND regions — the "
        "likely root sources");
    report.add_paragraph("Likely root source: " +
                         causes.callstacks.front().path);
  }

  report.add_heading("Pipeline observability");
  report.add_paragraph(
      "Process-wide metrics captured while producing this report (see "
      "docs/OBSERVABILITY.md; run with the global --metrics-out flag for "
      "the full machine-readable snapshot).");
  const json::Value metrics = obs::Registry::global().snapshot_json();
  std::vector<std::pair<std::string, std::string>> metric_rows;
  for (const auto& [name, value] : metrics.at("counters").members()) {
    metric_rows.emplace_back(
        name, std::to_string(static_cast<std::uint64_t>(value.as_number())));
  }
  for (const auto& [name, histogram] : metrics.at("histograms").members()) {
    metric_rows.emplace_back(
        name + " (mean / p99)",
        format_fixed(histogram.at("mean").as_number(), 3) + " / " +
            format_fixed(histogram.at("p99").as_number(), 3));
  }
  report.add_table(metric_rows);

  report.save(out_path);
  out << "report written to " << out_path << '\n';
  print_summary(out, workload.pattern, campaign.distance_summary);
  return 0;
}

int cmd_quiz(const std::vector<const char*>& argv, std::ostream& out) {
  std::string level = "A";
  bool reveal = false;
  std::string grade_spec;
  ArgParser parser("anacin quiz — course comprehension questions");
  parser.add_string("level", "level (A, B, C) or goal (e.g. C.2)", &level);
  parser.add_flag("reveal", "print the answer key", &reveal);
  parser.add_string("grade", "grade answers: 'A.1-q1=b,B.1-q1=a,...'",
                    &grade_spec);
  if (!parser.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  if (!grade_spec.empty()) {
    std::vector<std::pair<std::string, std::size_t>> answers;
    for (const std::string& entry : split(grade_spec, ',')) {
      const auto parts = split(entry, '=');
      if (parts.size() != 2 || parts[1].size() != 1 ||
          parts[1][0] < 'a' || parts[1][0] > 'z') {
        throw ConfigError("malformed answer '" + entry +
                          "' (expected id=letter)");
      }
      answers.emplace_back(std::string(trim(parts[0])),
                           static_cast<std::size_t>(parts[1][0] - 'a'));
    }
    const course::QuizGrade grade = course::grade_quiz(answers);
    out << "score: " << grade.correct << '/' << grade.answered << " ("
        << static_cast<int>(grade.score() * 100) << "%)\n";
    for (const std::string& id : grade.missed_ids) {
      out << "  review " << id << '\n';
    }
    return grade.missed_ids.empty() ? 0 : 1;
  }

  const auto questions = course::questions_for(level);
  if (questions.empty()) {
    throw ConfigError("no questions for level/goal '" + level + "'");
  }
  for (const course::QuizQuestion& question : questions) {
    out << course::render_question(question, reveal) << '\n';
  }
  return 0;
}

int cmd_course(const std::vector<const char*>& argv, std::ostream& out) {
  int use_case = 0;
  bool schedule = false;
  bool homework = false;
  ArgParser parser("anacin course — course module tables and use cases");
  parser.add_int("use-case", "run use case 1, 2, or 3 (0 = tables only)",
                 &use_case);
  parser.add_flag("schedule", "print the half-day tutorial agenda",
                  &schedule);
  parser.add_flag("assignments", "print the per-goal assignments",
                  &homework);
  if (!parser.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  if (schedule) {
    out << course::render_tutorial_schedule();
    return 0;
  }
  if (homework) {
    out << course::render_assignments();
    return 0;
  }
  if (use_case == 0) {
    out << course::render_learning_objectives() << '\n'
        << course::render_prerequisites();
    return 0;
  }
  ThreadPool pool;
  switch (use_case) {
    case 1: {
      const course::UseCase1Result lesson = course::run_use_case_1();
      out << viz::ascii_event_graph(lesson.race_run_a) << '\n'
          << viz::ascii_event_graph(lesson.race_run_b);
      out << "runs differ: " << (lesson.runs_differ ? "yes" : "no") << '\n';
      return lesson.runs_differ ? 0 : 1;
    }
    case 2: {
      const course::UseCase2Result lesson =
          course::run_use_case_2(pool, 16, 8, 10);
      print_summary(out, "more processes", lesson.many_procs);
      print_summary(out, "fewer processes", lesson.few_procs);
      print_summary(out, "two iterations", lesson.two_iterations);
      print_summary(out, "one iteration", lesson.one_iteration);
      return lesson.procs_effect_observed &&
                     lesson.iterations_effect_observed
                 ? 0
                 : 1;
    }
    case 3: {
      const course::UseCase3Result lesson =
          course::run_use_case_3(pool, 12, 8, 25);
      for (std::size_t i = 0; i < lesson.nd_percents.size(); ++i) {
        print_summary(out,
                      format_fixed(lesson.nd_percents[i], 0) + "% ND",
                      lesson.distance_by_percent[i]);
      }
      if (!lesson.root_causes.callstacks.empty()) {
        out << "top callstack: " << lesson.root_causes.callstacks.front().path
            << '\n';
      }
      return lesson.monotone_observed ? 0 : 1;
    }
    default:
      throw ConfigError("use case must be 1, 2, or 3");
  }
}

int cmd_cache(const std::vector<const char*>& argv, std::ostream& out) {
  // The action is the first non-flag operand; everything else goes to the
  // option parser (ArgParser has no positional-argument support).
  std::string action;
  std::vector<const char*> rest;
  rest.push_back(argv.empty() ? "anacin" : argv[0]);
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const std::string_view arg = argv[i];
    if (action.empty() && !arg.empty() && arg[0] != '-') {
      action = std::string(arg);
    } else {
      rest.push_back(argv[i]);
    }
  }

  std::uint64_t max_bytes = std::numeric_limits<std::uint64_t>::max();
  bool repair = false;
  ArgParser parser(
      "anacin cache <stats|verify|gc> — inspect and maintain the artifact "
      "store (pass --store DIR before the command, or set ANACIN_STORE_DIR)");
  parser.add_uint64("max-bytes",
                    "gc: evict least-recently-used objects until the store "
                    "is at most this many bytes",
                    &max_bytes);
  parser.add_flag("repair",
                  "verify: move corrupt and foreign objects into "
                  "<store>/quarantine/ so later runs recompute them",
                  &repair);
  if (!parser.parse(static_cast<int>(rest.size()), rest.data())) return 0;
  if (action.empty()) {
    throw ConfigError("cache needs an action: stats, verify, or gc");
  }
  store::ArtifactStore* store = store::active_store();
  if (store == nullptr) {
    throw ConfigError(
        "cache needs a store: pass --store DIR before the command or set "
        "ANACIN_STORE_DIR");
  }

  if (action == "stats") {
    const store::ObjectStore::Stats stats = store->objects().stats();
    out << "store root:     " << store->objects().root().string() << '\n'
        << "objects:        " << stats.objects << '\n'
        << "total bytes:    " << stats.total_bytes << '\n';
    for (const auto& [kind, count] : stats.kind_counts) {
      out << "  " << pad_right(kind, 16) << count << '\n';
    }
    return 0;
  }
  if (action == "verify") {
    if (repair) {
      const store::ObjectStore::RepairReport report =
          store->objects().repair();
      out << "checked " << report.verified.checked << " objects: "
          << report.verified.corrupt.size() << " corrupt, "
          << report.verified.foreign.size() << " foreign; quarantined "
          << report.quarantined << '\n';
      for (const std::string& key : report.verified.corrupt) {
        out << "  quarantined corrupt: " << key << '\n';
      }
      for (const std::string& path : report.verified.foreign) {
        out << "  quarantined foreign: " << path << '\n';
      }
      for (const std::string& path : report.failed) {
        out << "  FAILED to quarantine: " << path << '\n';
      }
      return report.ok() ? 0 : 1;
    }
    const store::ObjectStore::VerifyReport report = store->objects().verify();
    out << "checked " << report.checked << " objects: "
        << report.corrupt.size() << " corrupt, " << report.foreign.size()
        << " foreign\n";
    for (const std::string& key : report.corrupt) {
      out << "  corrupt: " << key << '\n';
    }
    for (const std::string& path : report.foreign) {
      out << "  foreign: " << path << '\n';
    }
    return report.ok() ? 0 : 1;
  }
  if (action == "gc") {
    if (max_bytes == std::numeric_limits<std::uint64_t>::max()) {
      throw ConfigError("cache gc requires --max-bytes");
    }
    const store::ObjectStore::GcReport report =
        store->objects().gc(max_bytes);
    out << "removed " << report.removed_objects << " objects ("
        << report.removed_bytes << " bytes); " << report.remaining_objects
        << " objects (" << report.remaining_bytes << " bytes) remain";
    if (report.removed_temp_files > 0) {
      out << "; swept " << report.removed_temp_files << " stale temp file(s)";
    }
    out << '\n';
    return 0;
  }
  throw ConfigError("unknown cache action '" + action +
                    "' (expected stats, verify, or gc)");
}

/// Internal entry point of --isolate=process worker children (spawned by
/// proc::WorkerPool, never typed by a user — hence absent from kUsage).
/// Serves work-unit requests over stdin/stdout until the parent closes
/// the pipe.
int cmd_worker(const std::vector<const char*>& argv) {
  double heartbeat_ms = 50.0;
  ArgParser parser(
      "anacin __worker — internal: serve isolated work units over "
      "stdin/stdout (spawned by --isolate=process)");
  parser.add_double("heartbeat-ms", "heartbeat interval in milliseconds",
                    &heartbeat_ms);
  if (!parser.parse(static_cast<int>(argv.size()), argv.data())) return 0;
  ANACIN_CHECK(heartbeat_ms > 0.0, "--heartbeat-ms must be > 0");
  store::ArtifactStore* store = store::active_store();
  if (store == nullptr) {
    throw ConfigError("__worker requires the shared artifact store "
                      "(--store DIR before the command)");
  }
  return proc::worker_main(*store, heartbeat_ms);
}

const char kUsage[] =
    "anacin — analysis of non-determinism in (simulated) MPI applications\n"
    "\n"
    "usage: anacin [global options] <command> [options]\n"
    "       (anacin <command> --help for details)\n"
    "\n"
    "global options (before the command):\n"
    "  --metrics-out FILE   write a JSON metrics snapshot on exit\n"
    "  --trace-out FILE     record spans; write a Chrome trace-event JSON\n"
    "                       (open in chrome://tracing or ui.perfetto.dev)\n"
    "  --store DIR          content-addressed artifact store: simulations\n"
    "                       and kernel distances are cached and reused\n"
    "                       (defaults to $ANACIN_STORE_DIR when set)\n"
    "  --no-store           disable the store even if ANACIN_STORE_DIR is set\n"
    "  --durability LEVEL   none (default) | commit | paranoid: fsync\n"
    "                       discipline at durable commit points (journal,\n"
    "                       reports; paranoid adds store object\n"
    "                       publishes) — docs/RESILIENCE.md\n"
    "\n"
    "fault injection (run / measure / sweep):\n"
    "  --fault-drop P       message drop probability [0..1]; in `sweep`,\n"
    "                       lo:hi:step sweeps the drop axis instead of ND%\n"
    "  --fault-dup P        message duplication probability [0..1]\n"
    "  --fault-retries N    max retransmissions of a dropped message\n"
    "  --fault-timeout US   retransmit timeout in microseconds\n"
    "  --stragglers LIST    comma-separated rank ids with slowed compute\n"
    "  --straggler-factor F compute slowdown of straggler ranks\n"
    "  --slow-nodes LIST    comma-separated node ids slowed end-to-end\n"
    "  --slow-factor F      compute+latency slowdown of slow nodes\n"
    "\n"
    "resilience (measure / sweep; see docs/RESILIENCE.md):\n"
    "  --keep-going         quarantine failed work units, finish with the\n"
    "                       survivors, and exit 2 (default: fail fast)\n"
    "  --max-retries N      retries per work unit after transient failures\n"
    "  --backoff-us US      first retry backoff (doubles per retry)\n"
    "  --run-deadline-ms MS per-attempt wall-clock deadline (0 = none);\n"
    "                       preemptive (SIGKILL) under --isolate=process\n"
    "  --isolate MODE       none (default) | process: execute work units in\n"
    "                       sandboxed fork/exec'd worker children with a\n"
    "                       watchdog and crash triage (requires --store)\n"
    "  --unit-mem-limit N   RLIMIT_AS per worker child in bytes (0 = none;\n"
    "                       only with --isolate=process)\n"
    "  --journal FILE       sweep: crash-consistent journal of completed\n"
    "                       points; --resume replays it after a crash\n"
    "  exit codes: 0 ok, 1 error, 2 partial results, 64 usage,\n"
    "              130 interrupted (SIGINT drains in-flight work first),\n"
    "              143 terminated (SIGTERM, same graceful drain)\n"
    "\n"
    "fault plan (testing; see docs/RESILIENCE.md):\n"
    "  ANACIN_FAULT_PLAN    seeded unit, disk and network fault injection,\n"
    "                       read by every anacin process, e.g.\n"
    "                       \"seed=7,unit.run:1=permanent,disk.enospc=0.05,\n"
    "                       disk.scope=store,net.reset=0.25\"\n"
    "\n"
    "commands:\n"
    "  patterns    list the packaged mini-applications\n"
    "  run         simulate one execution (trace / ASCII / SVG outputs)\n"
    "  graph       inspect a saved trace\n"
    "  measure     quantify non-determinism over repeated executions\n"
    "  sweep       kernel distance vs ND%% (paper Fig 7)\n"
    "  serve       run a sweep as a scheduler farming work units to agent\n"
    "              fleets over TCP (see docs/DISTRIBUTED.md)\n"
    "  agent       join a scheduler and execute its work units against the\n"
    "              local artifact store\n"
    "  rootcause   callstack attribution in high-ND regions (paper Fig 8)\n"
    "  replay      record-and-replay (ReMPI-style suppression)\n"
    "  bisect      delta-debug recorded wildcard matches to the minimal\n"
    "              racy set and rank root causes (see docs/REPLAY.md)\n"
    "  course      course-module tables, schedule, and use cases\n"
    "  quiz        comprehension questions with automatic grading\n"
    "  report      self-contained HTML analysis report (notebook-style)\n"
    "  figures     index of the reproduced paper tables and figures\n"
    "  cache       artifact-store maintenance: stats, verify [--repair], gc\n";

/// Global options, parsed before the subcommand name.
struct GlobalOptions {
  std::string metrics_out;
  std::string trace_out;
  /// Artifact-store directory; empty disables incremental execution.
  std::string store_dir;
  bool no_store = false;
  /// --durability level; empty keeps the environment/default (none).
  std::string durability;
};

int dispatch(const std::string& command, const std::vector<const char*>& rest,
             std::ostream& out, std::ostream& err) {
  if (command == "help" || command == "--help" || command == "-h") {
    out << kUsage;
    return 0;
  }
  if (command == "patterns") return cmd_patterns(rest, out);
  if (command == "run") return cmd_run(rest, out);
  if (command == "graph") return cmd_graph(rest, out);
  if (command == "measure") return cmd_measure(rest, out);
  if (command == "sweep") return cmd_sweep(rest, out);
  if (command == "serve") return cmd_serve(rest, out);
  if (command == "agent") return cmd_agent(rest, out);
  if (command == "rootcause") return cmd_rootcause(rest, out);
  if (command == "replay") return cmd_replay(rest, out);
  if (command == "bisect") return cmd_bisect(rest, out);
  if (command == "course") return cmd_course(rest, out);
  if (command == "quiz") return cmd_quiz(rest, out);
  if (command == "report") return cmd_report(rest, out);
  if (command == "figures") return cmd_figures(rest, out);
  if (command == "cache") return cmd_cache(rest, out);
  if (command == "__worker") return cmd_worker(rest);
  err << "unknown command '" << command << "'\n\n" << kUsage;
  return kExitUsage;
}

/// Consume leading global options; returns the index of the subcommand
/// name (or argc when none is left).
int parse_global_options(int argc, const char* const* argv,
                         GlobalOptions* options) {
  int index = 1;
  while (index < argc) {
    const std::string_view arg = argv[index];
    const auto take = [&](std::string_view flag, std::string* value,
                          std::string_view operand) {
      if (arg == flag) {
        if (index + 1 >= argc) {
          throw ConfigError(std::string(flag) + " requires " +
                            std::string(operand));
        }
        *value = argv[index + 1];
        index += 2;
        return true;
      }
      if (arg.size() > flag.size() + 1 && arg.substr(0, flag.size()) == flag &&
          arg[flag.size()] == '=') {
        *value = std::string(arg.substr(flag.size() + 1));
        ++index;
        return true;
      }
      return false;
    };
    if (take("--metrics-out", &options->metrics_out, "a file path")) continue;
    if (take("--trace-out", &options->trace_out, "a file path")) continue;
    if (take("--store", &options->store_dir, "a directory path")) continue;
    if (take("--durability", &options->durability,
             "none, commit, or paranoid")) {
      continue;
    }
    if (arg == "--no-store") {
      options->no_store = true;
      ++index;
      continue;
    }
    break;
  }
  // Opt-in default so cron jobs / CI can turn on caching fleet-wide
  // without touching every invocation.
  if (options->store_dir.empty() && !options->no_store) {
    if (const char* env = std::getenv("ANACIN_STORE_DIR");
        env != nullptr && env[0] != '\0') {
      options->store_dir = env;
    }
  }
  if (options->no_store) options->store_dir.clear();
  return index;
}

/// Clears the process-global store pointer on scope exit (the store object
/// itself lives in run_cli and must outlive every campaign).
struct ActiveStoreGuard {
  ~ActiveStoreGuard() { store::set_active_store(nullptr); }
};

}  // namespace

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  try {
    // The only reader of the fault plan: every anacin process — worker
    // children and agents included — installs it here, per invocation.
    support::install_fault_plan(support::FaultPlan::from_env());
    GlobalOptions global_options;
    const int command_index = parse_global_options(argc, argv, &global_options);
    if (command_index >= argc) {
      out << kUsage;
      return 0;
    }
    if (!global_options.trace_out.empty()) {
      obs::Tracer::global().set_enabled(true);
    }
    // Durability installs process-wide BEFORE the store is constructed
    // and is re-exported into the environment so forked worker children
    // and spawned agents inherit the exact same configuration.
    if (!global_options.durability.empty()) {
      support::set_durability(
          support::parse_durability(global_options.durability));
      ::setenv("ANACIN_DURABILITY", global_options.durability.c_str(), 1);
    }
    const std::string command = argv[command_index];
    std::unique_ptr<store::ArtifactStore> artifact_store;
    ActiveStoreGuard store_guard;
    if (!global_options.store_dir.empty()) {
      artifact_store = std::make_unique<store::ArtifactStore>(
          store::ObjectStore::Config{global_options.store_dir});
      store::set_active_store(artifact_store.get());
    }
    // Re-pack as "<prog> <args...>" for the subcommand parser.
    std::vector<const char*> rest;
    rest.push_back(argv[0]);
    for (int i = command_index + 1; i < argc; ++i) rest.push_back(argv[i]);

    const int code = dispatch(command, rest, out, err);

    if (!global_options.metrics_out.empty()) {
      // Export the durability layer's and the fault plan's own counters
      // into the snapshot. io.durable_ops is what the crash-consistency
      // explorer sweeps: re-running with disk.crash_after=k for every k in
      // [1, N] covers every durable commit point of this invocation. (The
      // metrics write below happens after the snapshot, so N excludes
      // it — exactly the ops a re-run without --metrics-out sees.)
      obs::counter("fs.atomic_writes").add(support::atomic_write_count());
      for (const auto& [name, value] : support::faults::counters()) {
        obs::counter(name).add(value);
      }
      core::write_json_file(global_options.metrics_out,
                            obs::Registry::global().snapshot_json());
      out << "metrics written to " << global_options.metrics_out << '\n';
    }
    if (!global_options.trace_out.empty()) {
      core::write_json_file(global_options.trace_out,
                            obs::Tracer::global().chrome_trace_json());
      out << "trace written to " << global_options.trace_out << '\n';
    }
    return code;
  } catch (const InterruptedError& error) {
    err << "interrupted: " << error.what() << '\n';
    return interrupted_exit_code();
  } catch (const Error& error) {
    err << "error: " << error.what() << '\n';
    return kExitError;
  } catch (const std::exception& error) {
    err << "unexpected error: " << error.what() << '\n';
    return kExitError;
  }
}

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
}

}  // namespace anacin::cli
