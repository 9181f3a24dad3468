#pragma once

/// Observability plumbing for the google-benchmark binaries: strip the
/// --metrics-out/--trace-out flags before benchmark::Initialize sees them
/// (it rejects unknown arguments), then write the JSON outputs after the
/// benchmarks ran. The CI perf-gate job reads the --metrics-out counters
/// to check that its simulator and kernel benches did real work.

#include <benchmark/benchmark.h>

#include <fstream>
#include <string>
#include <string_view>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace anacin::bench {

struct ObsOptions {
  std::string metrics_out;
  std::string trace_out;
};

/// Remove `--metrics-out(=| )FILE` / `--trace-out(=| )FILE` from argv,
/// compacting it in place and updating argc.
inline ObsOptions strip_obs_flags(int& argc, char** argv) {
  ObsOptions options;
  int write_index = 1;
  for (int read_index = 1; read_index < argc; ++read_index) {
    const std::string_view arg = argv[read_index];
    std::string* value = nullptr;
    std::string_view flag;
    if (arg.rfind("--metrics-out", 0) == 0) {
      value = &options.metrics_out;
      flag = "--metrics-out";
    } else if (arg.rfind("--trace-out", 0) == 0) {
      value = &options.trace_out;
      flag = "--trace-out";
    }
    if (value == nullptr) {
      argv[write_index++] = argv[read_index];
      continue;
    }
    if (arg.size() > flag.size() && arg[flag.size()] == '=') {
      *value = std::string(arg.substr(flag.size() + 1));
    } else if (arg == flag && read_index + 1 < argc) {
      *value = argv[++read_index];
    } else {
      throw ConfigError(std::string(flag) + " requires a file path");
    }
  }
  argc = write_index;
  return options;
}

inline void write_json_text(const std::string& path,
                            const std::string& text) {
  std::ofstream out(path);
  ANACIN_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out << text << '\n';
}

inline void write_obs_outputs(const ObsOptions& options) {
  if (!options.metrics_out.empty()) {
    write_json_text(options.metrics_out,
                    obs::Registry::global().snapshot_json().dump(2));
  }
  if (!options.trace_out.empty()) {
    write_json_text(options.trace_out,
                    obs::Tracer::global().chrome_trace_json().dump(2));
  }
}

/// Drop-in replacement for BENCHMARK_MAIN()'s body.
inline int run_benchmark_main(int argc, char** argv) {
  ObsOptions options = strip_obs_flags(argc, argv);
  if (!options.trace_out.empty()) {
    obs::Tracer::global().set_enabled(true);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_obs_outputs(options);
  return 0;
}

}  // namespace anacin::bench
