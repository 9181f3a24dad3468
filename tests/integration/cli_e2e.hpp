// Helpers of the end-to-end tests that drive the built `anacin` binary
// through a shell and read back its files and --metrics-out counters.
#pragma once

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "support/json.hpp"

#ifndef ANACIN_CLI_PATH
#error "ANACIN_CLI_PATH must point at the anacin executable"
#endif

namespace anacin::e2e {

inline std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Run a shell command; returns the exit code, mapping death-by-signal to
/// the shell convention 128+signo (SIGKILL => 137).
inline int run_command(const std::string& command) {
  const int status = std::system(command.c_str());
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

inline double counter_value(const json::Value& metrics,
                            const std::string& name) {
  const json::Value* found = metrics.at("counters").find(name);
  return found == nullptr ? 0.0 : found->as_number();
}

/// True when no live process names `text` on its command line: pass a
/// fixture's directory, which every process it started names. (The
/// bracketed last character keeps pgrep's own shell from matching itself.)
inline bool no_process_left(std::string text) {
  const char last = text.back();
  text.back() = '[';
  text += last;
  text += ']';
  return run_command("pgrep -f '" + text + "' > /dev/null") == 1;
}

}  // namespace anacin::e2e
