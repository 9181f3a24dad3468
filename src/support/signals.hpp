#pragma once

#include <string>
#include <string_view>

namespace anacin::support {

/// Name of a POSIX signal number ("SIGSEGV"); "signal <n>" for numbers
/// outside the portable table.
std::string signal_name(int signo);

/// Parse a signal name — "SEGV" or "SIGSEGV", case-insensitive — into its
/// number. Throws ConfigError on unknown names (used by the fault plan's
/// `crash:SIG` hook, so typos fail loudly instead of injecting nothing).
int signal_from_name(std::string_view name);

}  // namespace anacin::support
