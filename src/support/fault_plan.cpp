#include "support/fault_plan.hpp"

#include <array>
#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <thread>

#include "support/error.hpp"
#include "support/signals.hpp"
#include "support/string_util.hpp"

namespace anacin::support {

namespace {

// ---------------------------------------------------------------------------
// Counters: one faults.<domain>.<kind> family, plus io.durable_ops
// ---------------------------------------------------------------------------

enum FaultCounter : std::size_t {
  kUnitTransient, kUnitPermanent, kUnitSleep, kUnitStop, kUnitCrash,
  kDiskOpenFail, kDiskEnospc, kDiskEio, kDiskRenameFail, kDiskFsyncDrop,
  kDiskCrashAfter,
  kNetDrop, kNetCorrupt, kNetReorder, kNetReset, kNetDelay, kNetPartition,
  kDurableOps,
  kNumCounters
};

constexpr std::array<const char*, kNumCounters> kCounterNames = {
    "faults.unit.transient",   "faults.unit.permanent",
    "faults.unit.sleep",       "faults.unit.stop",
    "faults.unit.crash",       "faults.disk.open_fail",
    "faults.disk.enospc",      "faults.disk.eio",
    "faults.disk.rename_fail", "faults.disk.fsync_drop",
    "faults.disk.crash_after", "faults.net.drop",
    "faults.net.corrupt",      "faults.net.reorder",
    "faults.net.reset",        "faults.net.delay",
    "faults.net.partition",    "io.durable_ops"};

std::array<std::atomic<std::uint64_t>, kNumCounters> g_counters{};

void count(FaultCounter counter) {
  g_counters[counter].fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// The one strict parser
// ---------------------------------------------------------------------------

constexpr const char* kEnvName = "ANACIN_FAULT_PLAN";

[[noreturn]] void reject(std::string_view key, const std::string& why) {
  throw ConfigError("fault plan: '" + std::string(key) + "' " + why);
}

double parse_number(std::string_view key, std::string_view text) {
  if (text.empty()) reject(key, "needs a value");
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() ||
      !std::isfinite(value)) {
    reject(key, "needs a number, got '" + std::string(text) + "'");
  }
  return value;
}

double parse_probability(std::string_view key, std::string_view text) {
  const double value = parse_number(key, text);
  if (!(value >= 0.0 && value <= 1.0)) {
    reject(key, "must be a probability in [0,1], got '" + std::string(text) +
                    "'");
  }
  return value;
}

/// Durations are capped at one day: a longer injected sleep is a typo, and
/// the cap keeps the conversion to a clock duration in range.
double parse_millis(std::string_view key, std::string_view text) {
  const double value = parse_number(key, text);
  if (!(value >= 0.0 && value <= 86'400'000.0)) {
    reject(key, "must be in [0, 86400000] ms, got '" + std::string(text) +
                    "'");
  }
  return value;
}

std::uint64_t parse_count(std::string_view key, std::string_view text,
                          std::uint64_t min, std::uint64_t max) {
  if (text.empty()) reject(key, "needs a value");
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() || value < min ||
      value > max) {
    reject(key, "needs an integer in [" + std::to_string(min) + ", " +
                    std::to_string(max) + "], got '" + std::string(text) +
                    "'");
  }
  return value;
}

constexpr std::array<std::pair<const char*, PathClass>, 4> kScopes = {{
    {"journal", PathClass::kJournal},
    {"store", PathClass::kStore},
    {"report", PathClass::kReport},
    {"other", PathClass::kOther},
}};

unsigned scope_bit(PathClass path_class) {
  return 1u << static_cast<unsigned>(path_class);
}

unsigned parse_scope(std::string_view key, std::string_view text) {
  if (text.empty()) reject(key, "needs a value");
  unsigned scope = 0;
  for (const std::string& field : split(text, '+')) {
    const std::string_view part = trim(field);
    if (part == "all") {
      scope = FaultPlan::Disk::kAllScopes;
      continue;
    }
    bool known = false;
    for (const auto& [name, path_class] : kScopes) {
      if (part == name) {
        scope |= scope_bit(path_class);
        known = true;
      }
    }
    if (!known) {
      reject(key, "has unknown scope '" + std::string(part) +
                      "' (expected journal|store|report|other|all)");
    }
  }
  return scope;
}

void apply_unit(FaultPlan::Unit& unit, std::string_view key,
                std::string_view value) {
  const std::size_t colon = value.find(':');
  const std::string_view kind = value.substr(0, colon);
  const std::string_view arg =
      colon == std::string_view::npos ? std::string_view{}
                                      : value.substr(colon + 1);
  const bool has_arg = colon != std::string_view::npos;
  if (kind == "transient" && has_arg) {
    unit.transient = static_cast<int>(
        parse_count(key, arg, 0, std::numeric_limits<int>::max()));
  } else if (kind == "permanent" && !has_arg) {
    unit.permanent = true;
  } else if (kind == "sleep" && has_arg) {
    unit.sleep_ms = parse_millis(key, arg);
  } else if (kind == "stop" && !has_arg) {
    unit.stop = true;
  } else if (kind == "crash" && has_arg) {
    try {
      unit.crash_signal = signal_from_name(arg);
    } catch (const ConfigError& error) {
      reject(key, error.what());
    }
  } else if (value.empty()) {
    reject(key, "needs a value");
  } else {
    reject(key, "has unknown hook '" + std::string(value) +
                    "' (expected transient:N, permanent, sleep:MS, stop, "
                    "or crash:SIG)");
  }
}

/// The numeric keys of the disk and net domains: one table each, shared by
/// the parser and the canonical printer so the two can never disagree.
template <typename Domain>
struct NumericKey {
  const char* name;
  double Domain::* field;
  bool millis;  // a duration (>= 0) rather than a probability
};

constexpr NumericKey<FaultPlan::Disk> kDiskKeys[] = {
    {"enospc", &FaultPlan::Disk::enospc, false},
    {"eio", &FaultPlan::Disk::eio, false},
    {"open_fail", &FaultPlan::Disk::open_fail, false},
    {"rename_fail", &FaultPlan::Disk::rename_fail, false},
    {"fsync_drop", &FaultPlan::Disk::fsync_drop, false},
};

constexpr NumericKey<FaultPlan::Net> kNetKeys[] = {
    {"drop", &FaultPlan::Net::drop, false},
    {"corrupt", &FaultPlan::Net::corrupt, false},
    {"reorder", &FaultPlan::Net::reorder, false},
    {"reset", &FaultPlan::Net::reset, false},
    {"delay", &FaultPlan::Net::delay, false},
    {"delay_ms", &FaultPlan::Net::delay_ms, true},
    {"partition", &FaultPlan::Net::partition, false},
    {"partition_ms", &FaultPlan::Net::partition_ms, true},
};

/// Set `name` from `table`; false when the domain has no such key.
template <typename Domain, std::size_t N>
bool apply_numeric(Domain& domain, const NumericKey<Domain> (&table)[N],
                   std::string_view key, std::string_view name,
                   std::string_view value) {
  for (const NumericKey<Domain>& entry : table) {
    if (name != entry.name) continue;
    domain.*entry.field = entry.millis ? parse_millis(key, value)
                                       : parse_probability(key, value);
    return true;
  }
  return false;
}

std::string format_number(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

// ---------------------------------------------------------------------------
// The installed plan
// ---------------------------------------------------------------------------

struct Installed {
  explicit Installed(FaultPlan p)
      : plan(std::move(p)), disk_rng(mix64(plan.seed)) {}

  FaultPlan plan;
  std::mutex disk_mutex;  // guards disk_rng
  Rng disk_rng;
  std::atomic<std::int64_t> disk_commits{0};
};

/// One atomic pointer: the clean path (no plan) is a single acquire load.
std::atomic<Installed*> g_installed{nullptr};

Installed* installed() { return g_installed.load(std::memory_order_acquire); }

const FaultPlan::Unit* find_unit(const Installed* state,
                                 const std::string& unit_id) {
  if (state == nullptr || state->plan.units.empty()) return nullptr;
  const auto& units = state->plan.units;
  auto it = units.find(unit_id);
  if (it == units.end()) it = units.find("*");
  return it == units.end() ? nullptr : &it->second;
}

}  // namespace

bool FaultPlan::Disk::enabled() const {
  return enospc > 0 || eio > 0 || open_fail > 0 || rename_fail > 0 ||
         fsync_drop > 0 || crash_after > 0;
}

bool FaultPlan::Disk::in_scope(PathClass path_class) const {
  return (scope & scope_bit(path_class)) != 0;
}

bool FaultPlan::Net::enabled() const {
  return drop > 0 || corrupt > 0 || reorder > 0 || reset > 0 || delay > 0 ||
         partition > 0;
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  for (const std::string& field : split(spec, ',')) {
    const std::string_view entry = trim(field);
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      reject(entry, "needs key=value");
    }
    const std::string_view key = trim(entry.substr(0, eq));
    const std::string_view value = trim(entry.substr(eq + 1));
    const std::size_t dot = key.find('.');
    const std::string_view domain = key.substr(0, dot);
    const std::string_view name =
        dot == std::string_view::npos ? std::string_view{}
                                      : key.substr(dot + 1);
    if (key == "seed") {
      plan.seed = parse_count(key, value, 0,
                              std::numeric_limits<std::uint64_t>::max());
    } else if (domain == "unit" && !name.empty()) {
      apply_unit(plan.units[std::string(name)], key, value);
    } else if (domain == "disk") {
      if (name == "crash_after") {
        plan.disk.crash_after = static_cast<std::int64_t>(parse_count(
            key, value, 1, std::numeric_limits<std::int64_t>::max()));
      } else if (name == "scope") {
        plan.disk.scope = parse_scope(key, value);
      } else if (!apply_numeric(plan.disk, kDiskKeys, key, name, value)) {
        reject(key, "is not a disk fault key");
      }
    } else if (domain == "net") {
      if (!apply_numeric(plan.net, kNetKeys, key, name, value)) {
        reject(key, "is not a net fault key");
      }
    } else {
      reject(key, "is not a fault key (expected seed, unit.<id>, "
                  "disk.<key> or net.<key>)");
    }
  }
  return plan;
}

std::optional<FaultPlan> FaultPlan::from_env() {
  // Every spelling the three pre-plan injectors read. Rejecting them is
  // what keeps an old script from running clean while claiming coverage.
  static constexpr const char* kRetired[] = {
      "ANACIN_INJECT_FAILURES", "ANACIN_INJECT_CRASH",
      "ANACIN_INJECT_HANG",     "ANACIN_IO_CHAOS",
      "ANACIN_NET_CHAOS",       "ANACIN_FAIL_WRITE_AFTER",
      "ANACIN_CRASH_AFTER_POINTS"};
  for (const char* name : kRetired) {
    const char* value = std::getenv(name);
    if (value != nullptr && *value != '\0') {
      throw ConfigError(std::string(name) +
                        " is retired: express the fault as an " + kEnvName +
                        " entry (see docs/RESILIENCE.md)");
    }
  }
  const char* spec = std::getenv(kEnvName);
  if (spec == nullptr || *spec == '\0') return std::nullopt;
  try {
    return parse(spec);
  } catch (const ConfigError& error) {
    throw ConfigError(std::string(kEnvName) + ": " + error.what());
  }
}

std::string FaultPlan::spec() const {
  std::string out;
  const auto add = [&out](std::string_view key, const std::string& value) {
    if (!out.empty()) out += ',';
    out.append(key).append("=").append(value);
  };
  const auto add_numeric = [&add](const char* domain, const auto& values,
                                  const auto& defaults, const auto& table) {
    for (const auto& entry : table) {
      if (values.*entry.field != defaults.*entry.field) {
        add(std::string(domain) + entry.name,
            format_number(values.*entry.field));
      }
    }
  };
  if (seed != 0) add("seed", std::to_string(seed));
  for (const auto& [id, unit] : units) {
    const std::string key = "unit." + id;
    if (unit.transient > 0) {
      add(key, "transient:" + std::to_string(unit.transient));
    }
    if (unit.permanent) add(key, "permanent");
    if (unit.sleep_ms > 0) add(key, "sleep:" + format_number(unit.sleep_ms));
    if (unit.stop) add(key, "stop");
    if (unit.crash_signal != 0) {
      add(key, "crash:" + signal_name(unit.crash_signal).substr(3));
    }
  }
  add_numeric("disk.", disk, Disk{}, kDiskKeys);
  if (disk.crash_after > 0) {
    add("disk.crash_after", std::to_string(disk.crash_after));
  }
  if (disk.scope != Disk::kAllScopes) {
    std::string scope;
    for (const auto& [name, path_class] : kScopes) {
      if (!disk.in_scope(path_class)) continue;
      if (!scope.empty()) scope += '+';
      scope += name;
    }
    add("disk.scope", scope);
  }
  add_numeric("net.", net, Net{}, kNetKeys);
  return out;
}

void install_fault_plan(std::optional<FaultPlan> plan) {
  Installed* fresh =
      plan.has_value() ? new Installed(std::move(*plan)) : nullptr;
  delete g_installed.exchange(fresh, std::memory_order_acq_rel);
}

const FaultPlan* installed_fault_plan() {
  const Installed* state = installed();
  return state == nullptr ? nullptr : &state->plan;
}

SendFaults::SendFaults(const FaultPlan& plan, std::uint64_t connection_serial)
    : net_(plan.net),
      rng_(hash_combine(mix64(plan.seed), connection_serial)) {}

SendFaults::Decision SendFaults::next_send(std::size_t frame_size,
                                           bool can_hold) {
  using Kind = Decision::Kind;
  Decision decision;
  // Reset is the strongest fault and is drawn even inside a partition
  // window: the transport can die while a middlebox blackholes it.
  if (rng_.bernoulli(net_.reset)) {
    count(kNetReset);
    decision.kind = Kind::kReset;
    return decision;
  }
  const auto now = std::chrono::steady_clock::now();
  if (now < partition_until_) {
    decision.kind = Kind::kPartition;
    return decision;
  }
  if (rng_.bernoulli(net_.partition)) {
    count(kNetPartition);
    partition_until_ =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      net_.partition_ms));
    decision.kind = Kind::kPartition;
    return decision;
  }
  if (rng_.bernoulli(net_.drop)) {
    count(kNetDrop);
    decision.kind = Kind::kDrop;
    return decision;
  }
  if (rng_.bernoulli(net_.delay)) {
    count(kNetDelay);
    decision.delay_ms = rng_.uniform(0.0, net_.delay_ms);
  }
  if (rng_.bernoulli(net_.corrupt) && frame_size > 5) {
    count(kNetCorrupt);
    decision.corrupt_offset = static_cast<std::size_t>(
        rng_.uniform_int(5, static_cast<std::int64_t>(frame_size) - 1));
  }
  if (can_hold && rng_.bernoulli(net_.reorder)) {
    count(kNetReorder);
    decision.hold = true;
  }
  return decision;
}

namespace faults {

void on_attempt(const std::string& unit_id, int attempt) {
  const FaultPlan::Unit* unit = find_unit(installed(), unit_id);
  if (unit == nullptr) return;
  if (unit->permanent) {
    count(kUnitPermanent);
    throw PermanentError("injected permanent failure for unit '" + unit_id +
                         "'");
  }
  if (attempt <= unit->transient) {
    count(kUnitTransient);
    throw TransientError("injected transient failure " +
                         std::to_string(attempt) + "/" +
                         std::to_string(unit->transient) + " for unit '" +
                         unit_id + "'");
  }
}

void on_unit_body(const std::string& unit_id) {
  const FaultPlan::Unit* unit = find_unit(installed(), unit_id);
  if (unit == nullptr) return;
  if (unit->stop) {
    count(kUnitStop);
    std::raise(SIGSTOP);
  } else if (unit->sleep_ms > 0.0) {
    count(kUnitSleep);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(unit->sleep_ms));
  }
  if (unit->crash_signal != 0) {
    count(kUnitCrash);
    std::raise(unit->crash_signal);
    // Signals whose default disposition is not termination (or that a
    // sanitizer intercepts) can return here; make the injection count
    // anyway so tests never silently pass.
    throw PermanentError("injected crash signal " +
                         signal_name(unit->crash_signal) + " for unit '" +
                         unit_id + "' did not terminate the process");
  }
}

DiskFault next_disk_fault(PathClass path_class) {
  DiskFault fault;
  Installed* state = installed();
  if (state == nullptr) return fault;
  const FaultPlan::Disk& disk = state->plan.disk;
  if (!disk.enabled() || !disk.in_scope(path_class)) return fault;
  bool open_fails = false;
  bool enospc = false;
  bool eio = false;
  bool rename_fail = false;
  {
    // Fixed draw order per op keeps the stream length constant, so the
    // decision at op k never depends on which stage fired at op k-1.
    const std::lock_guard<std::mutex> lock(state->disk_mutex);
    Rng& rng = state->disk_rng;
    open_fails = rng.bernoulli(disk.open_fail);
    enospc = rng.bernoulli(disk.enospc);
    eio = rng.bernoulli(disk.eio);
    rename_fail = rng.bernoulli(disk.rename_fail);
    fault.drop_fsync = rng.bernoulli(disk.fsync_drop);
  }
  using Kind = DiskFault::Kind;
  if (open_fails) {
    fault.kind = Kind::kOpenFail;
    count(kDiskOpenFail);
  } else if (enospc) {
    fault.kind = Kind::kEnospc;
    count(kDiskEnospc);
  } else if (eio) {
    fault.kind = Kind::kEio;
    count(kDiskEio);
  } else if (rename_fail) {
    fault.kind = Kind::kRenameFail;
    count(kDiskRenameFail);
  }
  if (fault.drop_fsync) count(kDiskFsyncDrop);
  return fault;
}

bool rename_fails(PathClass path_class) {
  Installed* state = installed();
  if (state == nullptr || !state->plan.disk.in_scope(path_class)) {
    return false;
  }
  bool fails = false;
  {
    const std::lock_guard<std::mutex> lock(state->disk_mutex);
    fails = state->disk_rng.bernoulli(state->plan.disk.rename_fail);
  }
  if (fails) count(kDiskRenameFail);
  return fails;
}

void note_durable_commit(PathClass path_class) {
  count(kDurableOps);
  Installed* state = installed();
  if (state == nullptr) return;
  const FaultPlan::Disk& disk = state->plan.disk;
  if (disk.crash_after > 0 && disk.in_scope(path_class) &&
      state->disk_commits.fetch_add(1, std::memory_order_relaxed) + 1 ==
          disk.crash_after) {
    count(kDiskCrashAfter);
    // The crash-consistency explorer's whole point: die so hard that no
    // destructor, flush, or atexit handler can tidy up after us.
    std::raise(SIGKILL);
  }
}

std::map<std::string, std::uint64_t> counters() {
  std::map<std::string, std::uint64_t> values;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const std::uint64_t value = g_counters[i].load(std::memory_order_relaxed);
    if (value > 0 || i == kDurableOps) values.emplace(kCounterNames[i], value);
  }
  return values;
}

}  // namespace faults

}  // namespace anacin::support
