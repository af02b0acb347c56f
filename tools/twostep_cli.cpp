// twostep_cli — command-line front end to the library.
//
//   twostep_cli <command> [operands] [flags]
//
// Simulator commands (bounds, run, attack, fuzz, chaos, sweep) reproduce the
// paper's bounds and constructions; live commands (localcluster, chaossoak,
// loadgen, serve, client, tracemerge, stats, join, leave) run the same
// protocols over real TCP.  Every command declares its flags once, in the
// command table at the bottom of this file.  The parser rejects any flag,
// operand or value the table does not allow with exit 1 and the command's
// usage text, generated from the table; `twostep_cli <command> --help`
// shows it that way.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "codec/codec.hpp"
#include "core/messages.hpp"
#include "core/two_step.hpp"
#include "epaxos/host.hpp"
#include "exec/thread_pool.hpp"
#include "fastpaxos/fast_paxos.hpp"
#include "geo/latency_matrix.hpp"
#include "faults/fault_plan.hpp"
#include "harness/run_spec.hpp"
#include "lowerbound/scenarios.hpp"
#include "modelcheck/explorer.hpp"
#include "node/audit.hpp"
#include "node/client.hpp"
#include "node/loadgen.hpp"
#include "node/local_cluster.hpp"
#include "node/runtime.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rsm/rsm.hpp"
#include "transport/tcp.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace twostep;
using consensus::ProcessId;
using consensus::SystemConfig;
using consensus::Value;

/// Prints "--<flag>: expected <expected>, got '<got>'" and exits 1: the
/// one error of every malformed flag value.
[[noreturn]] void reject_value(std::string_view flag, std::string_view expected,
                               std::string_view got) {
  std::fprintf(stderr, "--%.*s: expected %.*s, got '%.*s'\n", static_cast<int>(flag.size()),
               flag.data(), static_cast<int>(expected.size()), expected.data(),
               static_cast<int>(got.size()), got.data());
  std::exit(1);
}

/// Parses all of `v` as a decimal integer (or, for a floating-point T, a
/// number); anything else (empty, junk, out of range for T) is rejected.
template <class T>
T parse_number(const std::string& flag, std::string_view v) {
  T out{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (v.empty() || ec != std::errc{} || end != v.data() + v.size())
    reject_value(flag, std::is_integral_v<T> ? "an integer" : "a number", v);
  return out;
}

/// One flag of a command: `--name VALUE` (`-n VALUE` for a one-letter
/// name; both spellings are accepted), or a bare switch when `value` is
/// empty.
struct Flag {
  std::string_view name;
  std::string_view value;  ///< the value's placeholder in the usage text
  std::string_view help;   ///< '\n' continues the help on another line
};

class Args;

/// One subcommand: its flags (its own plus the shared families it
/// includes), the operands it takes and its usage text.
struct Command {
  std::string_view name;
  std::string_view operands;  ///< usage synopsis of the operands, e.g. "<host:port>"
  int max_operands;           ///< -1: any number
  std::string_view about;     ///< first line: the one-line summary
  std::vector<std::span<const Flag>> flags;
  int (*run)(const Args&);
};

void print_usage(const Command& cmd) {
  std::string out = "usage: twostep_cli " + std::string(cmd.name);
  if (!cmd.operands.empty()) out += " " + std::string(cmd.operands);
  if (!cmd.flags.empty()) out += " [flags]";
  out += "\n\n" + std::string(cmd.about) + "\n";
  if (!cmd.flags.empty()) out += "\nflags:\n";
  for (const std::span<const Flag> group : cmd.flags)
    for (const Flag& flag : group) {
      std::string lead = (flag.name.size() == 1 ? "-" : "--") + std::string(flag.name);
      if (!flag.value.empty()) lead += " " + std::string(flag.value);
      for (std::size_t from = 0; from != std::string_view::npos;) {
        const std::size_t nl = flag.help.find('\n', from);
        lead.resize(std::max<std::size_t>(lead.size(), 28), ' ');
        out += "  " + lead + " " + std::string(flag.help.substr(from, nl - from)) + "\n";
        lead.clear();
        from = nl == std::string_view::npos ? nl : nl + 1;
      }
    }
  std::fputs(out.c_str(), stderr);
}

/// The parsed command line of one command, checked against its flag
/// table: an unknown flag, a missing value, a value after a bare switch or
/// an operand the command does not take prints why plus the usage and
/// exits 1.  A token starting with '-' is a flag unless it is a negative
/// number.
class Args {
 public:
  Args(const Command& cmd, int argc, char** argv) {
    const auto is_flag = [](std::string_view t) {
      return t.size() > 1 && t[0] == '-' && !std::isdigit(static_cast<unsigned char>(t[1]));
    };
    const Flag* after_switch = nullptr;  // the bare switch right before this token
    for (int i = 2; i < argc; ++i) {
      const std::string_view token = argv[i];
      if (!is_flag(token)) {
        if (after_switch)
          reject(cmd, "--" + std::string(after_switch->name) + " takes no value, got '" +
                          std::string(token) + "'");
        if (static_cast<int>(positional_.size()) == cmd.max_operands)
          reject(cmd, "unexpected argument '" + std::string(token) + "'");
        positional_.emplace_back(token);
        continue;
      }
      const std::string name(token.substr(token.starts_with("--") ? 2 : 1));
      const Flag* flag = find(cmd, name);
      if (!flag) reject(cmd, "unknown flag " + std::string(token));
      after_switch = flag->value.empty() ? flag : nullptr;
      if (after_switch) {
        values_[name] = "";
      } else if (i + 1 == argc || is_flag(argv[i + 1])) {
        reject(cmd, std::string(token) + " needs a value (" + std::string(flag->value) + ")");
      } else {
        values_[name] = argv[++i];
      }
    }
  }

  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] long get_int(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : parse_number<long>(key, it->second);
  }
  [[nodiscard]] double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : parse_number<double>(key, it->second);
  }
  /// The flag's value, or `choices[0]` when it is absent; a value that is
  /// not one of `choices` is rejected ("expected a | b | ...").
  [[nodiscard]] std::string get_choice(const std::string& key,
                                       std::initializer_list<std::string_view> choices) const {
    const std::string v = get(key, std::string(*choices.begin()));
    if (std::find(choices.begin(), choices.end(), v) != choices.end()) return v;
    std::string expected;
    for (const std::string_view c : choices)
      expected += (expected.empty() ? "" : " | ") + std::string(c);
    reject_value(key, expected, v);
  }
  [[nodiscard]] bool has(const std::string& key) const { return values_.contains(key); }
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  static const Flag* find(const Command& cmd, std::string_view name) {
    for (const std::span<const Flag> group : cmd.flags)
      for (const Flag& flag : group)
        if (flag.name == name) return &flag;
    return nullptr;
  }
  [[noreturn]] static void reject(const Command& cmd, const std::string& why) {
    std::fprintf(stderr, "twostep_cli %.*s: %s\n", static_cast<int>(cmd.name.size()),
                 cmd.name.data(), why.c_str());
    print_usage(cmd);
    std::exit(1);
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

std::vector<int> parse_int_list(const std::string& flag, const std::string& s) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    out.push_back(parse_number<int>(flag, std::string_view(s).substr(pos, comma - pos)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<std::pair<int, long>> parse_proposals(const std::string& flag, const std::string& s) {
  std::vector<std::pair<int, long>> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string_view item = std::string_view(s).substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) reject_value(flag, "P=V", item);
    out.emplace_back(parse_number<int>(flag, item.substr(0, eq)),
                     parse_number<long>(flag, item.substr(eq + 1)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Returns `p` if it names one of the `n` processes, else rejects it.
int process_id(const std::string& flag, int p, int n) {
  if (p < 0 || p >= n) reject_value(flag, "0.." + std::to_string(n - 1), std::to_string(p));
  return p;
}

int cmd_bounds(const Args&) {
  util::Table t({"e", "f", "task", "object", "fast paxos", "paxos (e=0)"});
  t.set_title("minimal processes for f-resilient e-two-step consensus");
  for (int e = 1; e <= 4; ++e)
    for (int f = e; f <= 5; ++f)
      t.add_row({std::to_string(e), std::to_string(f),
                 std::to_string(SystemConfig::min_processes_task(e, f)),
                 std::to_string(SystemConfig::min_processes_object(e, f)),
                 std::to_string(SystemConfig::min_processes_fast_paxos(e, f)),
                 std::to_string(2 * f + 1)});
  std::printf("%s", t.to_string().c_str());
  return 0;
}

/// The --model values of `run` and `chaos`; the first is the default.
const std::initializer_list<std::string_view> kModels = {"sync", "ps", "wan"};

std::unique_ptr<net::LatencyModel> make_model(const std::string& name, int n) {
  const sim::Tick delta = 100;
  if (name == "ps") return std::make_unique<net::PartialSynchrony>(1500, delta, 1200);
  if (name == "wan") {
    const geo::LatencyMatrix nine = geo::LatencyMatrix::nine_regions();
    return std::make_unique<net::WanMatrix>(nine, geo::round_robin_placement(n, nine));
  }
  return std::make_unique<net::SynchronousRounds>(delta);
}

/// Writes `body(os)` to `path`; reports and returns false on I/O failure.
template <typename Body>
bool write_file(const std::string& path, Body&& body) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  body(os);
  return os.good();
}

/// Writes `metrics` as JSON to --metrics-out, if given; false on I/O failure.
bool write_metrics_if_requested(const Args& args, obs::MetricsRegistry& metrics) {
  if (!args.has("metrics-out")) return true;
  const std::string path = args.get("metrics-out");
  if (!write_file(path, [&](std::ostream& os) { metrics.write_json(os); })) return false;
  std::printf("metrics written to %s\n", path.c_str());
  return true;
}

/// The paper's bound for `protocol` at (e, f): the live RSM runs the
/// object-mode core per slot, so it inherits the object bound; Paxos and
/// EPaxos use classic 2f + 1 quorums (EPaxos's fast path needs more live).
int cluster_size(const std::string& protocol, int e, int f) {
  if (protocol == "task") return SystemConfig::min_processes_task(e, f);
  if (protocol == "object" || protocol == "rsm") return SystemConfig::min_processes_object(e, f);
  if (protocol == "fastpaxos") return SystemConfig::min_processes_fast_paxos(e, f);
  return 2 * f + 1;
}

/// Builds `spec`'s simulator runner for `protocol` and returns
/// `fn(runner)`; an unknown protocol prints why and returns 1.
template <typename Fn>
int with_sim_runner(harness::RunSpec& spec, const std::string& protocol, Fn&& fn) {
  if (protocol == "task" || protocol == "object")
    return fn(*spec.core(protocol == "task" ? core::Mode::kTask : core::Mode::kObject));
  if (protocol == "fastpaxos") return fn(*spec.fastpaxos());
  if (protocol == "paxos") return fn(*spec.paxos());
  std::fprintf(stderr, "unknown protocol '%s'\n", protocol.c_str());
  return 1;
}

template <typename Runner>
int report_run(Runner& runner, const SystemConfig& cfg, const Args& args,
               obs::RunTracer* tracer, obs::MetricsRegistry* metrics) {
  auto& cluster = runner.cluster();
  // Prefix any TWOSTEP_LOG output produced during the run with virtual time.
  util::ScopedLogClock log_clock([&cluster] { return cluster.now(); });
  for (const int p : parse_int_list("crash", args.get("crash")))
    cluster.crash(process_id("crash", p, cfg.n));
  cluster.start_all();
  auto proposals = parse_proposals("propose", args.get("propose"));
  if (proposals.empty())
    for (int p = 0; p < cfg.n; ++p) proposals.emplace_back(p, 100 + p);
  for (const auto& [p, v] : proposals) cluster.propose(process_id("propose", p, cfg.n), Value{v});
  cluster.run(5'000'000);

  const sim::Tick delta = cluster.delta();
  util::Table t({"process", "decision", "time", "two-step"});
  for (ProcessId p = 0; p < cfg.n; ++p) {
    if (cluster.crashed(p)) {
      t.add_row({"p" + std::to_string(p), "(crashed)", "-", "-"});
      continue;
    }
    const auto v = runner.monitor().decision(p);
    const auto at = runner.monitor().decision_time(p);
    t.add_row({"p" + std::to_string(p), v ? v->to_string() : "-",
               at ? std::to_string(*at) : "-",
               at && *at <= 2 * delta ? "yes" : "no"});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("safety: %s\n", runner.monitor().safe()
                                  ? "ok"
                                  : runner.monitor().violations().front().c_str());
  std::printf("messages: %zu sent, %zu delivered\n", cluster.network().messages_sent(),
              cluster.network().messages_delivered());

  if (tracer && args.has("trace")) {
    std::printf("\ntrace (%llu events recorded, %zu retained):\n",
                static_cast<unsigned long long>(tracer->recorded()), tracer->size());
    for (const auto& event : tracer->events())
      std::printf("%s\n", obs::format_event(event).c_str());
  }
  if (tracer && args.has("trace-out")) {
    const std::string path = args.get("trace-out");
    const auto spans = obs::sim_spans(tracer->events());
    if (!write_file(path, [&](std::ostream& os) { obs::write_chrome_spans(spans, os); }))
      return 1;
    std::printf("trace written to %s (load in ui.perfetto.dev)\n", path.c_str());
  }
  if (metrics && !write_metrics_if_requested(args, *metrics)) return 1;
  return runner.monitor().safe() ? 0 : 2;
}

int cmd_run(const Args& args) {
  const int e = static_cast<int>(args.get_int("e", 1));
  const int f = static_cast<int>(args.get_int("f", 1));
  const std::string protocol = args.get("protocol", "object");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  const int n = static_cast<int>(args.get_int("n", cluster_size(protocol, e, f)));
  const SystemConfig cfg{n, f, e};
  const std::string model_name = args.get_choice("model", kModels);
  std::printf("protocol=%s n=%d e=%d f=%d model=%s seed=%llu\n\n", protocol.c_str(), n, e, f,
              model_name.c_str(), static_cast<unsigned long long>(seed));

  // Observability: a tracer when any trace output is requested, a registry
  // when metrics are; with neither flag the probe stays null and the run is
  // uninstrumented.
  obs::RunTracer tracer;
  obs::MetricsRegistry metrics;
  obs::Probe probe;
  const bool want_trace = args.has("trace") || args.has("trace-out");
  const bool want_metrics = args.has("metrics-out");
  if (want_trace) probe.tracer = &tracer;
  if (want_metrics) probe.metrics = &metrics;

  auto model = make_model(model_name, n);
  obs::RunTracer* tracer_out = want_trace ? &tracer : nullptr;
  obs::MetricsRegistry* metrics_out = want_metrics ? &metrics : nullptr;
  harness::RunSpec spec(cfg);
  spec.model(std::move(model)).seed(seed).probe(probe);
  return with_sim_runner(spec, protocol, [&](auto& runner) {
    return report_run(runner, cfg, args, tracer_out, metrics_out);
  });
}

int cmd_attack(const Args& args) {
  const int e = static_cast<int>(args.get_int("e", 2));
  const int f = static_cast<int>(args.get_int("f", 2));
  const std::string target = args.get("target", "task");
  try {
    lowerbound::AttackOutcome below, at;
    if (target == "task") {
      below = lowerbound::task_below_bound_violation(e, f);
      at = lowerbound::task_at_bound_defense(e, f);
    } else if (target == "object") {
      below = lowerbound::object_below_bound_violation(e, f);
      at = lowerbound::object_at_bound_defense(e, f);
    } else if (target == "fastpaxos") {
      below = lowerbound::fastpaxos_below_bound_violation(e, f);
      at = lowerbound::fastpaxos_at_bound_defense(e, f);
    } else {
      std::fprintf(stderr, "unknown target '%s'\n", target.c_str());
      return 1;
    }
    std::printf("below the bound (n=%d):\n", below.n);
    for (const auto& line : below.narrative) std::printf("  %s\n", line.c_str());
    std::printf("\nat the bound (n=%d):\n", at.n);
    for (const auto& line : at.narrative) std::printf("  %s\n", line.c_str());
    return below.agreement_violated && !at.agreement_violated ? 0 : 2;
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr, "this (e, f) does not meet the construction's side conditions: %s\n",
                 err.what());
    return 1;
  }
}

int cmd_fuzz(const Args& args) {
  const int e = static_cast<int>(args.get_int("e", 2));
  const int f = static_cast<int>(args.get_int("f", 2));
  const std::string mode_name = args.get_choice("mode", {"task", "object"});
  const core::Mode mode = mode_name == "object" ? core::Mode::kObject : core::Mode::kTask;
  const int bound = mode == core::Mode::kTask ? SystemConfig::min_processes_task(e, f)
                                              : SystemConfig::min_processes_object(e, f);
  const int n = static_cast<int>(args.get_int("n", bound));
  const SystemConfig cfg{n, f, e};

  core::SelectionPolicy policy = core::SelectionPolicy::kPaper;
  const std::string policy_name =
      args.get_choice("policy", {"paper", "noexcl", "notie", "nothresh"});
  if (policy_name == "noexcl") policy = core::SelectionPolicy::kNoProposerExclusion;
  if (policy_name == "notie") policy = core::SelectionPolicy::kNoMaxTieBreak;
  if (policy_name == "nothresh") policy = core::SelectionPolicy::kNoThresholdBranch;

  modelcheck::Scenario<core::TwoStepProcess> scenario;
  scenario.config = cfg;
  scenario.factory = [cfg, mode, policy](consensus::Env<core::Message>& env, ProcessId) {
    core::Options o;
    o.mode = mode;
    o.delta = 100;
    o.selection_policy = policy;
    o.leader_of = [] { return ProcessId{0}; };
    return std::make_unique<core::TwoStepProcess>(env, cfg, o);
  };
  scenario.setup = [cfg, mode](modelcheck::DirectDrive<core::TwoStepProcess>& d) {
    d.start_all();
    const int proposers = mode == core::Mode::kObject ? std::max(2, cfg.n / 2) : cfg.n;
    for (ProcessId p = 0; p < proposers; ++p) d.propose(p, Value{p + 1});
  };
  for (ProcessId p = 0; p < cfg.n; ++p) scenario.may_crash.push_back(p);
  scenario.crash_budget = f;
  scenario.faults.drops = static_cast<int>(args.get_int("drop", 0));
  scenario.faults.duplicates = static_cast<int>(args.get_int("dup", 0));
  scenario.faults.partitions = static_cast<int>(args.get_int("partition", 0));

  const auto traces = static_cast<int>(args.get_int("traces", 20000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
  const int jobs = exec::resolve_jobs(static_cast<int>(args.get_int("jobs", 1)));
  std::printf("fuzzing %s protocol (policy=%s) at n=%d e=%d f=%d: %d traces, %d job(s)",
              mode_name.c_str(), policy_name.c_str(), n, e, f, traces, jobs);
  if (scenario.faults.drops || scenario.faults.duplicates || scenario.faults.partitions)
    std::printf(", fault budget drop=%d dup=%d partition=%d", scenario.faults.drops,
                scenario.faults.duplicates, scenario.faults.partitions);
  std::printf("...\n");
  const auto result =
      modelcheck::Explorer<core::TwoStepProcess>::fuzz(scenario, traces, seed, 250, jobs);
  if (result.violation) {
    std::printf("VIOLATION after %ld traces: %s\n", result.traces, result.what.c_str());
    std::printf("schedule length: %zu adversary choices\n", result.schedule.size());
    return 2;
  }
  std::printf("no violation in %ld traces (%ld total steps)\n", result.traces, result.steps);
  return 0;
}

/// Per-run outcome accumulator for `chaos`.
struct ChaosTally {
  int runs = 0;
  int decided = 0;     ///< runs where every correct process decided
  int violations = 0;  ///< runs with a safety violation
  int fast = 0;        ///< per-process decisions within 2 * delta
  long latency_sum = 0;
  int latency_samples = 0;
  unsigned long long drops = 0;
  unsigned long long dups = 0;
  unsigned long long retransmits = 0;
  unsigned long long gave_up = 0;
};

/// Executes one seeded chaos run on an already-built runner: everyone
/// proposes, the cluster runs to quiescence, outcomes land in the tally.
template <typename Runner>
void chaos_run(Runner& runner, const SystemConfig& cfg, ChaosTally& tally) {
  auto& cluster = runner.cluster();
  cluster.start_all();
  for (ProcessId p = 0; p < cfg.n; ++p) cluster.propose(p, Value{100 + p});
  cluster.run(2'000'000);

  const sim::Tick delta = cluster.delta();
  ++tally.runs;
  bool all_decided = true;
  for (ProcessId p = 0; p < cfg.n; ++p) {
    if (cluster.crashed(p)) continue;
    const auto at = runner.monitor().decision_time(p);
    if (!at) {
      all_decided = false;
      continue;
    }
    tally.latency_sum += *at;
    ++tally.latency_samples;
    if (*at <= 2 * delta) ++tally.fast;
  }
  if (all_decided) ++tally.decided;
  if (!runner.monitor().safe()) ++tally.violations;
  if (const auto* plan = cluster.network().fault_plan()) {
    tally.drops += plan->injected_drops();
    tally.dups += plan->injected_duplicates();
  }
  if (const auto* channel = cluster.reliable_channel()) {
    tally.retransmits += channel->retransmits();
    tally.gave_up += channel->gave_up();
  }
}

int cmd_chaos(const Args& args) {
  const int e = static_cast<int>(args.get_int("e", 2));
  const int f = static_cast<int>(args.get_int("f", 2));
  const std::string protocol = args.get("protocol", "object");
  const int n = static_cast<int>(args.get_int("n", cluster_size(protocol, e, f)));
  const SystemConfig cfg{n, f, e};

  const double drop = args.get_double("drop", 0);
  const double dup = args.get_double("dup", 0);
  const double reorder = args.get_double("reorder", 0);
  const int runs = static_cast<int>(args.get_int("runs", 20));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const bool reliable = !args.has("raw");
  const std::string model_name = args.get_choice("model", kModels);

  // --partition T1-T2: sever the lower half of the cluster during [T1, T2).
  sim::Tick part_since = -1, part_heal = -1;
  if (args.has("partition")) {
    const std::string spec = args.get("partition");
    const std::size_t dash = spec.find('-');
    part_since = parse_number<long>("partition", std::string_view(spec).substr(0, dash));
    if (dash != std::string::npos)
      part_heal = parse_number<long>("partition", std::string_view(spec).substr(dash + 1));
  }

  std::printf(
      "chaos: protocol=%s n=%d e=%d f=%d model=%s runs=%d seed=%llu "
      "drop=%.2f dup=%.2f reorder=%.2f partition=%s reliable=%s\n\n",
      protocol.c_str(), n, e, f, model_name.c_str(), runs,
      static_cast<unsigned long long>(seed), drop, dup, reorder,
      args.has("partition") ? args.get("partition").c_str() : "none", reliable ? "on" : "off");

  ChaosTally tally;
  for (int i = 0; i < runs; ++i) {
    const std::uint64_t run_seed = util::splitmix64(seed, static_cast<std::uint64_t>(i));
    auto model = make_model(model_name, n);
    const sim::Tick delta = model->delta();
    auto plan = std::make_shared<faults::FaultPlan>(run_seed);
    if (drop > 0) plan->drop(drop);
    if (dup > 0) plan->duplicate(dup);
    if (reorder > 0) plan->reorder(reorder, 2 * delta);
    if (part_since >= 0) {
      std::vector<ProcessId> island;
      for (ProcessId p = 0; p < n / 2; ++p) island.push_back(p);
      plan->partition_cut(std::move(island), part_since, part_heal);
    }
    harness::RunSpec spec(cfg);
    spec.model(std::move(model)).seed(run_seed).fault_plan(plan);
    if (reliable) spec.reliable();
    const int rc = with_sim_runner(spec, protocol, [&](auto& runner) {
      chaos_run(runner, cfg, tally);
      return 0;
    });
    if (rc != 0) return rc;
  }

  util::Table t({"metric", "value"});
  t.set_title("chaos summary (" + std::to_string(tally.runs) + " runs)");
  const auto pct = [](int num, int den) {
    return den == 0 ? std::string("-")
                    : std::to_string(num * 100 / den) + "% (" + std::to_string(num) + "/" +
                          std::to_string(den) + ")";
  };
  t.add_row({"all correct decided", pct(tally.decided, tally.runs)});
  t.add_row({"fast-path decisions", pct(tally.fast, tally.latency_samples)});
  t.add_row({"mean decision latency",
             tally.latency_samples == 0
                 ? "-"
                 : std::to_string(tally.latency_sum / tally.latency_samples) + " ticks"});
  t.add_row({"safety violations", std::to_string(tally.violations)});
  t.add_row({"injected drops", std::to_string(tally.drops)});
  t.add_row({"injected duplicates", std::to_string(tally.dups)});
  t.add_row({"retransmissions", std::to_string(tally.retransmits)});
  t.add_row({"retransmit give-ups", std::to_string(tally.gave_up)});
  std::printf("%s", t.to_string().c_str());
  std::printf("safety: %s\n", tally.violations == 0 ? "ok" : "VIOLATED");
  return tally.violations == 0 ? 0 : 2;
}

int cmd_sweep(const Args& args) {
  const int e_max = static_cast<int>(args.get_int("emax", 4));
  const int f_max = static_cast<int>(args.get_int("fmax", 5));
  const int jobs = exec::resolve_jobs(static_cast<int>(args.get_int("jobs", 1)));
  std::printf("sweeping Appendix B constructions over 1 <= e <= %d, e <= f <= %d, %d job(s)\n",
              e_max, f_max, jobs);

  obs::MetricsRegistry metrics;
  obs::MetricsRegistry* metrics_out = args.has("metrics-out") ? &metrics : nullptr;
  const auto rows = lowerbound::sweep_bounds(e_max, f_max, jobs, metrics_out);

  util::Table t({"construction", "e", "f", "n below", "violated", "n at", "defended", "verdict"});
  t.set_title("lower-bound grid sweep: attack below the bound, defense at it");
  bool all_predicted = true;
  for (const auto& row : rows) {
    all_predicted = all_predicted && row.as_predicted();
    t.add_row({row.construction, std::to_string(row.e), std::to_string(row.f),
               std::to_string(row.below.n), row.below.agreement_violated ? "yes" : "NO",
               std::to_string(row.at.n), row.at.agreement_violated ? "NO" : "yes",
               row.as_predicted() ? "as predicted" : "UNEXPECTED"});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("%zu rows, %s\n", rows.size(),
              all_predicted ? "all as predicted" : "DEVIATIONS FOUND");

  if (!write_metrics_if_requested(args, metrics)) return 1;
  return all_predicted ? 0 : 2;
}

// ---- live cluster commands ------------------------------------------------

volatile std::sig_atomic_t g_stop_requested = 0;

std::optional<transport::Endpoint> parse_endpoint(const std::string& s) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size()) return std::nullopt;
  int port = -1;
  const auto [end, ec] = std::from_chars(s.data() + colon + 1, s.data() + s.size(), port);
  if (ec != std::errc{} || end != s.data() + s.size() || port < 0 || port > 65535)
    return std::nullopt;
  return transport::Endpoint{s.substr(0, colon), static_cast<std::uint16_t>(port)};
}

/// Parses `--<flag> H:P,H:P,...`.  An entry that is not H:P is rejected:
/// skipping it would shift every later entry's replica id.
std::vector<transport::Endpoint> parse_endpoint_list(const std::string& flag,
                                                     const std::string& s) {
  std::vector<transport::Endpoint> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string entry = s.substr(pos, comma - pos);
    auto ep = parse_endpoint(entry);
    if (!ep) reject_value(flag, "H:P", entry);
    out.push_back(std::move(*ep));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::string format_us(double v) {
  return std::to_string(static_cast<long>(v)) + " us";
}

/// Shared tail of the localcluster report: decision split, client RTT and
/// transport traffic out of the merged per-node + client registries.
void add_live_rows(util::Table& t, obs::MetricsRegistry& merged) {
  t.add_row({"fast decisions", std::to_string(merged.counter_value("decisions.fast"))});
  t.add_row({"slow decisions", std::to_string(merged.counter_value("decisions.slow"))});
  t.add_row({"learned decisions", std::to_string(merged.counter_value("decisions.learned"))});
  auto& rtt = merged.log_histogram("client.rtt_us");
  if (rtt.count() > 0) {
    t.add_row({"client rtt p50", format_us(rtt.percentile(0.5))});
    t.add_row({"client rtt p95", format_us(rtt.percentile(0.95))});
    t.add_row({"client rtt max", format_us(rtt.percentile(1.0))});
  }
  t.add_row({"transport bytes sent", std::to_string(merged.counter_value("transport.bytes_sent"))});
  t.add_row({"transport reconnects", std::to_string(merged.counter_value("transport.reconnects"))});
}

/// Span-id salt for the localcluster driver's client recorder — far above
/// any replica salt (replica i uses i + 1), so ids never collide.
constexpr std::uint64_t kClientTraceSalt = 1000;

/// The one place the storage flag family (kStorageFlags) is parsed: every
/// command that persists builds its node::StorageOptions here.
node::StorageOptions storage_options(const Args& args) {
  node::StorageOptions storage;
  storage.dir = args.get("storage-dir");
  storage.fsync = !args.has("no-fsync");
  storage.group_commit_us = static_cast<int>(args.get_int("group-commit-us", 0));
  storage.snapshot_every =
      static_cast<std::uint64_t>(args.get_int("snapshot-every", 0));
  storage.wal_segment_bytes = static_cast<std::uint64_t>(
      args.get_int("wal-segment-bytes", static_cast<long>(storage.wal_segment_bytes)));
  return storage;
}

/// The failure-detector flag family (kFailoverFlags).
node::FailoverOptions failover_options(const Args& args) {
  node::FailoverOptions failover;
  failover.enabled = args.has("failover");
  failover.period_us = args.get_int("failover-period-us", static_cast<long>(failover.period_us));
  failover.timeout_min_us =
      args.get_int("failover-timeout-min-us", static_cast<long>(failover.timeout_min_us));
  failover.timeout_max_us =
      args.get_int("failover-timeout-max-us", static_cast<long>(failover.timeout_max_us));
  failover.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  return failover;
}

/// The geo flag family (kGeoFlags): turns a local cluster into an emulated
/// multi-region deployment.  Returns false (after printing why) on a bad spec; without --geo the
/// chaos config is left untouched.
bool apply_geo_options(const Args& args, int n, transport::ChaosConfig& chaos) {
  if (!args.has("geo")) return true;
  try {
    const double scale = args.get_double("geo-scale", 1);
    auto matrix = std::make_shared<const geo::LatencyMatrix>(
        geo::LatencyMatrix::from_spec(args.get("geo"), scale));
    chaos.geo_regions = args.has("geo-placement")
                            ? geo::parse_placement(args.get("geo-placement"), *matrix)
                            : geo::round_robin_placement(n, *matrix);
    if (static_cast<int>(chaos.geo_regions.size()) != n) {
      std::fprintf(stderr, "geo: placement covers %zu replica(s) but the cluster has %d\n",
                   chaos.geo_regions.size(), n);
      return false;
    }
    chaos.geo = std::move(matrix);
    chaos.seed = static_cast<std::uint64_t>(args.get_int("seed", chaos.seed));
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "geo: %s\n", ex.what());
    return false;
  }
  return true;
}

/// One line describing the active geo emulation, for run banners.
std::string geo_banner(const transport::ChaosConfig& chaos) {
  if (!chaos.geo) return "off";
  std::string out = std::to_string(chaos.geo->size()) + " regions (";
  for (std::size_t i = 0; i < chaos.geo_regions.size(); ++i) {
    if (i > 0) out += ",";
    out += chaos.geo->regions()[static_cast<std::size_t>(chaos.geo_regions[i])];
  }
  out += "), max one-way " + std::to_string(chaos.geo->max_one_way_us()) + " us, jitter " +
         std::to_string(chaos.geo->jitter_us()) + " us";
  return out;
}

/// The localcluster knobs shared by the rsm and single-shot paths:
/// --trace-dir enables per-process flight recorders (dumped via
/// write_trace_dir after the run), the storage flag family (see
/// storage_options) gives every replica a WAL + snapshot store, and the
/// geo flag family (see apply_geo_options) emulates a multi-region
/// deployment on the peer links.  nullopt on a bad geo spec.
std::optional<node::ClusterOptions> local_cluster_options(const Args& args, int n) {
  node::ClusterOptions options;
  options.trace = args.has("trace-dir");
  options.storage = storage_options(args);
  options.failover = failover_options(args);
  if (!apply_geo_options(args, n, options.chaos)) return std::nullopt;
  return options;
}

/// With --trace-dir DIR, writes every flight recorder (replicas, then the
/// client's) as `DIR/<process>.jsonl`, one span per line: the input
/// tracemerge consumes.  False only on I/O failure.
template <typename P>
bool dump_traces_if_requested(const Args& args, node::LocalCluster<P>& cluster,
                              const obs::FlightRecorder* client_flight) {
  if (!args.has("trace-dir")) return true;
  const std::string dir = args.get("trace-dir");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "trace-dir: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  std::vector<const obs::FlightRecorder*> recorders;
  for (int i = 0; i < cluster.size(); ++i) recorders.push_back(cluster.flight(i));
  recorders.push_back(client_flight);
  for (const obs::FlightRecorder* rec : recorders) {
    if (!rec) continue;
    const std::string path = dir + "/" + rec->process() + ".jsonl";
    if (!write_file(path, [&](std::ostream& os) { obs::write_spans_jsonl(*rec, os); }))
      return false;
    std::printf("trace spans (%zu) written to %s\n", rec->size(), path.c_str());
  }
  return true;
}

/// The rsm process factory: `base` (delta, batching knobs) with leader 0
/// and the replica's registry wired in; with batching on, each replica's
/// sealed batch sizes land in its rsm.batch_fill histogram.
auto rsm_factory(const SystemConfig& config, rsm::Options base) {
  base.leader_of = [] { return ProcessId{0}; };
  return [=](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry& reg, auto...) {
    rsm::Options options = base;
    options.probe.metrics = &reg;
    if (options.batch_max > 1) options.batch_fill = &reg.log_histogram("rsm.batch_fill");
    return std::make_unique<rsm::RsmProcess>(env, config, options);
  };
}

/// The one map from --protocol to a live process: calls
/// `body(std::type_identity<P>{}, make)` with P the protocol's process type
/// and `make(env, registry[, self])` its factory, which node::LocalCluster
/// and node::Runtime both accept.  Every protocol runs with --delta-us and
/// leader 0; epaxos adds --recovery-timeout-us (default 5 delta), the
/// instance-recovery timer for a crashed command leader.  An unknown
/// protocol prints `who: unknown --protocol` and returns 1.
template <typename Body>
int with_protocol(const char* who, const std::string& protocol, const SystemConfig& config,
                  const Args& args, Body&& body) {
  const sim::Tick delta = args.get_int("delta-us", 100'000);
  if (protocol == "rsm") {
    rsm::Options options;
    options.delta = delta;
    return body(std::type_identity<rsm::RsmProcess>{}, rsm_factory(config, options));
  }
  if (protocol == "epaxos") {
    epaxos::HostOptions base;
    base.protocol.delta = delta;
    base.protocol.recovery_timeout = args.get_int("recovery-timeout-us", 5 * delta);
    return body(std::type_identity<epaxos::EPaxosRsm>{},
                [=](consensus::Env<epaxos::Message>& env, obs::MetricsRegistry& reg, auto...) {
                  epaxos::HostOptions options = base;
                  options.protocol.probe.metrics = &reg;
                  return std::make_unique<epaxos::EPaxosRsm>(env, config, options);
                });
  }
  if (protocol == "task" || protocol == "object") {
    core::Options base;
    base.mode = protocol == "task" ? core::Mode::kTask : core::Mode::kObject;
    base.delta = delta;
    base.leader_of = [] { return ProcessId{0}; };
    return body(std::type_identity<core::TwoStepProcess>{},
                [=](consensus::Env<core::Message>& env, obs::MetricsRegistry& reg, auto...) {
                  core::Options options = base;
                  options.probe.metrics = &reg;
                  return std::make_unique<core::TwoStepProcess>(env, config, options);
                });
  }
  if (protocol == "fastpaxos") {
    fastpaxos::Options base;
    base.delta = delta;
    base.leader_of = [] { return ProcessId{0}; };
    return body(std::type_identity<fastpaxos::FastPaxosProcess>{},
                [=](consensus::Env<fastpaxos::Message>& env, obs::MetricsRegistry& reg, auto...) {
                  fastpaxos::Options options = base;
                  options.probe.metrics = &reg;
                  return std::make_unique<fastpaxos::FastPaxosProcess>(env, config, options);
                });
  }
  std::fprintf(stderr, "%s: unknown --protocol '%s'\n", who, protocol.c_str());
  return 1;
}

/// Prints the audit's verdict; true when the run was safe.
bool report_violations(const std::vector<std::string>& violations, const char* label) {
  for (const std::string& v : violations) std::printf("VIOLATION: %s\n", v.c_str());
  std::printf("%s: %s\n", label, violations.empty() ? "ok (agreement + validity + durability)"
                                                      : "VIOLATED");
  return violations.empty();
}

/// The localcluster body.  rsm, epaxos: one closed-loop client against
/// replica 0 (its proxy), then node::audit over every replica's applied
/// log (for epaxos the execution log, totally ordered by the host's
/// all-interfering default key policy, epaxos::HostOptions::key_mod).
/// task, object, fastpaxos: one client per replica proposes --value, the
/// unanimous pattern the fast path must carry; each answer is audited as
/// a one-entry log at slot 0, and no answer at all is unsafe.
template <typename P, typename MakeProc>
int run_localcluster(const std::string& protocol, SystemConfig config, MakeProc make,
                     const Args& args) {
  const auto cluster_options = local_cluster_options(args, config.n);
  if (!cluster_options) return 1;
  if (cluster_options->chaos.geo)
    std::printf("geo emulation: %s\n", geo_banner(cluster_options->chaos).c_str());
  node::LocalCluster<P> cluster(config.n, std::move(make), *cluster_options);
  if (!cluster.wait_for_mesh()) {
    std::fprintf(stderr, "localcluster: mesh did not form\n");
    return 1;
  }
  std::unique_ptr<obs::FlightRecorder> client_flight;
  if (args.has("trace-dir"))
    client_flight = std::make_unique<obs::FlightRecorder>("client", kClientTraceSalt);
  obs::MetricsRegistry client_metrics;
  node::ClientOptions client_options;
  client_options.flight = client_flight.get();
  util::Table t({"metric", "value"});
  t.set_title("localcluster " + protocol + ": n=" + std::to_string(config.n) + " e=" +
              std::to_string(config.e) + " f=" + std::to_string(config.f) + ", loopback TCP");
  std::vector<std::string> violations;
  bool complete = false;  // nothing lost or rejected, everything applied everywhere
  std::string workload;   // the closed loop's JSON summary line
  if constexpr (node::RsmLike<P>) {
    node::ClientSession client(cluster.endpoints()[0], &client_metrics, client_options);
    if (!client.connect()) {
      std::fprintf(stderr, "localcluster: client could not connect\n");
      return 1;
    }
    const long commands = args.get_int("commands", 1000);
    const auto result = client.run_closed_loop(commands);
    node::drain(cluster, result.acked);
    const std::vector<node::AppliedLog> logs = node::applied_logs(cluster);
    cluster.stop();
    violations = node::audit(logs, result.acked, [commands](std::int64_t payload) {
      return payload >= 0 && payload < commands;
    });
    std::size_t applied_min = result.acked.size();
    for (const node::AppliedLog& log : logs) applied_min = std::min(applied_min, log.size());
    t.add_row({"commands ok", std::to_string(result.ok)});
    t.add_row({"commands rejected", std::to_string(result.rejected)});
    t.add_row({"commands lost", std::to_string(result.lost)});
    t.add_row({"applied everywhere",
               std::to_string(applied_min) + "/" + std::to_string(result.acked.size())});
    complete = result.lost == 0 && result.rejected == 0 && applied_min == result.acked.size();
    workload = result.to_json();
  } else {
    const std::int64_t value = args.get_int("value", 42);
    long ok = 0, rejected = 0, lost = 0;
    std::vector<node::AppliedLog> answers;
    for (int p = 0; p < config.n; ++p) {
      node::ClientSession client(cluster.endpoints()[static_cast<std::size_t>(p)],
                                 &client_metrics, client_options);
      const auto reply = client.connect() ? client.call(value) : std::nullopt;
      if (!reply) {
        ++lost;
      } else if (!reply->ok) {
        ++rejected;
      } else {
        ++ok;
        answers.push_back({{0, reply->value}});
      }
    }
    cluster.stop();
    violations = node::audit(answers, {}, [value](std::int64_t payload) {
      return payload == rsm::RsmProcess::command_payload(value);
    });
    if (answers.empty()) violations.push_back("no replica answered");
    t.add_row({"clients ok", std::to_string(ok)});
    t.add_row({"clients rejected", std::to_string(rejected)});
    t.add_row({"clients lost", std::to_string(lost)});
    t.add_row({"decided value", answers.empty() ? "-" : std::to_string(answers[0][0].second)});
    complete = lost == 0 && rejected == 0;
  }
  obs::MetricsRegistry merged = cluster.merged_metrics();
  merged.merge(client_metrics);
  add_live_rows(t, merged);
  std::printf("%s", t.to_string().c_str());
  if (!workload.empty()) std::printf("workload: %s\n", workload.c_str());
  const bool safe = report_violations(violations, "safety");
  if (!write_metrics_if_requested(args, merged)) return 1;
  if (!dump_traces_if_requested(args, cluster, client_flight.get())) return 1;
  if (!safe) return 2;
  return complete ? 0 : 1;
}

int cmd_localcluster(const Args& args) {
  const std::string protocol = args.get("protocol", "rsm");
  const int e = static_cast<int>(args.get_int("e", 1));
  const int f = static_cast<int>(args.get_int("f", 1));
  const int n = static_cast<int>(args.get_int("n", cluster_size(protocol, e, f)));
  const sim::Tick delta = args.get_int("delta-us", 100'000);
  if (n < cluster_size(protocol, e, f))
    std::fprintf(stderr, "warning: n=%d is below the %s bound for e=%d f=%d (%d)\n", n,
                 protocol.c_str(), e, f, cluster_size(protocol, e, f));
  const SystemConfig config(n, f, e);
  std::printf("spawning %d %s replicas on loopback (delta = %lld us)\n", n, protocol.c_str(),
              static_cast<long long>(delta));
  return with_protocol("localcluster", protocol, config, args, [&](auto type, auto make) {
    return run_localcluster<typename decltype(type)::type>(protocol, config, std::move(make),
                                                           args);
  });
}

/// Post-mortem of a soak that failed its audit, written next to the WALs
/// it keeps: each replica's applied log (`soaklog_<i>`, "slot command"
/// lines), the acked payloads (`soakacked`) and, for protocols exposing a
/// replica() (EPaxos), every instance each replica knows with its status,
/// seq, ballot, payload and deps (`soakinst_<i>`).  Call after stop().
template <typename P>
void dump_soak_state(node::LocalCluster<P>& cluster, const std::string& dir,
                     const std::vector<node::AppliedLog>& logs,
                     const std::vector<std::int64_t>& acked) {
  for (std::size_t q = 0; q < logs.size(); ++q)
    write_file(dir + "/soaklog_" + std::to_string(q), [&](std::ostream& os) {
      for (const auto& [slot, cmd] : logs[q]) os << slot << ' ' << cmd << '\n';
    });
  write_file(dir + "/soakacked", [&](std::ostream& os) {
    for (const std::int64_t payload : acked) os << payload << '\n';
  });
  if constexpr (requires(P& h) { h.replica(); }) {
    for (int q = 0; q < cluster.size(); ++q) {
      if (!cluster.alive(q)) continue;
      write_file(dir + "/soakinst_" + std::to_string(q), [&](std::ostream& os) {
        cluster.node(q).unsafe_process().replica().for_each_instance(
            [&](epaxos::InstanceId iid, const auto& s) {
              os << '(' << iid.replica << ',' << iid.index << ") st=" << static_cast<int>(s.status)
                 << " seq=" << s.seq << " ballot=" << s.ballot << " payload=" << s.cmd.payload
                 << " deps:";
              for (const auto d : s.deps) os << " (" << d.replica << ',' << d.index << ')';
              os << '\n';
            });
      });
    }
  }
  std::printf("post-mortem written to %s\n", dir.c_str());
}

/// Crash-recovery soak body, generic over the hosted RSM-style protocol
/// (rsm and epaxos): cluster with WALs + failover client + seeded
/// kill/restart schedule + optional link chaos (including --geo); its
/// usage text is in the command table.
template <typename P, typename MakeProc>
int run_chaossoak(const std::string& protocol, SystemConfig config, MakeProc make,
                  const Args& args) {
  const int n = config.n;
  const int e = config.e;
  const int f = config.f;
  const long commands = args.get_int("commands", 1000);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const long period_ms = args.get_int("kill-period-ms", 500);
  const long down_ms = args.get_int("down-ms", 150);
  const long soak_ms = args.get_int("soak-ms", 60'000);
  // Per-command client think time: loopback commands finish in ~100 us, so
  // an unpaced workload can outrun the first crash round entirely; pacing
  // stretches the run across the schedule.
  const long think_us = args.get_int("think-us", 0);

  // Storage: per-replica WAL directories under --storage-dir, or a
  // throwaway temp directory (removed on a clean exit, kept on failure so
  // the logs can be inspected).
  std::string storage_dir = args.get("storage-dir");
  bool temp_storage = false;
  if (storage_dir.empty()) {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "twostep-chaossoak-XXXXXX").string();
    if (!::mkdtemp(tmpl.data())) {
      std::fprintf(stderr, "chaossoak: mkdtemp failed\n");
      return 1;
    }
    storage_dir = tmpl;
    temp_storage = true;
  }

  node::ClusterOptions cluster_options;
  cluster_options.storage = storage_options(args);
  cluster_options.storage.dir = storage_dir;  // may be the mkdtemp fallback
  cluster_options.chaos.drop_rate = args.get_double("drop", 0);
  cluster_options.chaos.duplicate_rate = args.get_double("dup", 0);
  cluster_options.chaos.delay_rate = args.get_double("delay", 0);
  cluster_options.chaos.delay_max_us = args.get_int("delay-max-us", 20'000);
  cluster_options.chaos.seed = seed;
  if (cluster_options.chaos.delay_rate > 0 && cluster_options.chaos.delay_max_us <= 0) {
    std::fprintf(stderr, "chaossoak: --delay > 0 requires --delay-max-us > 0\n");
    return 1;
  }
  if (!apply_geo_options(args, n, cluster_options.chaos)) return 1;
  if (cluster_options.chaos.geo)
    std::printf("geo emulation: %s\n", geo_banner(cluster_options.chaos).c_str());
  cluster_options.failover = failover_options(args);

  // --partition K: K seeded blackhole windows, each severing one random
  // directed link for --partition-ms somewhere inside the soak.  Asymmetric
  // on purpose — the victim still hears the blinded sender, so the failure
  // detector's suspicion/backoff logic faces one-way loss, the case a
  // symmetric partition never exercises.
  const long partition_count = args.get_int("partition", 0);
  const long partition_ms = args.get_int("partition-ms", std::max<long>(down_ms, 200));
  if (partition_count > 0 && n > 1) {
    util::Rng prng{util::splitmix64(seed, 0xB1ACB01EULL)};
    for (long i = 0; i < partition_count; ++i) {
      transport::ChaosConfig::Blackhole hole;
      hole.from =
          static_cast<consensus::ProcessId>(prng.next_below(static_cast<std::uint64_t>(n)));
      hole.to =
          static_cast<consensus::ProcessId>(prng.next_below(static_cast<std::uint64_t>(n - 1)));
      if (hole.to >= hole.from) ++hole.to;
      const std::int64_t span = std::max<std::int64_t>(soak_ms - partition_ms, 1);
      hole.since_us =
          static_cast<std::int64_t>(prng.next_below(static_cast<std::uint64_t>(span))) * 1000;
      hole.heal_us = hole.since_us + partition_ms * 1000;
      cluster_options.chaos.blackholes.push_back(hole);
    }
  }

  // --reconfig: replace one replica mid-soak — a brand-new joiner healed by
  // snapshot state transfer at soak/3, the highest founder retired at
  // 2*soak/3 — while the crash schedule keeps firing.  rsm only (the config
  // log lives in the slot RSM).
  const bool do_reconfig = args.has("reconfig");

  const node::CrashSchedule schedule =
      node::CrashSchedule::generate(seed, n, f, soak_ms, period_ms, down_ms);
  std::printf(
      "chaossoak %s: n=%d e=%d f=%d, %ld commands, %zu crash rounds "
      "(period %ld ms, down %ld ms), chaos drop=%.2f dup=%.2f delay=%.2f, wal dir %s\n",
      protocol.c_str(), n, e, f, commands, schedule.rounds.size(), period_ms, down_ms,
      cluster_options.chaos.drop_rate, cluster_options.chaos.duplicate_rate,
      cluster_options.chaos.delay_rate, storage_dir.c_str());
  if (cluster_options.failover.enabled)
    std::printf("failure detector: on (period %lld us, suspicion %lld-%lld us)\n",
                static_cast<long long>(cluster_options.failover.period_us),
                static_cast<long long>(cluster_options.failover.timeout_min_us),
                static_cast<long long>(cluster_options.failover.timeout_max_us));
  if (partition_count > 0)
    std::printf("link blackholes: %ld window(s) of %ld ms on random directed links\n",
                partition_count, partition_ms);
  if (do_reconfig)
    std::printf("reconfig: add replica %d at %ld ms, remove replica %d at %ld ms\n", n,
                soak_ms / 3, n - 1, 2 * soak_ms / 3);

  node::LocalCluster<P> cluster(n, std::move(make), cluster_options);
  if (!cluster.wait_for_mesh()) {
    std::fprintf(stderr, "chaossoak: mesh did not form\n");
    return 1;
  }

  // Closed-loop failover workload over the founders' endpoints, recording
  // which payloads were acknowledged (the durability invariant's input).
  // The session copies the endpoint list before the reconfig driver can
  // append a joiner's to it.
  obs::MetricsRegistry client_metrics;
  node::ClientOptions client_options;
  client_options.seed = seed;
  node::ClientSession client(cluster.endpoints(), &client_metrics, client_options);

  // Crash driver: replays the schedule (kill → down window → restart)
  // until the workload finishes.  Rounds never overlap, so at most
  // round.replicas.size() <= f replicas are down at any instant.
  // Per-restart latencies land in the driver's registry: recover.cycle_us
  // times the restart call itself (WAL replay + rebind + loop start) and
  // recover.downtime_us the whole kill→back-up window.
  std::atomic<bool> done{false};
  std::int64_t kills = 0;
  std::size_t rounds_run = 0;
  obs::MetricsRegistry driver_metrics;
  auto& recover_cycle_us = driver_metrics.log_histogram("recover.cycle_us");
  auto& recover_downtime_us = driver_metrics.log_histogram("recover.downtime_us");
  // The drivers' clock: sleeps until `at_ms` into the soak or the end of
  // the workload, and says whether the workload is still running.
  const auto t0 = std::chrono::steady_clock::now();
  const auto sleep_until = [&done, t0](std::int64_t at_ms) {
    while (!done.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < t0 + std::chrono::milliseconds(at_ms))
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return !done.load(std::memory_order_relaxed);
  };
  std::thread driver([&] {
    using std::chrono::duration_cast;
    using std::chrono::microseconds;
    for (const node::CrashRound& round : schedule.rounds) {
      if (!sleep_until(round.at_ms)) break;
      const auto killed_at = std::chrono::steady_clock::now();
      for (const int r : round.replicas) cluster.kill(r);
      kills += static_cast<std::int64_t>(round.replicas.size());
      ++rounds_run;
      // Always restart what we killed, even when the workload finished
      // mid-window — the invariant sweep needs every replica back up.
      sleep_until(round.at_ms + round.down_ms);
      for (const int r : round.replicas) {
        const auto restart_at = std::chrono::steady_clock::now();
        cluster.restart(r);
        const auto up_at = std::chrono::steady_clock::now();
        recover_cycle_us.record(duration_cast<microseconds>(up_at - restart_at).count());
        recover_downtime_us.record(duration_cast<microseconds>(up_at - killed_at).count());
      }
    }
  });

  // Reconfig driver: one replica replacement mid-soak, racing the crash
  // schedule.  The joiner (id n) is outside the schedule's kill pool; the
  // victim may still be killed/restarted after removal, which is exactly
  // the treat-as-crashed semantics the audit must survive.
  std::atomic<int> joiner_id{-1};
  std::atomic<int> removed_id{-1};
  std::thread reconfig_driver;
  if (do_reconfig) {
    reconfig_driver = std::thread([&] {
      if (!sleep_until(soak_ms / 3)) return;
      joiner_id.store(cluster.add_replica(), std::memory_order_relaxed);
      if (!sleep_until(2 * soak_ms / 3)) return;
      if (cluster.remove_replica(n - 1)) removed_id.store(n - 1, std::memory_order_relaxed);
    });
  }

  if (!client.connect()) {
    done.store(true);
    driver.join();
    if (reconfig_driver.joinable()) reconfig_driver.join();
    std::fprintf(stderr, "chaossoak: client could not connect\n");
    return 1;
  }
  long ok = 0, rejected = 0, lost = 0;
  std::vector<std::int64_t> acked;
  for (long i = 0; i < commands; ++i) {
    if (think_us > 0) std::this_thread::sleep_for(std::chrono::microseconds(think_us));
    const auto reply = client.call(i);
    if (!reply) {
      ++lost;
      if (!client.connected()) break;
    } else if (!reply->ok) {
      ++rejected;
    } else {
      ++ok;
      acked.push_back(i);
    }
  }
  done.store(true);
  driver.join();
  if (reconfig_driver.joinable()) reconfig_driver.join();

  const int joiner = joiner_id.load(std::memory_order_relaxed);
  const bool settled = node::drain(cluster, acked, joiner);
  const std::vector<node::AppliedLog> logs = node::applied_logs(cluster);
  cluster.stop();
  const auto violations = node::audit(logs, acked, [commands](std::int64_t payload) {
    return payload >= 0 && payload < commands;
  });

  obs::MetricsRegistry merged = cluster.merged_metrics();
  merged.merge(client_metrics);
  merged.merge(driver_metrics);
  util::Table t({"metric", "value"});
  t.set_title("chaossoak " + protocol + ": n=" + std::to_string(n) + " e=" + std::to_string(e) +
              " f=" + std::to_string(f) + ", loopback TCP + WAL + crash schedule");
  t.add_row({"commands ok", std::to_string(ok)});
  t.add_row({"commands rejected", std::to_string(rejected)});
  t.add_row({"commands lost", std::to_string(lost)});
  t.add_row({"crash rounds run", std::to_string(rounds_run) + "/" +
                                     std::to_string(schedule.rounds.size())});
  t.add_row({"replica kills", std::to_string(kills)});
  t.add_row({"client failovers", std::to_string(merged.counter_value("client.failovers"))});
  t.add_row({"client timeouts", std::to_string(merged.counter_value("client.timeouts"))});
  t.add_row({"client conn lost", std::to_string(merged.counter_value("client.conn_lost"))});
  t.add_row({"wal appends", std::to_string(merged.counter_value("wal.appends"))});
  t.add_row({"wal syncs", std::to_string(merged.counter_value("wal.syncs"))});
  t.add_row({"wal recovered records",
             std::to_string(merged.counter_value("wal.recovered_records"))});
  t.add_row({"wal truncated records",
             std::to_string(merged.counter_value("wal.truncated_records"))});
  t.add_row({"snapshots written", std::to_string(merged.counter_value("snapshot.written"))});
  t.add_row(
      {"snapshots recovered", std::to_string(merged.counter_value("snapshot.recovered"))});
  t.add_row(
      {"snapshot transfers in", std::to_string(merged.counter_value("transfer.installed"))});
  t.add_row({"recovered slots", std::to_string(merged.counter_value("recover.slots"))});
  t.add_row(
      {"recovered decided slots", std::to_string(merged.counter_value("recover.decided"))});
  t.add_row(
      {"recovered applied prefix", std::to_string(merged.counter_value("recover.applied"))});
  if (cluster_options.failover.enabled) {
    t.add_row({"suspicions", std::to_string(merged.counter_value("failover.suspicions"))});
    t.add_row({"false suspicions",
               std::to_string(merged.counter_value("failover.false_suspicions"))});
    t.add_row({"leader changes",
               std::to_string(merged.counter_value("failover.leader_changes"))});
  }
  if (do_reconfig) {
    t.add_row({"config adds applied",
               std::to_string(merged.counter_value("config.adds_applied"))});
    t.add_row({"config removes applied",
               std::to_string(merged.counter_value("config.removes_applied"))});
  }
  t.add_row({"chaos dropped", std::to_string(merged.counter_value("transport.chaos_dropped"))});
  t.add_row(
      {"chaos duplicated", std::to_string(merged.counter_value("transport.chaos_duplicated"))});
  t.add_row({"chaos delayed", std::to_string(merged.counter_value("transport.chaos_delayed"))});
  auto& rtt = merged.log_histogram("client.rtt_us");
  if (rtt.count() > 0) {
    t.add_row({"client rtt p50", format_us(rtt.percentile(0.5))});
    t.add_row({"client rtt p95", format_us(rtt.percentile(0.95))});
  }
  auto& failover_rtt = merged.log_histogram("client.failover_rtt_us");
  if (failover_rtt.count() > 0) {
    t.add_row({"failover rtt p50", format_us(failover_rtt.percentile(0.5))});
    t.add_row({"failover rtt p99", format_us(failover_rtt.percentile(0.99))});
  }
  if (recover_cycle_us.count() > 0) {
    t.add_row({"recover cycle p50", format_us(recover_cycle_us.percentile(0.5))});
    t.add_row({"recover cycle p99", format_us(recover_cycle_us.percentile(0.99))});
  }
  std::printf("%s", t.to_string().c_str());
  const bool safe = report_violations(violations, "invariants");
  if (!safe) dump_soak_state(cluster, storage_dir, logs, acked);
  if (!write_metrics_if_requested(args, merged)) return 1;
  if (!safe) return 2;  // keep the WAL dir and the post-mortem for inspection
  if (temp_storage) {
    std::error_code ec;
    std::filesystem::remove_all(storage_dir, ec);
  }
  // A --reconfig run that never reached its windows (workload drained too
  // fast) or whose joiner never healed did not test what was asked — fail
  // it like a lost command, not like a safety violation.
  if (do_reconfig && joiner < 0) {
    std::fprintf(stderr,
                 "chaossoak: workload finished before the reconfig window; raise "
                 "--think-us or --commands so the soak spans %ld ms\n",
                 soak_ms);
    return 1;
  }
  if (do_reconfig && !settled) {
    std::fprintf(stderr,
                 "chaossoak: the cluster did not settle: joiner %d behind the founders' "
                 "applied head, or an acked command unapplied\n",
                 joiner);
    return 1;
  }
  if (do_reconfig && removed_id.load(std::memory_order_relaxed) < 0) {
    std::fprintf(stderr, "chaossoak: the remove window never fired; raise --think-us or "
                         "--commands so the soak spans %ld ms\n",
                 soak_ms);
    return 1;
  }
  return (lost == 0 && rejected == 0) ? 0 : 1;
}

int cmd_chaossoak(const Args& args) {
  const std::string protocol = args.get("protocol", "rsm");
  const int e = static_cast<int>(args.get_int("e", 1));
  const int f = static_cast<int>(args.get_int("f", 1));
  const int n = static_cast<int>(args.get_int(
      "n", cluster_size(protocol == "epaxos" ? "epaxos" : "rsm", e, f)));
  const SystemConfig config(n, f, e);

  if (args.has("reconfig") && protocol != "rsm") {
    std::fprintf(stderr,
                 "chaossoak: --reconfig needs --protocol rsm (the config log lives in the "
                 "slot RSM)\n");
    return 1;
  }
  return with_protocol("chaossoak", protocol, config, args, [&](auto type, auto make) {
    using P = typename decltype(type)::type;
    if constexpr (node::RsmLike<P>) {
      return run_chaossoak<P>(protocol, config, std::move(make), args);
    } else {
      std::fprintf(stderr, "chaossoak: unknown --protocol '%s' (rsm or epaxos)\n",
                   protocol.c_str());
      return 1;
    }
  });
}

/// Shared loadgen report rows (both modes).
void add_loadgen_rows(util::Table& t, const node::LoadResult& result) {
  char rate[64];
  std::snprintf(rate, sizeof(rate), "%.0f cmds/s", result.offered_rate());
  t.add_row({"offered rate", rate});
  std::snprintf(rate, sizeof(rate), "%.0f cmds/s", result.achieved_rate());
  t.add_row({"achieved rate", rate});
  t.add_row({"commands offered", std::to_string(result.offered)});
  t.add_row({"commands ok", std::to_string(result.ok)});
  t.add_row({"commands rejected", std::to_string(result.rejected)});
  t.add_row({"commands lost", std::to_string(result.lost)});
  t.add_row({"resends", std::to_string(result.resends)});
  t.add_row({"reconnects", std::to_string(result.reconnects)});
  if (result.rtt.count > 0) {
    t.add_row({"rtt p50", format_us(result.rtt.p50)});
    t.add_row({"rtt p99", format_us(result.rtt.p99)});
    t.add_row({"rtt max", format_us(static_cast<double>(result.rtt.max))});
  }
}

/// Open-loop saturation workload (usage in the command table).  In local
/// mode the run ends with node::audit over every replica's applied log.
int cmd_loadgen(const Args& args) {
  node::LoadgenOptions gen_options;
  gen_options.rate = args.get_int("rate", 5'000);
  gen_options.sessions = static_cast<int>(args.get_int("sessions", 256));
  gen_options.connections = static_cast<int>(args.get_int("connections", 8));
  gen_options.duration_ms = args.get_int("duration-ms", 5'000);
  gen_options.drain_ms = args.get_int("drain-ms", 2'000);
  gen_options.poisson = !args.has("fixed");
  gen_options.spread = args.has("spread");
  gen_options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  // Remote mode: drive a cluster someone else is running.
  if (args.has("connect")) {
    const auto endpoints = parse_endpoint_list("connect", args.get("connect"));
    if (endpoints.empty()) {
      std::fprintf(stderr, "loadgen: --connect needs H:P[,H:P...]\n");
      return 1;
    }
    node::OpenLoopLoadgen gen(endpoints, gen_options);
    const auto result = gen.run();
    util::Table t({"metric", "value"});
    t.set_title("open-loop loadgen against " + endpoints.front().to_string());
    add_loadgen_rows(t, result);
    std::printf("%s", t.to_string().c_str());
    std::printf("loadgen: %s\n", result.to_json().c_str());
    return (result.lost == 0 && result.rejected == 0) ? 0 : 1;
  }

  // Local mode: spawn the cluster, saturate it, audit the invariants.
  const int e = static_cast<int>(args.get_int("e", 1));
  const int f = static_cast<int>(args.get_int("f", 1));
  const int n = static_cast<int>(args.get_int("n", cluster_size("rsm", e, f)));
  rsm::Options rsm_options;
  rsm_options.delta = args.get_int("delta-us", 100'000);
  rsm_options.batch_max = static_cast<int>(args.get_int("batch-max", 32));
  rsm_options.batch_linger = args.get_int("batch-linger-us", 200);
  rsm_options.pipeline_window = static_cast<int>(args.get_int("pipeline-window", 32));
  const SystemConfig config(n, f, e);

  node::ClusterOptions cluster_options;
  cluster_options.storage = storage_options(args);
  std::printf(
      "loadgen: n=%d rsm replicas, rate=%lld cmds/s, %d sessions / %d connections, "
      "batch-max=%d linger=%lld us, pipeline-window=%d, group-commit=%d us, storage=%s\n",
      n, static_cast<long long>(gen_options.rate), gen_options.sessions,
      gen_options.connections, rsm_options.batch_max,
      static_cast<long long>(rsm_options.batch_linger), rsm_options.pipeline_window,
      cluster_options.storage.group_commit_us,
      cluster_options.storage.dir.empty() ? "off" : cluster_options.storage.dir.c_str());

  node::LocalCluster<rsm::RsmProcess> cluster(n, rsm_factory(config, rsm_options),
                                              cluster_options);
  if (!cluster.wait_for_mesh()) {
    std::fprintf(stderr, "loadgen: mesh did not form\n");
    return 1;
  }

  node::OpenLoopLoadgen gen(cluster.endpoints(), gen_options);
  const auto result = gen.run();
  node::drain(cluster, gen.acked_payloads());
  const std::vector<node::AppliedLog> logs = node::applied_logs(cluster);
  cluster.stop();
  const auto violations = node::audit(logs, gen.acked_payloads(), [&gen](std::int64_t payload) {
    return gen.issued(payload);
  });

  obs::MetricsRegistry merged = cluster.merged_metrics();
  util::Table t({"metric", "value"});
  t.set_title("open-loop loadgen: n=" + std::to_string(n) + " rsm, loopback TCP");
  add_loadgen_rows(t, result);
  auto& fill = merged.log_histogram("rsm.batch_fill");
  if (fill.count() > 0) {
    char mean[64];
    std::snprintf(mean, sizeof(mean), "%.1f cmds", fill.mean());
    t.add_row({"batch fill mean", mean});
  }
  t.add_row({"wal syncs", std::to_string(merged.counter_value("wal.syncs"))});
  t.add_row({"wal barriers", std::to_string(merged.counter_value("wal.barriers"))});
  std::printf("%s", t.to_string().c_str());
  std::printf("loadgen: %s\n", result.to_json().c_str());
  const bool safe = report_violations(violations, "invariants");
  if (!write_metrics_if_requested(args, merged)) return 1;
  if (!safe) return 2;
  return (result.lost == 0 && result.rejected == 0) ? 0 : 1;
}

template <typename P, typename MakeProc>
int serve_until_signal(ProcessId id, const std::vector<transport::Endpoint>& peers,
                       const transport::Endpoint& self, MakeProc make, const Args& args) {
  node::RuntimeOptions rt_options;
  // A multi-process replica persists under <storage-dir>/replica-<id>; the
  // same flag family as the local-cluster commands (see storage_options).
  rt_options.storage = storage_options(args);
  rt_options.failover = failover_options(args);
  // A joiner (id == peers.size()) starts as a silent non-member of the
  // listed universe: it dials the members but proposes nothing until a
  // `twostep_cli join` commits its kAdd, at which point the members dial
  // back and heal it by snapshot state transfer.
  const bool joiner = id >= static_cast<int>(peers.size());
  node::Runtime<P> runtime(id, static_cast<int>(peers.size()), self, std::move(make),
                           std::move(rt_options));
  runtime.start(peers);
  std::printf("replica %d serving on %s, %zu-replica cluster%s (SIGINT to stop)\n", id,
              runtime.endpoint().to_string().c_str(), peers.size(),
              joiner ? " (joiner; awaiting `join`)" : "");
  std::signal(SIGINT, [](int) { g_stop_requested = 1; });
  std::signal(SIGTERM, [](int) { g_stop_requested = 1; });
  while (!g_stop_requested) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  runtime.stop();
  if (!write_metrics_if_requested(args, runtime.metrics())) return 1;
  std::printf("replica %d: clean shutdown\n", id);
  return 0;
}

int cmd_serve(const Args& args) {
  const auto peers = parse_endpoint_list("peers", args.get("peers"));
  const int id = static_cast<int>(args.get_int("id", 0));
  // --id == peers.size() is the joiner spelling: a brand-new replica whose
  // genesis universe is the listed cluster, with its own --listen endpoint
  // (it has no slot in the peer list yet).
  const bool joiner = id == static_cast<int>(peers.size());
  if (peers.size() < 2 || id < 0 || id > static_cast<int>(peers.size())) {
    std::fprintf(stderr,
                 "serve: need --peers H:P,H:P,... (>= 2 endpoints, in replica-id order) "
                 "and --id I within it (or I == the list size to join: see --listen)\n");
    return 1;
  }
  std::optional<transport::Endpoint> self =
      joiner ? parse_endpoint(args.get("listen")) : std::optional(peers[static_cast<std::size_t>(id)]);
  if (!self) {
    std::fprintf(stderr, "serve: a joiner (--id == the peer count) needs --listen H:P\n");
    return 1;
  }
  const std::string protocol = args.get("protocol", "rsm");
  const int e = static_cast<int>(args.get_int("e", 1));
  const int f = static_cast<int>(args.get_int("f", 1));
  const SystemConfig config(static_cast<int>(peers.size()), f, e);
  return with_protocol("serve", protocol, config, args, [&](auto type, auto make) {
    using P = typename decltype(type)::type;
    return serve_until_signal<P>(id, peers, *self, std::move(make), args);
  });
}

int cmd_client(const Args& args) {
  const auto ep = parse_endpoint(args.get("connect"));
  if (!ep) {
    std::fprintf(stderr, "client: --connect host:port is required\n");
    return 1;
  }
  obs::MetricsRegistry metrics;
  node::ClientSession client(*ep, &metrics);
  if (!client.connect()) {
    std::fprintf(stderr, "client: could not connect to %s\n", ep->to_string().c_str());
    return 1;
  }
  const long commands = args.get_int("commands", 100);
  const auto result = client.run_closed_loop(
      commands, [&](std::int64_t i) { return args.get_int("value", i); });

  util::Table t({"metric", "value"});
  t.set_title("closed-loop client against " + ep->to_string());
  t.add_row({"commands ok", std::to_string(result.ok)});
  t.add_row({"commands rejected", std::to_string(result.rejected)});
  t.add_row({"commands lost", std::to_string(result.lost)});
  t.add_row({"timeouts", std::to_string(result.timeouts)});
  t.add_row({"failovers", std::to_string(result.failovers)});
  auto& rtt = metrics.log_histogram("client.rtt_us");
  if (rtt.count() > 0) {
    t.add_row({"rtt mean", format_us(rtt.mean())});
    t.add_row({"rtt p50", format_us(rtt.percentile(0.5))});
    t.add_row({"rtt p95", format_us(rtt.percentile(0.95))});
    t.add_row({"rtt p99", format_us(rtt.percentile(0.99))});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("workload: %s\n", result.to_json().c_str());
  return (result.lost == 0 && result.rejected == 0) ? 0 : 1;
}

/// Merges per-process flight-recorder JSONL dumps into one Chrome-trace
/// JSON (chrome://tracing / ui.perfetto.dev).  The span ids carry each
/// process's salt, so concatenating files from any number of processes is
/// safe; cross-process parent links become flow arrows.
int cmd_tracemerge(const Args& args) {
  const std::vector<std::string>& inputs = args.positional();
  if (inputs.empty()) {
    std::fprintf(stderr,
                 "tracemerge: usage: twostep_cli tracemerge <spans.jsonl>... "
                 "[--out merged.json]\n");
    return 1;
  }
  std::vector<obs::MergedSpan> spans;
  for (const std::string& path : inputs) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "tracemerge: cannot open %s\n", path.c_str());
      return 1;
    }
    std::string error;
    if (!obs::parse_spans_jsonl(in, spans, &error)) {
      std::fprintf(stderr, "tracemerge: %s: %s\n", path.c_str(), error.c_str());
      return 1;
    }
  }
  const std::string out_path = args.get("out", "trace_merged.json");
  if (!write_file(out_path, [&](std::ostream& os) { obs::write_chrome_spans(spans, os); }))
    return 1;
  std::printf("tracemerge: %zu spans from %zu file(s) -> %s\n", spans.size(), inputs.size(),
              out_path.c_str());
  return 0;
}

/// Sends one frame, then pumps replies into `consume` until it returns
/// true, the deadline passes, or the connection dies.  Returns whether
/// `consume` accepted a frame.  The caller owns (and closes) the fd.
template <typename Consume>
bool send_and_await(int fd, const std::vector<std::uint8_t>& frame,
                    std::chrono::steady_clock::time_point deadline, Consume&& consume) {
  if (!transport::send_all(fd, frame)) return false;
  transport::FrameParser parser;
  std::uint8_t buf[65536];
  for (;;) {
    while (auto f = parser.next())
      if (consume(*f)) return true;
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                               deadline - std::chrono::steady_clock::now())
                               .count();
    if (parser.failed() || remaining <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(remaining));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (!parser.feed({buf, static_cast<std::size_t>(n)})) return false;
  }
}

/// Scrapes a running replica: dials the endpoint, sends one kStatsRequest
/// frame and prints the node's JSON snapshot (schema twostep-stats/1).
/// The request needs no Hello handshake — any process may ask.  The
/// --timeout-ms budget covers the dial AND the reply; both paths exit
/// nonzero on expiry.
int cmd_stats(const Args& args) {
  const std::string target =
      args.positional().empty() ? args.get("connect") : args.positional().front();
  const auto ep = parse_endpoint(target);
  if (!ep) {
    std::fprintf(stderr, "stats: usage: twostep_cli stats <host:port> [--timeout-ms T]\n");
    return 1;
  }
  const long timeout_ms = args.get_int("timeout-ms", 5'000);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  const int fd = transport::dial_blocking(*ep, deadline);
  if (fd < 0) {
    std::fprintf(stderr, "stats: could not connect to %s: %s\n", ep->to_string().c_str(),
                 std::strerror(errno));
    return 1;
  }

  const std::vector<std::uint8_t> frame = transport::make_frame(
      transport::FrameKind::kStatsRequest, codec::encode(codec::StatsRequest{1}));
  int rc = 1;
  const bool got = send_and_await(fd, frame, deadline, [&](const auto& f) {
    if (f.kind != transport::FrameKind::kStatsReply) return false;
    if (const auto reply = codec::decode_stats_reply(f.payload)) {
      std::printf("%s\n", reply->json.c_str());
      rc = 0;
    } else {
      std::fprintf(stderr, "stats: malformed reply\n");
    }
    return true;
  });
  ::close(fd);
  if (!got)
    std::fprintf(stderr, "stats: no reply from %s within %ld ms\n", ep->to_string().c_str(),
                 timeout_ms);
  return got ? rc : 1;
}

/// Shared body of `join` and `leave`: dials a live member, sends one
/// kConfigCmd frame, and blocks until the node acknowledges the change
/// *committed* (the ClientReply fires when the config handle's slot
/// decides) or the deadline passes.
int run_config_change(const char* who, const rsm::ConfigChange& change, const Args& args) {
  const std::string target =
      args.positional().empty() ? args.get("connect") : args.positional().front();
  const auto ep = parse_endpoint(target);
  if (!ep) {
    std::fprintf(stderr, "%s: need a live member to submit through: %s <host:port> ...\n",
                 who, who);
    return 1;
  }
  const long timeout_ms = args.get_int("timeout-ms", 10'000);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  const int fd = transport::dial_blocking(*ep, deadline);
  if (fd < 0) {
    std::fprintf(stderr, "%s: could not connect to %s: %s\n", who, ep->to_string().c_str(),
                 std::strerror(errno));
    return 1;
  }

  const std::int64_t id = 1;  // one command per connection; any nonzero id correlates
  const std::vector<std::uint8_t> frame = transport::make_frame(
      transport::FrameKind::kConfigCmd, codec::encode(codec::ConfigCommand{id, change}));
  bool ok = false;
  std::int32_t slot = -1;
  const bool got = send_and_await(fd, frame, deadline, [&](const auto& f) {
    if (f.kind != transport::FrameKind::kClientReply) return false;
    const auto reply = codec::decode_client_reply(f.payload);
    if (!reply || reply->id != id) return false;
    ok = reply->ok;
    slot = reply->slot;
    return true;
  });
  ::close(fd);
  if (!got) {
    std::fprintf(stderr, "%s: no commit acknowledgement from %s within %ld ms\n", who,
                 ep->to_string().c_str(), timeout_ms);
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "%s: %s rejected the change (protocol not reconfigurable, or bad replica "
                 "id)\n",
                 who, ep->to_string().c_str());
    return 1;
  }
  std::printf("%s: replica %d %s, config change committed at slot %d\n", who, change.replica,
              change.op == rsm::ConfigChange::Op::kAdd ? "added" : "removed", slot);
  return 0;
}

int cmd_join(const Args& args) {
  const int replica = static_cast<int>(args.get_int("replica", -1));
  const auto addr = parse_endpoint(args.get("address"));
  if (replica < 0 || !addr) {
    std::fprintf(stderr,
                 "join: usage: twostep_cli join <host:port> --replica I --address H:P "
                 "[--timeout-ms T]\n"
                 "      <host:port> is any live member; --address is the joiner's listen "
                 "endpoint (a `serve` started with --id N --listen H:P)\n");
    return 1;
  }
  rsm::ConfigChange change;
  change.op = rsm::ConfigChange::Op::kAdd;
  change.replica = replica;
  change.host = addr->host;
  change.port = addr->port;
  return run_config_change("join", change, args);
}

int cmd_leave(const Args& args) {
  const int replica = static_cast<int>(args.get_int("replica", -1));
  if (replica < 0) {
    std::fprintf(stderr,
                 "leave: usage: twostep_cli leave <host:port> --replica I [--timeout-ms T]\n");
    return 1;
  }
  rsm::ConfigChange change;
  change.op = rsm::ConfigChange::Op::kRemove;
  change.replica = replica;
  return run_config_change("leave", change, args);
}

// ---- the command table ------------------------------------------------------
//
// Each command lists its flags once; the shared families below are
// included by every command that reads them.  Args rejects anything else,
// and print_usage renders these entries.

constexpr Flag kStorageFlags[] = {
    {"storage-dir", "DIR",
     "persist WAL + snapshots under DIR/replica-<id>\n"
     "(serve) or DIR/r<i>; a restart recovers from them"},
    {"no-fsync", "", "skip fdatasync (test the discipline, not disks)"},
    {"group-commit-us", "G", "one barrier fsync per G-us window (0: per entry)"},
    {"snapshot-every", "K", "rsm: snapshot + truncate the WAL every K records"},
    {"wal-segment-bytes", "B", "WAL segment rotation threshold (default 8 MiB)"},
};

constexpr Flag kFailoverFlags[] = {
    {"failover", "",
     "arm the Omega failure detector: heartbeats, and\n"
     "the lowest unsuspected member leads"},
    {"failover-period-us", "P", "heartbeat period (default 50 ms)"},
    {"failover-timeout-min-us", "T", "jittered suspicion timeout floor (default 250 ms)"},
    {"failover-timeout-max-us", "T", "... doubled per false suspicion up to 2 s"},
    {"seed", "S", "seed of every seeded choice (default 1)"},
};

constexpr Flag kGeoFlags[] = {
    {"geo", "SPEC",
     "emulate regions on the peer links: a preset\n"
     "(nine-regions, us-eu, global) or a matrix file"},
    {"geo-scale", "S", "scale every delay and jitter by S (0.01: smoke)"},
    {"geo-placement", "P", "region per replica, comma list (default: i mod R)"},
};

constexpr Flag kChaosFlags[] = {
    {"drop", "R", "drop each peer frame with probability R"},
    {"dup", "R", "duplicate each peer frame with probability R"},
    {"delay", "R", "delay each peer frame with probability R ..."},
    {"delay-max-us", "U", "... by up to U us (default 20000)"},
    {"partition", "K", "K seeded blackholes on random directed links"},
    {"partition-ms", "D", "window length (default max(down-ms, 200))"},
};

/// What every live protocol takes (see with_protocol).
constexpr Flag kProtocolFlags[] = {
    {"e", "E", "fast-path fault tolerance (default 1)"},
    {"f", "F", "fault tolerance (default 1)"},
    {"delta-us", "D", "the message-delay bound delta (default 100000)"},
    {"recovery-timeout-us", "T", "epaxos: instance recovery timer (default 5 delta)"},
};

constexpr Flag kMetricsOut[] = {
    {"metrics-out", "FILE", "write the run's metrics registry as JSON"},
};

constexpr Flag kRunFlags[] = {
    {"protocol", "P", "task | object (default) | paxos | fastpaxos"},
    {"e", "E", "fast-path fault tolerance (default 1)"},
    {"f", "F", "fault tolerance (default 1)"},
    {"n", "N", "processes (default: the protocol's bound)"},
    {"model", "M", "sync (default) | ps | wan"},
    {"seed", "S", "default 1"},
    {"crash", "P[,P...]", "processes crashed from the start"},
    {"propose", "P=V[,...]", "proposals (default: each p proposes 100 + p)"},
    {"trace", "", "print the structured event stream after the run"},
    {"trace-out", "FILE", "write the events as Chrome trace JSON (Perfetto)"},
    {"metrics-out", "FILE",
     "write messages, decisions, ballots, latency as\n"
     "JSON"},
};

constexpr Flag kAttackFlags[] = {
    {"target", "T", "task (default) | object | fastpaxos"},
    {"e", "E", "default 2"},
    {"f", "F", "default 2"},
};

constexpr Flag kFuzzFlags[] = {
    {"mode", "M", "task (default) | object"},
    {"e", "E", "default 2"},
    {"f", "F", "default 2"},
    {"n", "N", "processes (default: the mode's bound)"},
    {"policy", "P", "paper (default) | noexcl | notie | nothresh"},
    {"traces", "N", "random schedules (default 20000)"},
    {"seed", "S", "default 3"},
    {"jobs", "N", "threads (0 = all cores); same result for every N"},
    {"drop", "K", "adversary budget of message drops per trace"},
    {"dup", "K", "... of duplications"},
    {"partition", "K", "... of momentary one-process partitions"},
};

constexpr Flag kChaosSimFlags[] = {
    {"protocol", "P", "task | object (default) | paxos | fastpaxos"},
    {"e", "E", "default 2"},
    {"f", "F", "default 2"},
    {"n", "N", "processes (default: the protocol's bound)"},
    {"model", "M", "sync (default) | ps | wan"},
    {"runs", "N", "seeded runs (default 20)"},
    {"seed", "S", "default 1"},
    {"drop", "R", "drop each message with probability R"},
    {"dup", "R", "duplicate each message with probability R"},
    {"reorder", "R", "delay-reorder each message with probability R"},
    {"partition", "T1-T2", "cut off the cluster's lower half in [T1, T2)"},
    {"raw", "", "no ReliableChannel: face the lossy links"},
};

constexpr Flag kSweepFlags[] = {
    {"emax", "E", "default 4"},
    {"fmax", "F", "default 5"},
    {"jobs", "N", "threads (0 = all cores); output is order-stable"},
    {"metrics-out", "FILE", "write the sweep's metrics registry as JSON"},
};

constexpr Flag kLocalClusterFlags[] = {
    {"protocol", "P", "rsm (default), epaxos, task, object, fastpaxos"},
    {"n", "N", "replicas (default: the protocol's bound)"},
    {"commands", "K", "rsm, epaxos: closed-loop commands (default 1000)"},
    {"value", "V", "single-shot protocols: every client's value (42)"},
    {"trace-dir", "DIR",
     "flight-record every process into\n"
     "DIR/<process>.jsonl (the input of tracemerge)"},
};

constexpr Flag kChaosSoakFlags[] = {
    {"protocol", "P", "rsm (default) | epaxos"},
    {"n", "N", "replicas (default: the protocol's bound)"},
    {"commands", "K", "closed-loop commands (default 1000)"},
    {"kill-period-ms", "P", "one crash round per period (default 500)"},
    {"down-ms", "D", "how long killed replicas stay down (default 150)"},
    {"soak-ms", "T", "length of the crash schedule (default 60000)"},
    {"think-us", "T", "pause before each command (default 0)"},
    {"reconfig", "",
     "rsm: add replica n at soak/3, remove n-1 at 2\n"
     "soak/3"},
};

constexpr Flag kLoadgenFlags[] = {
    {"rate", "R", "offered commands/s (default 5000)"},
    {"sessions", "S", "logical client sessions (default 256)"},
    {"connections", "C", "shared TCP connections (default 8)"},
    {"duration-ms", "T", "offer for T ms (default 5000)"},
    {"drain-ms", "T", "then wait up to T ms for replies (default 2000)"},
    {"fixed", "", "deterministic arrival spacing (default Poisson)"},
    {"spread", "", "--connect: round-robin over all endpoints"},
    {"seed", "S", "default 1"},
    {"connect", "H:P,...", "drive a running cluster (the first is the proxy)"},
    {"n", "N", "replicas (default: the rsm bound)"},
    {"e", "E", "default 1"},
    {"f", "F", "default 1"},
    {"delta-us", "D", "default 100000"},
    {"batch-max", "B", "commands per slot (default 32)"},
    {"batch-linger-us", "L", "how long an open batch waits (default 200)"},
    {"pipeline-window", "W", "own undecided slots in flight (default 32)"},
};

constexpr Flag kServeFlags[] = {
    {"id", "I", "index in --peers (the list's size: a joiner)"},
    {"peers", "H:P,...", "every replica's listen endpoint, in id order"},
    {"listen", "H:P", "a joiner's own listen endpoint"},
    {"protocol", "P", "rsm (default), epaxos, task, object, fastpaxos"},
};

constexpr Flag kClientFlags[] = {
    {"connect", "H:P", "the replica to send to"},
    {"commands", "K", "sequential commands (default 100)"},
    {"value", "V", "every command's payload (default: its index)"},
};

constexpr Flag kTracemergeFlags[] = {
    {"out", "FILE", "the merged trace (default trace_merged.json)"},
};

constexpr Flag kAdminFlags[] = {
    {"connect", "H:P", "the member to ask (as the <host:port> operand)"},
    {"timeout-ms", "T", "bound on the dial and the reply wait"},
};

constexpr Flag kReplicaFlag[] = {
    {"replica", "I", "the replica to admit or retire"},
};

constexpr Flag kJoinFlags[] = {
    {"address", "H:P", "the joiner's endpoint (serve --id N --listen H:P)"},
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"bounds", "", 0, "Print the tight-bound table for e = 1..4, f = e..5.", {}, cmd_bounds},
      {"run", "", 0,
       "Run one consensus instance on the simulator.\n"
       "Reports each process's decision, the two-step verdicts and safety.",
       {kRunFlags},
       cmd_run},
      {"attack", "", 0,
       "Replay an Appendix B lower-bound construction.\n"
       "Below the target's bound it must break agreement, at the bound it\n"
       "must not; prints the round-by-round narrative.",
       {kAttackFlags},
       cmd_attack},
      {"fuzz", "", 0,
       "Hunt for agreement violations with random schedules.\n"
       "Replayable, and identical for every --jobs.  Exit 2 on a violation.",
       {kFuzzFlags},
       cmd_fuzz},
      {"chaos", "", 0,
       "Run seeded consensus instances under injected faults.\n"
       "A ReliableChannel restores reliable links over the fault plan;\n"
       "reports decision and fast-path rates, latency and retransmissions.\n"
       "Exit 2 on a safety violation.",
       {kChaosSimFlags},
       cmd_chaos},
      {"sweep", "", 0,
       "Check every Appendix B construction over the (e, f) grid.\n"
       "Each runs below and at its bound.  Exit 2 if a row deviates from the\n"
       "paper's prediction.",
       {kSweepFlags},
       cmd_sweep},
      {"localcluster", "", 0,
       "Run a live n-replica cluster on loopback and audit it.\n"
       "Real TCP, one event-loop thread per replica.  rsm, epaxos: a\n"
       "closed-loop client on replica 0, then node::audit over the applied\n"
       "logs.  task, object, fastpaxos: one client per replica proposes\n"
       "--value and the answers must agree.  Exit 2 on a safety violation,\n"
       "1 if commands were lost or the mesh never formed.",
       {kLocalClusterFlags, kProtocolFlags, kMetricsOut, kStorageFlags, kFailoverFlags,
        kGeoFlags},
       cmd_localcluster},
      {"chaossoak", "", 0,
       "Soak a live cluster under crashes, restarts and link chaos.\n"
       "Per-replica WALs, a failover client, and a seeded schedule killing\n"
       "and restarting up to f replicas at a time; then node::audit.  A\n"
       "failed audit keeps the storage dir, with a post-mortem in it.  Exit 2\n"
       "on a violation, 1 on lost or rejected commands, a mesh failure, or a\n"
       "--reconfig run that missed its windows or did not settle.",
       {kChaosSoakFlags, kProtocolFlags, kMetricsOut, kStorageFlags, kChaosFlags,
        kFailoverFlags, kGeoFlags},
       cmd_chaossoak},
      {"loadgen", "", 0,
       "Offer an open-loop load and report the RTT distribution.\n"
       "S sessions over C connections offer R commands/s for T ms.  Without\n"
       "--connect it spawns a local rsm cluster and ends with node::audit.\n"
       "Exit 2 on a violation, 1 on lost or rejected commands.",
       {kLoadgenFlags, kMetricsOut, kStorageFlags},
       cmd_loadgen},
      {"serve", "", 0,
       "Host one replica of a multi-process cluster.\n"
       "Runs until SIGINT/SIGTERM.  --id equal to the peer count, with\n"
       "--listen, starts a joiner that waits for `join` (rsm only).",
       {kServeFlags, kProtocolFlags, kMetricsOut, kStorageFlags, kFailoverFlags},
       cmd_serve},
      {"client", "", 0,
       "Drive a running replica with sequential commands.\n"
       "Prints RTT percentiles and one \"workload: {...}\" JSON line.  Exit 1\n"
       "if a command was rejected or lost.",
       {kClientFlags},
       cmd_client},
      {"tracemerge", "<spans.jsonl>...", -1,
       "Merge flight-recorder span files into one Chrome trace.\n"
       "The inputs are localcluster --trace-dir dumps; cross-process parents\n"
       "become flow arrows.  Exit 1 on a malformed line.",
       {kTracemergeFlags},
       cmd_tracemerge},
      {"stats", "<host:port>", 1,
       "Print a running replica's stats snapshot (twostep-stats/1 JSON).\n"
       "--timeout-ms defaults to 5000.",
       {kAdminFlags},
       cmd_stats},
      {"join", "<host:port>", 1,
       "Admit a joiner through a live member.\n"
       "Exit 0 once the change commits.  --timeout-ms defaults to 10000.",
       {kReplicaFlag, kJoinFlags, kAdminFlags},
       cmd_join},
      {"leave", "<host:port>", 1,
       "Retire a replica through a live member.\n"
       "The survivors treat it as crashed.  Exit 0 once the change commits;\n"
       "--timeout-ms defaults to 10000.",
       {kReplicaFlag, kAdminFlags},
       cmd_leave},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view name = argc < 2 ? "" : argv[1];
  for (const Command& cmd : commands())
    if (cmd.name == name) return cmd.run(Args(cmd, argc, argv));
  std::string out = "usage: twostep_cli <command> [operands] [flags]\n\ncommands:\n";
  for (const Command& cmd : commands()) {
    std::string line(cmd.name);
    line.resize(14, ' ');
    out += "  " + line + std::string(cmd.about.substr(0, cmd.about.find('\n'))) + "\n";
  }
  out += "\nan unknown flag (--help, say) prints the command's usage and flags\n";
  std::fputs(out.c_str(), stderr);
  return 1;
}
