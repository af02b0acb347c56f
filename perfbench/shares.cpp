// Runs a workload as a sequence of forked child processes ("shares") and
// merges their outcomes.
//
// Why: on the 4-vCPU guest this benchmark was built on, the same work ran
// up to 40% faster or slower from one process to the next (the model
// checker's job took 0.47-0.74 s across eight processes, but stayed
// within a few percent inside one process), while pure ALU loops ran at
// one speed on every vCPU.  A run that measured one process therefore
// measured that process's luck.  Splitting each run over several fresh
// processes and taking medians over them (or over rounds of one-job
// shares) averages that factor out.
//
// Each child runs the workload on its own share of the run's time with a
// seed derived from the run's seed, writes its Outcome to a pipe and
// exits; the parent starts the next child only after the previous one
// ended, so shares never overlap.  The parent starts no threads before
// the last fork.
//
// Every share runs pinned to one CPU: share k on the k-th allowed CPU,
// cyclically.  On the shared 4-vCPU host this was built on, a thread
// handing work to a thread on another vCPU had to wake that vCPU, and
// whenever the host was busy the wake-up waited for the host's scheduler:
// unpinned, closed-loop p50 rose from 103 to 175-187 us and p90 from 123
// to 370-640 us.  Pinned, it read 134-142 us and 173-181 us in the same
// busy minutes and 127-132 us and 163-174 us on a calm host.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

#include "perfbench.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

/// Line format: "c <0|1> <why>", "a <attempted> <failed>",
/// "m <name> <unit> <value>", "s <name> <v>...".
std::string serialize(const Outcome& out) {
  std::ostringstream os;
  os << "c " << (out.correct ? 1 : 0) << ' ' << out.why << '\n';
  os << "a " << out.attempted << ' ' << out.failed << '\n';
  for (const auto& [name, m] : out.metrics)
    os << "m " << name << ' ' << m.unit << ' ' << number(m.value) << '\n';
  for (const auto& [name, values] : out.samples) {
    os << "s " << name;
    for (const double v : values) os << ' ' << number(v);
    os << '\n';
  }
  return os.str();
}

Outcome deserialize(const std::string& text) {
  Outcome out;
  std::istringstream in(text);
  std::string line;
  bool complete = false;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "c") {
      int ok = 0;
      ls >> ok;
      std::getline(ls, out.why);
      out.correct = ok == 1;
      complete = true;
    } else if (tag == "a") {
      ls >> out.attempted >> out.failed;
    } else if (tag == "m") {
      std::string name, unit;
      double value = 0;
      ls >> name >> unit >> value;
      out.set(name, value, unit);
    } else if (tag == "s") {
      std::string name;
      ls >> name;
      auto& values = out.samples[name];
      for (double v; ls >> v;) values.push_back(v);
    }
  }
  if (!complete) throw std::runtime_error("a share ended without a result");
  return out;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Forks one child running `fn` (pinned to `cpu` unless it is negative)
/// and returns its outcome.
Outcome run_child(Outcome (*fn)(const RunOptions&), const RunOptions& opt, int cpu) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      ::sched_setaffinity(0, sizeof(set), &set);
    }
    int code = 0;
    std::string text;
    try {
      Outcome out = fn(opt);
      out.add("peak_rss_mb", peak_rss_mb());
      text = serialize(out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      code = 1;
    }
    for (std::size_t sent = 0; sent < text.size();) {
      const ssize_t n = ::write(fds[1], text.data() + sent, text.size() - sent);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::close(fds[1]);
    std::fflush(stderr);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[65536];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n < 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("a share of the workload failed");
  return deserialize(text);
}

}  // namespace

Outcome run_shares(Outcome (*fn)(const RunOptions&), const RunOptions& opt, int shares) {
  Outcome merged;
  std::map<std::string, std::vector<double>> per_layer;  // one value per share
  // One-job shares come in rounds of one process per CPU, each pinned to
  // its CPU: a round is one operation, so every operation samples each
  // vCPU, and process-to-process speed differences average out inside it.
  const std::vector<int> cpus = allowed_cpus();
  const std::size_t round = shares > 0 || cpus.empty() ? 1 : cpus.size();
  const std::int64_t end = mono_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::int64_t round_start = mono_ns(), last_round = 0;
  for (std::size_t k = 0;; ++k) {
    if (k % round == 0 && k > 0) {
      last_round = mono_ns() - round_start;
      round_start = mono_ns();
    }
    if (shares > 0 ? k == static_cast<std::size_t>(shares)
                   : k % round == 0 && k > 0 && round_start + last_round > end)
      break;
    RunOptions child = opt;
    child.seed = twostep::util::splitmix64(opt.seed, k);
    child.seconds = shares > 0 ? opt.seconds / shares : 0;
    const int cpu = cpus.empty() ? -1 : cpus[k % cpus.size()];
    Outcome out = run_child(fn, child, cpu);
    if (!out.correct) merged.fail(out.why);
    merged.attempted += out.attempted;
    merged.failed += out.failed;
    for (const auto& [name, values] : out.samples)
      merged.samples[name].insert(merged.samples[name].end(), values.begin(), values.end());
    for (const auto& [name, m] : out.metrics) {
      per_layer[name].push_back(m.value);
      merged.metrics[name].unit = m.unit;
    }
  }
  for (const auto& [name, values] : per_layer) merged.metrics[name].value = median(values);

  auto& s = merged.samples;
  if (!opt.trace) {
    merged.set("setup_s", median(s["setup_s"]), "s");
    if (s.contains("job_us")) {
      // One operation = one round of jobs; its time is their sum.
      const auto& jobs = s["job_us"];
      for (std::size_t i = 0; i + round <= jobs.size(); i += round) {
        double sum = 0;
        for (std::size_t j = i; j < i + round; ++j) sum += jobs[j];
        s["op_us"].push_back(sum);
      }
      merged.set("op_p50_us", median(s["op_us"]), "us");
      merged.set("op_p90_us", quantile(s["op_us"], 0.9), "us");
    } else {
      merged.set("op_p50_us", median(s["win_p50_us"]), "us");
      merged.set("op_p90_us", median(s["win_p90_us"]), "us");
    }
    merged.set("peak_rss_mb", median(s["peak_rss_mb"]), "MB");
  }
  return merged;
}

}  // namespace perfbench
