// The two live workloads, on the n=3, e=1, f=1 RSM cluster (the task
// bound of Theorem 5) over loopback, WAL on with fsync off:
//
//   closed_fastpath  one closed-loop client, one connection to replica 0,
//                    no batching and no group commit.  Every command's
//                    latency is the sum of the blocking hops of the
//                    two-step fast path; no timer sits on that path.
//   open_batched     fixed-spacing open loop well below the knee: 64 dedup
//                    sessions over 4 connections to replica 0, RSM
//                    batching (32 commands, 200 us linger), a pipeline
//                    window of 32 and group commit at 200 us.  Latency is
//                    timed from each command's due instant.
//
// Both time the layers from outside, through the public cluster, client,
// codec and transport types, and read the counters and histograms the
// runtime's obs::MetricsRegistry already exposes.
#include <malloc.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "codec/codec.hpp"
#include "node/client.hpp"
#include "node/local_cluster.hpp"
#include "obs/flight.hpp"
#include "perfbench.hpp"
#include "rsm/rsm.hpp"
#include "transport/wire.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using twostep::consensus::ProcessId;
using twostep::consensus::SystemConfig;
using Cluster = twostep::node::LocalCluster<twostep::rsm::RsmProcess>;

constexpr int kN = 3, kE = 1, kF = 1;
/// Live delta: far above a loopback round trip, so no ballot timer races
/// the fast path and any slow decision is a real protocol event.
constexpr std::int64_t kDeltaUs = 100'000;
constexpr std::int64_t kPayloadMask = (std::int64_t{1} << 40) - 1;

/// closed_fastpath issues this many commands per second of --seconds,
/// about the rate one closed-loop client reaches on 4 vCPUs.
constexpr double kClosedRate = 8'000;

// open_batched shape.
constexpr std::int64_t kOpenRate = 5'000;  ///< cmds/s, fixed spacing
constexpr int kSessions = 64;
constexpr int kConnections = 4;
constexpr int kBatchMax = 32;
constexpr std::int64_t kBatchLingerUs = 200;
constexpr int kPipelineWindow = 32;
constexpr int kGroupCommitUs = 200;

/// Set-ups per closed_fastpath share.  One set-up (cluster start, mesh,
/// connect) lasts a few milliseconds, so one sample per share is too few.
/// It has no warm-up calls: on a shared host, 50 calls right after a
/// set-up took 5 ms in calm hours and 20-40 ms in busy ones.  They fall
/// into the first latency window, which the windowed median (see Outcome)
/// outvotes.
constexpr int kClosedSetups = 10;
/// Open-loop warm-up before the first measured command (part of set-up).
constexpr std::int64_t kOpenWarmupNs = 300'000'000;
/// Untimed warm-up calls before the traced segment's traced calls.
constexpr int kTracedWarmup = 300;
/// Traced closed-loop calls in the traced run; bounded so the per-node
/// flight recorders (64k spans) never evict.
constexpr int kTracedCalls = 3'000;

struct Shape {
  bool batched = false;
  bool trace = false;
};

Cluster::Factory factory(const Shape& shape) {
  return [shape](twostep::consensus::Env<twostep::rsm::Msg>& env,
                 twostep::obs::MetricsRegistry& reg, ProcessId) {
    twostep::rsm::Options o;
    o.delta = kDeltaUs;
    o.leader_of = [] { return ProcessId{0}; };
    o.probe.metrics = &reg;
    if (shape.batched) {
      o.batch_max = kBatchMax;
      o.batch_linger = kBatchLingerUs;
      o.pipeline_window = kPipelineWindow;
      o.batch_fill = &reg.log_histogram("rsm.batch_fill");
    }
    return std::make_unique<twostep::rsm::RsmProcess>(env, SystemConfig{kN, kF, kE}, o);
  };
}

/// Waits, yielding the CPU, until every replica has a connection to and
/// from every other; false after 5 s.  LocalCluster::wait_for_mesh sleeps
/// 2 ms between checks, which rounded set-up times to 2 ms steps: the
/// median of a run's set-ups flipped between steps from one run to the
/// next.
bool await_mesh(Cluster& cluster) {
  const int peers = cluster.size() - 1;
  const std::int64_t deadline = mono_ns() + 5'000'000'000;
  for (;;) {
    bool full = true;
    for (int i = 0; i < cluster.size(); ++i)
      if (cluster.node(i).connected_out() < peers || cluster.node(i).connected_in() < peers)
        full = false;
    if (full) return true;
    if (mono_ns() > deadline) return false;
    std::this_thread::yield();
  }
}

std::unique_ptr<Cluster> start_cluster(const Shape& shape, const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  twostep::node::ClusterOptions options;
  options.storage.dir = dir;
  options.storage.fsync = false;
  options.storage.group_commit_us = shape.batched ? kGroupCommitUs : 0;
  options.trace = shape.trace;
  auto cluster = std::make_unique<Cluster>(kN, factory(shape), options);
  if (!await_mesh(*cluster)) throw std::runtime_error("cluster mesh did not form");
  return cluster;
}

/// Payloads (low 40 bits of each applied command), per replica.
std::vector<std::vector<std::int64_t>> applied_payloads(Cluster& cluster) {
  std::vector<std::vector<std::int64_t>> logs;
  for (int i = 0; i < cluster.size(); ++i) {
    std::vector<std::int64_t> log;
    for (const auto& [slot, cmd] : cluster.node(i).applied_log()) log.push_back(cmd & kPayloadMask);
    logs.push_back(std::move(log));
  }
  return logs;
}

/// Waits until every replica applied `count` commands (or 10 s pass).
void await_applied(Cluster& cluster, std::size_t count) {
  const std::int64_t deadline = mono_us() + 10'000'000;
  for (;;) {
    bool all = true;
    for (int i = 0; i < cluster.size(); ++i)
      if (cluster.node(i).applied_log().size() < count) all = false;
    if (all || mono_us() > deadline) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::size_t distinct_slots(Cluster& cluster) {
  std::set<std::int32_t> slots;
  for (const auto& [slot, cmd] : cluster.node(0).applied_log()) slots.insert(slot);
  return slots.size();
}

struct TransportTotals {
  double frames = 0, bytes = 0;
};
TransportTotals transport_totals(Cluster& cluster) {
  TransportTotals t;
  for (int i = 0; i < cluster.size(); ++i) {
    t.frames += static_cast<double>(cluster.node(i).stats().frames_sent.load());
    t.bytes += static_cast<double>(cluster.node(i).stats().bytes_sent.load());
  }
  return t;
}

/// Per-layer numbers read from the stopped cluster's merged registry.
void registry_metrics(Cluster& cluster, double commands, Outcome& out) {
  twostep::obs::MetricsRegistry merged = cluster.merged_metrics();
  out.set("storage.appends_per_cmd",
          static_cast<double>(merged.counter_value("wal.appends")) / commands, "count");
  out.set("storage.records_per_barrier", merged.log_histogram_snapshot("wal.barrier_records").mean,
          "count");
  out.set("node.serve_us", merged.log_histogram_snapshot("node.serve_us").p50, "us");
  out.set("node.deliver_us", merged.log_histogram_snapshot("node.deliver_us").p50, "us");
  out.set("loop.work_us", merged.log_histogram_snapshot("loop.work_us").p50, "us");
  out.set("loop.timer_depth", merged.log_histogram_snapshot("loop.timer_depth").p50, "count");
  out.set("rsm.slow_decisions", static_cast<double>(merged.counter_value("decisions.slow")),
          "count");
}

std::string storage_dir(const RunOptions& opt, const char* tag) {
  return opt.scratch_dir + "/" + opt.workload + "-" + std::to_string(::getpid()) + "-" + tag;
}

void remove_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// Adds the p50 and p90 of each whole window of kWindowCommands
/// consecutive latencies (in issue order); a partial last window is left out.
void add_windows(const std::vector<double>& latency_us, Outcome& out) {
  for (std::size_t i = 0; i + kWindowCommands <= latency_us.size(); i += kWindowCommands) {
    const std::vector<double> window(latency_us.begin() + static_cast<std::ptrdiff_t>(i),
                                     latency_us.begin() +
                                         static_cast<std::ptrdiff_t>(i + kWindowCommands));
    out.add("win_p50_us", median(window));
    out.add("win_p90_us", quantile(window, 0.9));
  }
}

// ---------------------------------------------------------------- closed loop

struct ClosedRun {
  std::vector<double> latency_us;
  std::vector<std::int64_t> issued;  ///< every payload the client issued, in order
  std::int64_t failed = 0;
  /// Calls that waited at least the fast path's timer (2 delta): only
  /// their slots may leave the fast path.
  std::int64_t past_timer = 0;
};

/// Issues `count` sequential calls, each waiting for the previous reply.
void closed_calls(twostep::node::ClientSession& client, std::uint64_t base, ClosedRun& run,
                  std::int64_t count, bool record) {
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int64_t payload = payload_of(base, static_cast<std::int64_t>(run.issued.size()));
    run.issued.push_back(payload);
    const std::int64_t t0 = mono_ns();
    const auto reply = client.call(payload);
    const std::int64_t t1 = mono_ns();
    if (!reply || !reply->ok || (reply->value & kPayloadMask) != payload) {
      ++run.failed;
      continue;
    }
    if (t1 - t0 >= 2 * kDeltaUs * 1000) ++run.past_timer;
    if (record) run.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
}

/// A closed-loop cluster and its connected client.
struct ClosedSetup {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<twostep::node::ClientSession> client;
};

/// Starts the cluster and connects the client; adds the time this took
/// as a setup_s sample.
ClosedSetup closed_setup(const std::string& dir, Outcome& out) {
  const std::int64_t t0 = mono_ns();
  ClosedSetup s;
  s.cluster = start_cluster(Shape{}, dir);
  s.client = std::make_unique<twostep::node::ClientSession>(s.cluster->endpoints()[0], nullptr);
  if (!s.client->connect()) throw std::runtime_error("client could not connect");
  out.add("setup_s", static_cast<double>(mono_ns() - t0) / 1e9);
  return s;
}

/// Closes the client, lets every replica apply what it issued, stops the
/// cluster and checks it: the log is the client's issue order on every
/// replica, and every slot is decided by its proxy on the fast path,
/// except a slot whose command waited out the 2-delta timer (Figure 1
/// leaves the fast path only then).  Counts the calls in `out`.
void finish_closed(ClosedSetup& s, const ClosedRun& run, Outcome& out) {
  s.client.reset();
  await_applied(*s.cluster, run.issued.size());
  s.cluster->stop();
  const std::string err = check_logs_match_issue_order(applied_payloads(*s.cluster), run.issued);
  if (!err.empty()) out.fail(err);
  twostep::obs::MetricsRegistry merged = s.cluster->merged_metrics();
  const auto fast = merged.counter_value("decisions.fast");
  const auto slow = merged.counter_value("decisions.slow");
  if (fast + slow != run.issued.size() || slow > static_cast<std::uint64_t>(run.past_timer))
    out.fail("slots off the fast path: fast=" + std::to_string(fast) + " slow=" +
             std::to_string(slow) + " commands=" + std::to_string(run.issued.size()) +
             " calls past the timer=" + std::to_string(run.past_timer));
  out.attempted += static_cast<std::int64_t>(run.issued.size());
  out.failed += run.failed;
}

/// Self time of each span: its duration minus the part of its interval
/// its children cover; median per span name.
void span_self_times(const std::vector<twostep::obs::SpanRecord>& spans, Outcome& out) {
  std::unordered_map<std::uint64_t, std::vector<const twostep::obs::SpanRecord*>> children;
  for (const auto& s : spans) children[s.parent_span].push_back(&s);
  std::map<std::string, std::vector<double>> self;
  for (const auto& s : spans) {
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const auto* c : children[s.span_id]) {
      const std::int64_t lo = std::max(c->start_us, s.start_us);
      const std::int64_t hi = std::min(c->start_us + c->dur_us, s.start_us + s.dur_us);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, reach = s.start_us;
    for (const auto& [lo, hi] : cover) {
      if (hi <= reach) continue;
      covered += hi - std::max(lo, reach);
      reach = hi;
    }
    self[s.name].push_back(static_cast<double>(s.dur_us - covered));
  }
  for (const char* name : kSpanNames)
    out.set(std::string("span.") + name + ".self_us", median(self[name]), "us");
}

/// The traced segment: a fresh cluster with flight recorders and a traced
/// client.  Feeds only per-layer metrics.
double traced_closed_segment(const RunOptions& opt, std::uint64_t base, Outcome& out) {
  const std::string dir = storage_dir(opt, "traced");
  auto cluster = start_cluster(Shape{false, true}, dir);
  twostep::obs::FlightRecorder client_spans("client", 1000);
  twostep::node::ClientOptions copt;
  copt.flight = &client_spans;
  twostep::node::ClientSession client(cluster->endpoints()[0], nullptr, copt);
  if (!client.connect()) throw std::runtime_error("traced client could not connect");
  ClosedRun run;
  closed_calls(client, base, run, kTracedWarmup, false);
  closed_calls(client, base, run, kTracedCalls, true);
  await_applied(*cluster, run.issued.size());
  cluster->stop();
  const std::string err = check_logs_match_issue_order(applied_payloads(*cluster), run.issued);
  if (!err.empty()) out.fail("traced run: " + err);
  if (run.failed != 0) out.fail("traced run: calls failed");
  std::vector<twostep::obs::SpanRecord> spans = client_spans.spans();
  for (int i = 0; i < cluster->size(); ++i) {
    const auto node_spans = cluster->flight(i)->spans();
    spans.insert(spans.end(), node_spans.begin(), node_spans.end());
  }
  span_self_times(spans, out);
  cluster.reset();
  remove_dir(dir);
  return median(run.latency_us);
}

}  // namespace

Outcome run_closed_fastpath(const RunOptions& opt) {
  Outcome out;
  const std::uint64_t base = payload_base(opt.seed);
  const std::string dir = storage_dir(opt, "measured");
  // Set-ups that only set up; the last one below is measured on.
  for (int i = 1; i < kClosedSetups; ++i) {
    ClosedSetup s = closed_setup(dir, out);
    finish_closed(s, ClosedRun{}, out);
    s = {};
    ::malloc_trim(0);  // hand the freed cluster back, so peak_rss_mb is the measured one's
  }
  ClosedRun run;
  ClosedSetup s = closed_setup(dir, out);
  const auto& cluster = s.cluster;
  const TransportTotals before = transport_totals(*cluster);
  // A fixed amount of work per share: memory and the anti-entropy cost
  // both grow with the log, so a time-boxed loop would tie them to
  // throughput.
  closed_calls(*s.client, base, run, static_cast<std::int64_t>(opt.seconds * kClosedRate),
               true);
  const TransportTotals after = transport_totals(*cluster);
  const double measured = static_cast<double>(run.issued.size());
  finish_closed(s, run, out);
  if (opt.trace) {
    out.set("transport.frames_per_cmd", (after.frames - before.frames) / measured, "count");
    out.set("transport.bytes_per_cmd", (after.bytes - before.bytes) / measured, "B");
    registry_metrics(*cluster, static_cast<double>(run.issued.size()), out);
    out.set("rsm.cmds_per_slot",
            static_cast<double>(run.issued.size()) / static_cast<double>(distinct_slots(*cluster)),
            "count");
    const double untraced_p50 = median(run.latency_us);
    s.cluster.reset();
    remove_dir(dir);
    out.set("obs.trace_overhead_us", traced_closed_segment(opt, base, out) - untraced_p50, "us");
  } else {
    add_windows(run.latency_us, out);
  }
  s.cluster.reset();
  remove_dir(dir);
  return out;
}

// ------------------------------------------------------------------ open loop

namespace {

/// Single-threaded open-loop generator: commands fall due at fixed
/// spacing, go out round-robin over the sessions (and so over the
/// connections), and are timed from their due instant.  It never sleeps:
/// it polls its connections without blocking and yields the CPU between
/// polls, so it sends on time (gen.lag_p90_us) and the vCPU the share is
/// pinned to never halts.  Sleeping until each due instant instead let
/// the vCPU halt between commands, and whenever the host was busy every
/// wake-up (the generator's and the replicas' timers) waited for the
/// host's scheduler: p90 read 4.6-4.9 ms where the polling generator read
/// 1.54-1.55 ms in the same minutes, as on a calm host.
class OpenLoop {
 public:
  OpenLoop(const twostep::transport::Endpoint& server, std::uint64_t seed) {
    twostep::util::Rng rng{twostep::util::splitmix64(seed, 0x4f4cULL)};
    for (int s = 0; s < kSessions; ++s)
      client_ids_.push_back(static_cast<std::int64_t>(rng() >> 2) | 1);
    next_req_.assign(kSessions, 1);
    for (int c = 0; c < kConnections; ++c) {
      conns_.push_back(dial(server));
      parsers_.emplace_back();
    }
  }
  ~OpenLoop() {
    for (const int fd : conns_) ::close(fd);
  }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// One command; all instants in steady-clock nanoseconds.
  struct Command {
    Issued issued;  ///< issued_at is the due instant
    std::int64_t sent_at = 0;
    bool acked = false;
  };

  /// Offers kOpenRate cmds/s for `window_ns`, then drains for up to 10 s.
  /// Returns the index range [first, end) of the commands it issued.
  std::pair<std::size_t, std::size_t> run(std::uint64_t base, std::int64_t window_ns) {
    const std::size_t first = cmds_.size();
    const std::int64_t start = mono_ns();
    const std::int64_t spacing = 1'000'000'000 / kOpenRate;
    const std::int64_t total = window_ns / spacing;
    for (std::int64_t issued = 0; issued < total;) {
      const std::int64_t due = start + issued * spacing;
      const std::int64_t now = mono_ns();
      if (now >= due) {
        issue(base, due);
        ++issued;
        continue;
      }
      pump();
    }
    const std::int64_t deadline = mono_ns() + 10'000'000'000;
    while (outstanding_ > 0 && mono_ns() < deadline) pump();
    return {first, cmds_.size()};
  }

  [[nodiscard]] const std::vector<Command>& commands() const { return cmds_; }

 private:
  static int dial(const twostep::transport::Endpoint& ep) {
    const int fd = twostep::transport::dial_nonblocking(ep);
    pollfd pfd{fd, POLLOUT, 0};
    int err = 0;
    socklen_t len = sizeof(err);
    if (::poll(&pfd, 1, 5'000) != 1 || ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      ::close(fd);
      throw std::runtime_error("generator could not connect");
    }
    return fd;
  }

  void issue(std::uint64_t base, std::int64_t due) {
    const auto index = static_cast<std::int64_t>(cmds_.size());
    const int session = static_cast<int>(index % kSessions);
    const int conn = session % kConnections;
    Command c;
    c.issued.payload = payload_of(base, index);
    c.issued.issued_at = due;
    // Ids rise per session (the server's dedup table needs that) and are
    // unique per connection (replies are matched on them).
    const std::int64_t req_id = (static_cast<std::int64_t>(session) << 32) |
                                next_req_[static_cast<std::size_t>(session)]++;
    const auto frame = twostep::transport::make_frame(
        twostep::transport::FrameKind::kClientRequest,
        twostep::codec::encode(twostep::codec::ClientRequest{
            req_id, c.issued.payload, client_ids_[static_cast<std::size_t>(session)], {}}));
    c.sent_at = mono_ns();
    send_all(conns_[static_cast<std::size_t>(conn)], frame);
    inflight_[{conn, req_id}] = static_cast<std::size_t>(index);
    cmds_.push_back(c);
    ++outstanding_;
  }

  static void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
        pollfd pfd{fd, POLLOUT, 0};
        ::poll(&pfd, 1, 100);
        continue;
      }
      if (n <= 0) throw std::runtime_error("generator connection lost");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Consumes every reply that is ready, without blocking; yields the CPU
  /// when none is.
  void pump() {
    std::vector<pollfd> pfds;
    for (const int fd : conns_) pfds.push_back(pollfd{fd, POLLIN, 0});
    const int ready = ::poll(pfds.data(), pfds.size(), 0);
    if (ready <= 0) {
      ::sched_yield();
      return;
    }
    std::uint8_t buf[65536];
    for (std::size_t c = 0; c < pfds.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::recv(conns_[c], buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) throw std::runtime_error("generator connection closed");
      if (n < 0) continue;
      const std::int64_t now = mono_ns();
      parsers_[c].feed({buf, static_cast<std::size_t>(n)});
      while (auto frame = parsers_[c].next()) {
        if (frame->kind != twostep::transport::FrameKind::kClientReply) continue;
        const auto reply = twostep::codec::decode_client_reply(frame->payload);
        if (!reply) continue;
        const auto it = inflight_.find({static_cast<int>(c), reply->id});
        if (it == inflight_.end()) continue;
        Command& cmd = cmds_[it->second];
        inflight_.erase(it);
        --outstanding_;
        if (!reply->ok || (reply->value & kPayloadMask) != cmd.issued.payload) continue;
        cmd.acked = true;
        cmd.issued.acked_at = now;
      }
    }
  }

  struct Key {
    int conn;
    std::int64_t id;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<std::int64_t>{}(k.id * 8 + k.conn);
    }
  };

  std::vector<int> conns_;
  std::vector<twostep::transport::FrameParser> parsers_;
  std::vector<std::int64_t> client_ids_;
  std::vector<std::int64_t> next_req_;
  std::vector<Command> cmds_;
  std::unordered_map<Key, std::size_t, KeyHash> inflight_;
  std::int64_t outstanding_ = 0;
};

}  // namespace

Outcome run_open_batched(const RunOptions& opt) {
  Outcome out;
  const std::uint64_t base = payload_base(opt.seed);
  const std::string dir = storage_dir(opt, "measured");
  const std::int64_t t0 = mono_ns();
  auto cluster = start_cluster(Shape{true, false}, dir);
  auto gen = std::make_unique<OpenLoop>(cluster->endpoints()[0], opt.seed);
  (void)gen->run(base, kOpenWarmupNs);
  out.add("setup_s", static_cast<double>(mono_ns() - t0) / 1e9);
  const TransportTotals before = transport_totals(*cluster);
  const auto window_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  const auto [first, end] = gen->run(base, window_ns);
  const TransportTotals after = transport_totals(*cluster);

  std::vector<double> latency_us, lag_us;
  std::vector<Issued> acked;
  for (std::size_t i = 0; i < gen->commands().size(); ++i) {
    const auto& c = gen->commands()[i];
    if (!c.acked) continue;
    acked.push_back(c.issued);
    if (i < first) continue;
    latency_us.push_back(static_cast<double>(c.issued.acked_at - c.issued.issued_at) / 1e3);
    lag_us.push_back(static_cast<double>(c.sent_at - c.issued.issued_at) / 1e3);
  }
  const double measured = static_cast<double>(end - first);
  out.attempted = static_cast<std::int64_t>(end - first);
  out.failed = out.attempted - static_cast<std::int64_t>(latency_us.size());
  const std::size_t total_acked = acked.size();
  gen.reset();
  await_applied(*cluster, total_acked);
  cluster->stop();
  const std::string err = check_open_loop_log(applied_payloads(*cluster), acked);
  if (!err.empty()) out.fail(err);

  if (opt.trace) {
    out.set("transport.frames_per_cmd", (after.frames - before.frames) / measured, "count");
    out.set("transport.bytes_per_cmd", (after.bytes - before.bytes) / measured, "B");
    registry_metrics(*cluster, static_cast<double>(total_acked), out);
    out.set("rsm.cmds_per_slot",
            static_cast<double>(total_acked) / static_cast<double>(distinct_slots(*cluster)),
            "count");
    out.set("gen.lag_p90_us", quantile(lag_us, 0.9), "us");
  } else {
    add_windows(latency_us, out);
  }
  cluster.reset();
  remove_dir(dir);
  return out;
}

}  // namespace perfbench
