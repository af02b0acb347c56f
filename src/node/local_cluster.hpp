// An n-replica cluster of live Runtimes over loopback, in one process.
//
// Each replica gets its own EventLoop thread, ephemeral listening port and
// MetricsRegistry; the cluster binds all listeners first (so every
// endpoint is known), then starts every runtime with the full peer table.
// This is the engine behind `twostep localcluster`, the live benches and
// the conformance tests — and deliberately the same code path a real
// multi-process deployment would use, just with n threads instead of n
// processes.
//
// Crash-recovery: kill(i) tears replica i down abruptly (its sockets die;
// peers see resets and redial) and restart(i) brings it back on the SAME
// port with the SAME WAL directory, so a restarted node re-enters the
// mesh with its pre-crash promises and votes replayed from disk.  The
// CrashSchedule helper turns a seed into a reproducible kill/restart
// timeline with at most f replicas down at once — the fault envelope the
// protocol's quorum arguments tolerate.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "node/runtime.hpp"
#include "rsm/rsm.hpp"
#include "util/rng.hpp"

namespace twostep::node {

/// Cluster-wide knobs, applied per replica at construction and restart.
struct ClusterOptions {
  /// Storage configuration, forwarded to RuntimeOptions::storage on every
  /// replica with `storage.dir` rewritten per replica: a non-empty dir
  /// means replica i persists under `<dir>/r<i>` and recovers from it on
  /// restart (empty: no persistence — kill loses all state).  All other
  /// fields (fsync, group_commit_us, snapshot_every, wal_segment_bytes)
  /// apply unchanged.
  StorageOptions storage;
  /// Chaos stage on every replica's outbound links (seeded per node
  /// inside the runtime).
  transport::ChaosConfig chaos;
  /// Give every replica a flight recorder ("node-<i>", salt i+1) so traced
  /// client requests produce per-node span streams (see flight(i)).  The
  /// recorders survive kill/restart — a replica's span history spans its
  /// incarnations.
  bool trace = false;
  /// Forwarded to RuntimeOptions::failover on every replica (heartbeat
  /// failure detection + leader election).
  FailoverOptions failover;
  /// Forwarded to RuntimeOptions::anti_entropy_period_us on every replica
  /// (applied-prefix gossip; <= 0 disables).
  std::int64_t anti_entropy_period_us = 1'000'000;
};

/// One round of a crash timeline: at `at_ms` kill `replicas`, keep them
/// down for `down_ms`, then restart them all.
struct CrashRound {
  std::int64_t at_ms = 0;
  std::vector<int> replicas;
  std::int64_t down_ms = 0;
};

/// Seeded, reproducible kill/restart timeline.  Rounds never overlap, so a
/// sequential driver (kill all, sleep, restart all) keeps the number of
/// concurrently-down replicas at |round.replicas| <= f at all times.
struct CrashSchedule {
  std::vector<CrashRound> rounds;

  static CrashSchedule generate(std::uint64_t seed, int n, int f, std::int64_t duration_ms,
                                std::int64_t period_ms, std::int64_t down_ms) {
    CrashSchedule out;
    if (n <= 0 || f <= 0 || period_ms <= 0 || down_ms <= 0) return out;
    util::Rng rng{util::splitmix64(seed, 0xC2A5C2A5ULL)};
    for (std::int64_t t = period_ms; t + down_ms < duration_ms; t += period_ms) {
      CrashRound round;
      // Jitter the kill instant, but keep the whole round inside its period
      // so rounds cannot overlap (the <= f invariant depends on it).
      const std::int64_t slack = period_ms - down_ms;
      round.at_ms = t + (slack > 1 ? static_cast<std::int64_t>(
                                         rng.next_below(static_cast<std::uint64_t>(slack / 2)))
                                   : 0);
      round.down_ms = down_ms;
      const int kills = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(f)));
      std::vector<int> pool(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) pool[static_cast<std::size_t>(i)] = i;
      for (int k = 0; k < kills && !pool.empty(); ++k) {
        const std::size_t pick =
            static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(pool.size())));
        round.replicas.push_back(pool[pick]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      out.rounds.push_back(std::move(round));
    }
    return out;
  }
};

template <typename P>
class LocalCluster {
 public:
  /// Per-replica protocol factory; `self` identifies which replica this
  /// instance is (wire options.probe.metrics at `reg` for per-node metrics).
  using Factory = std::function<std::unique_ptr<P>(
      consensus::Env<typename P::Message>&, obs::MetricsRegistry&, consensus::ProcessId self)>;

  /// Binds n loopback listeners and starts all runtimes.
  explicit LocalCluster(int n, Factory factory, ClusterOptions options = {})
      : factory_(std::move(factory)), options_(std::move(options)) {
    if (options_.trace) {
      recorders_.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i)
        recorders_.push_back(std::make_unique<obs::FlightRecorder>(
            "node-" + std::to_string(i), static_cast<std::uint64_t>(i) + 1));
    }
    nodes_.reserve(static_cast<std::size_t>(n));
    for (consensus::ProcessId p = 0; p < n; ++p) {
      nodes_.push_back(build_node(p, n, transport::Endpoint{"127.0.0.1", 0}));
      initial_n_.push_back(n);
      endpoints_.push_back(nodes_.back()->endpoint());
    }
    for (auto& node : nodes_) node->start(endpoints_);
  }

  ~LocalCluster() { stop(); }

  [[nodiscard]] int size() const noexcept { return static_cast<int>(endpoints_.size()); }
  /// The replica's runtime.  Not synchronized against kill()/restart() from
  /// other threads — callers coordinate (the crash driver owns the node's
  /// lifetime while a round is in flight).
  [[nodiscard]] Runtime<P>& node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] bool alive(int i) const {
    const std::lock_guard<std::mutex> lock(nodes_mu_);
    return nodes_[static_cast<std::size_t>(i)] != nullptr;
  }
  [[nodiscard]] const std::vector<transport::Endpoint>& endpoints() const noexcept {
    return endpoints_;
  }
  /// Replica i's flight recorder; null unless ClusterOptions::trace.
  /// Safe to read while the cluster runs (the recorder synchronises) and
  /// across kill/restart (the cluster owns it, not the runtime).
  [[nodiscard]] obs::FlightRecorder* flight(int i) {
    return options_.trace ? recorders_[static_cast<std::size_t>(i)].get() : nullptr;
  }

  /// Abruptly stops replica i and destroys its runtime.  Its metrics are
  /// folded into a graveyard registry first, so merged_metrics() never
  /// loses a dead node's counters.  No-op if already dead.
  void kill(int i) {
    const std::lock_guard<std::mutex> lock(nodes_mu_);
    auto& node = nodes_[static_cast<std::size_t>(i)];
    if (!node) return;
    node->stop();
    graveyard_.merge(node->metrics());
    node.reset();
  }

  /// Rebuilds replica i on its ORIGINAL port, recovering from its WAL
  /// directory when the cluster has storage.  No-op if alive.  The replica
  /// is rebuilt with the cluster size it was FOUNDED with (a joiner's
  /// genesis universe predates it); any later membership changes are
  /// re-derived from its WAL / snapshot or re-learned from peers.
  void restart(int i) {
    const std::lock_guard<std::mutex> lock(nodes_mu_);
    auto& node = nodes_[static_cast<std::size_t>(i)];
    if (node) return;
    node = build_node(i, initial_n_[static_cast<std::size_t>(i)],
                      endpoints_[static_cast<std::size_t>(i)]);
    node->start(endpoints_);
  }

  /// Membership change, replicated through the log (Reconfigurable
  /// protocols only): binds a brand-new replica with the NEXT id, starts
  /// it as a silent non-member of the current universe, and submits the
  /// kAdd command through a live node.  Once the change decides, every
  /// member dials the joiner and heals it by snapshot state transfer.
  /// Returns the new replica's id, or -1 if no live node could propose.
  int add_replica() {
    const std::lock_guard<std::mutex> lock(nodes_mu_);
    const int id = static_cast<int>(nodes_.size());
    if (options_.trace)
      recorders_.push_back(std::make_unique<obs::FlightRecorder>(
          "node-" + std::to_string(id), static_cast<std::uint64_t>(id) + 1));
    // The joiner's genesis universe is the PRE-change universe: its config
    // log must match the cluster's so the snapshot's epoch suffix applies.
    nodes_.push_back(build_node(id, id, transport::Endpoint{"127.0.0.1", 0}));
    initial_n_.push_back(id);
    endpoints_.push_back(nodes_.back()->endpoint());
    nodes_.back()->start(
        {endpoints_.begin(), endpoints_.begin() + static_cast<std::ptrdiff_t>(id)});
    rsm::ConfigChange change;
    change.op = rsm::ConfigChange::Op::kAdd;
    change.replica = id;
    change.host = endpoints_.back().host;
    change.port = endpoints_.back().port;
    for (auto& node : nodes_) {
      if (!node || node->self() == id) continue;
      node->propose_config(change);
      return id;
    }
    return -1;
  }

  /// Submits the kRemove command for replica i through a live peer (the
  /// removed replica is treated as crashed by the survivors; the caller
  /// decides when to actually kill() it).  Returns whether a live node
  /// accepted the proposal.
  bool remove_replica(int i) {
    const std::lock_guard<std::mutex> lock(nodes_mu_);
    rsm::ConfigChange change;
    change.op = rsm::ConfigChange::Op::kRemove;
    change.replica = i;
    for (auto& node : nodes_) {
      if (!node || node->self() == i) continue;
      node->propose_config(change);
      removed_.insert(i);
      return true;
    }
    return false;
  }

  /// Replica ids removed via remove_replica (excluded from mesh waits).
  [[nodiscard]] bool removed(int i) const {
    const std::lock_guard<std::mutex> lock(nodes_mu_);
    return removed_.contains(i);
  }

  /// Blocks until every live member replica's outbound links reach all
  /// live member peers AND every live member has an identified inbound
  /// connection from each of them, or the timeout expires.  Returns
  /// whether the mesh formed.  Checking both directions matters: our dials
  /// may succeed while the peers' dials to us are still down, and a
  /// half-open mesh stalls every quorum that needs the missing direction.
  /// Replicas removed via remove_replica are excluded (survivors retired
  /// their links); a replica added via add_replica is counted, so the wait
  /// also covers the join's config change reaching every member.
  bool wait_for_mesh(std::int64_t timeout_ms = 5'000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    // Held throughout, so the replica waited on cannot be killed under the
    // wait: kill/restart/add_replica from other threads wait for the mesh.
    const std::lock_guard<std::mutex> lock(nodes_mu_);
    for (;;) {
      int live = 0;
      for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i] && !removed_.contains(static_cast<int>(i))) ++live;
      // Sleep on the first replica short of the mesh until its link counts
      // move; the mesh cannot form before they do.
      const Runtime<P>* lagging = nullptr;
      std::uint64_t seen = 0;
      for (std::size_t i = 0; i < nodes_.size() && !lagging; ++i) {
        const Runtime<P>* node = nodes_[i].get();
        if (!node || removed_.contains(static_cast<int>(i))) continue;
        seen = node->links_version();
        if (node->connected_out() < live - 1 || node->connected_in() < live - 1) lagging = node;
      }
      if (!lagging) return true;
      if (!lagging->await_links_change(seen, deadline)) return false;
    }
  }

  void stop() {
    const std::lock_guard<std::mutex> lock(nodes_mu_);
    for (auto& node : nodes_)
      if (node) node->stop();
  }

  /// Merges every node's registry — including replicas that died and were
  /// restarted — in replica order (call after stop()).
  [[nodiscard]] obs::MetricsRegistry merged_metrics() {
    const std::lock_guard<std::mutex> lock(nodes_mu_);
    obs::MetricsRegistry merged;
    merged.merge(graveyard_);
    for (auto& node : nodes_)
      if (node) merged.merge(node->metrics());
    return merged;
  }

 private:
  std::unique_ptr<Runtime<P>> build_node(consensus::ProcessId p, int n,
                                         transport::Endpoint listen) {
    RuntimeOptions rt_options;
    rt_options.storage = options_.storage;
    if (options_.storage.enabled())
      rt_options.storage.dir = options_.storage.dir + "/r" + std::to_string(p);
    rt_options.chaos = options_.chaos;
    if (options_.trace) rt_options.flight = recorders_[static_cast<std::size_t>(p)].get();
    rt_options.failover = options_.failover;
    rt_options.anti_entropy_period_us = options_.anti_entropy_period_us;
    Factory& factory = factory_;
    return std::make_unique<Runtime<P>>(
        p, n, std::move(listen),
        [&factory, p](consensus::Env<typename P::Message>& env, obs::MetricsRegistry& reg) {
          return factory(env, reg, p);
        },
        std::move(rt_options));
  }

  Factory factory_;
  ClusterOptions options_;
  /// Per-replica span sinks (ClusterOptions::trace); built before the
  /// runtimes and never destroyed until the cluster is, so restart() can
  /// hand the same recorder to a replica's next incarnation.
  std::vector<std::unique_ptr<obs::FlightRecorder>> recorders_;
  mutable std::mutex nodes_mu_;  ///< guards nodes_ slots, membership + graveyard_
  std::vector<std::unique_ptr<Runtime<P>>> nodes_;
  std::vector<int> initial_n_;  ///< founding cluster size per replica (restart)
  std::vector<transport::Endpoint> endpoints_;
  std::unordered_set<int> removed_;  ///< ids retired via remove_replica
  obs::MetricsRegistry graveyard_;
};

}  // namespace twostep::node
