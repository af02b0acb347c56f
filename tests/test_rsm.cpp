// Tests for the replicated state machine: proxy commits, contiguous
// in-order application, slot contention between proxies, crash tolerance,
// and identical logs under randomized partial synchrony.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "consensus/scenario.hpp"
#include "mock_env.hpp"
#include "net/latency.hpp"
#include "rsm/rsm.hpp"

namespace twostep::rsm {
namespace {

using consensus::ProcessId;
using consensus::SystemConfig;

constexpr sim::Tick kDelta = 100;

using Runner = consensus::ScenarioRunner<RsmProcess, Options>;

std::unique_ptr<Runner> make_rsm(SystemConfig cfg, std::unique_ptr<net::LatencyModel> model,
                                 std::uint64_t seed = 1) {
  Options options;
  options.delta = model->delta();
  return std::make_unique<Runner>(cfg, std::move(model), options, seed);
}

std::unique_ptr<Runner> make_sync_rsm(SystemConfig cfg) {
  return make_rsm(cfg, std::make_unique<net::SynchronousRounds>(kDelta));
}

TEST(Rsm, SingleCommandCommitsAtProxyInTwoDelays) {
  // The paper's motivation: the client's proxy decides fast.
  const SystemConfig cfg{5, 2, 2};  // object bound for e=2, f=2
  auto r = make_sync_rsm(cfg);
  sim::Tick committed_at = -1;
  std::int32_t committed_slot = -1;
  r->cluster().process(0).on_commit = [&](Command, sim::Tick, std::int32_t slot) {
    committed_at = r->cluster().now();
    committed_slot = slot;
  };
  r->cluster().start_all();
  r->cluster().process(0).submit(42);
  r->cluster().run();
  EXPECT_EQ(committed_at, 2 * kDelta);
  EXPECT_EQ(committed_slot, 0);
}

TEST(Rsm, AllReplicasApplyTheCommand) {
  const SystemConfig cfg{5, 2, 2};
  auto r = make_sync_rsm(cfg);
  r->cluster().start_all();
  r->cluster().process(2).submit(7);
  r->cluster().run();
  for (ProcessId p = 0; p < cfg.n; ++p) {
    EXPECT_EQ(r->cluster().process(p).applied_prefix(), 1) << "p" << p;
    EXPECT_EQ(RsmProcess::command_payload(*r->cluster().process(p).decision(0)), 7);
    EXPECT_EQ(RsmProcess::command_proxy(*r->cluster().process(p).decision(0)), 2);
  }
}

TEST(Rsm, SameProxyCommandsApplyInSubmissionOrder) {
  const SystemConfig cfg{5, 2, 2};
  auto r = make_sync_rsm(cfg);
  std::vector<std::int64_t> applied;
  r->cluster().process(0).on_apply = [&](std::int32_t, Command cmd) {
    applied.push_back(RsmProcess::command_payload(cmd));
  };
  r->cluster().start_all();
  for (std::int64_t k = 1; k <= 5; ++k) r->cluster().process(0).submit(k);
  r->cluster().run();
  EXPECT_EQ(applied, (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(r->cluster().process(0).pending_own_commands(), 0);
}

TEST(Rsm, ContendingProxiesLoserResubmits) {
  const SystemConfig cfg{5, 2, 2};
  auto r = make_sync_rsm(cfg);
  r->cluster().start_all();
  r->cluster().process(0).submit(100);
  r->cluster().process(1).submit(200);  // same slot 0: one must lose
  r->cluster().run();
  // Both commands end up in the log, in the same order at every replica.
  std::vector<std::vector<std::int64_t>> logs(static_cast<std::size_t>(cfg.n));
  for (ProcessId p = 0; p < cfg.n; ++p) {
    auto& proc = r->cluster().process(p);
    EXPECT_GE(proc.applied_prefix(), 2) << "p" << p;
    for (std::int32_t s = 0; s < proc.applied_prefix(); ++s)
      logs[static_cast<std::size_t>(p)].push_back(
          RsmProcess::command_payload(*proc.decision(s)));
    EXPECT_EQ(logs[static_cast<std::size_t>(p)], logs[0]) << "p" << p;
  }
  // Exactly the two payloads, no duplicates (modulo proxy no-shows).
  std::map<std::int64_t, int> counts;
  for (std::int64_t v : logs[0]) ++counts[v];
  EXPECT_EQ(counts[100], 1);
  EXPECT_EQ(counts[200], 1);
}

TEST(Rsm, ProgressDespiteECrashes) {
  const SystemConfig cfg{5, 2, 2};
  auto r = make_sync_rsm(cfg);
  r->cluster().crash(3);
  r->cluster().crash(4);
  r->cluster().start_all();
  sim::Tick committed_at = -1;
  r->cluster().process(0).on_commit = [&](Command, sim::Tick, std::int32_t) {
    committed_at = r->cluster().now();
  };
  r->cluster().process(0).submit(9);
  r->cluster().run();
  // Still two-step at the proxy: the object protocol tolerates e = 2
  // crashes on the fast path with only n = 5.
  EXPECT_EQ(committed_at, 2 * kDelta);
}

TEST(Rsm, PipelineManyCommandsFromAllProxies) {
  const SystemConfig cfg{5, 2, 2};
  auto r = make_sync_rsm(cfg);
  r->cluster().start_all();
  int committed = 0;
  for (ProcessId p = 0; p < cfg.n; ++p) {
    r->cluster().process(p).on_commit = [&](Command, sim::Tick, std::int32_t) { ++committed; };
  }
  int next_payload = 1;
  for (int round = 0; round < 4; ++round)
    for (ProcessId p = 0; p < cfg.n; ++p)
      r->cluster().process(p).submit(next_payload++);
  r->cluster().run();
  EXPECT_EQ(committed, 20);
  // All replicas applied the same 20-command log.
  const auto prefix = r->cluster().process(0).applied_prefix();
  EXPECT_GE(prefix, 20);
  for (ProcessId p = 1; p < cfg.n; ++p) {
    ASSERT_EQ(r->cluster().process(p).applied_prefix(), prefix);
    for (std::int32_t s = 0; s < prefix; ++s)
      EXPECT_EQ(r->cluster().process(p).decision(s), r->cluster().process(0).decision(s));
  }
}

class RsmPartialSynchrony : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RsmPartialSynchrony, LogsConvergeAcrossSeeds) {
  const SystemConfig cfg{5, 2, 2};
  auto r = make_rsm(cfg, std::make_unique<net::PartialSynchrony>(1500, kDelta, 1000),
                    GetParam());
  r->cluster().start_all();
  int committed = 0;
  for (ProcessId p = 0; p < cfg.n; ++p)
    r->cluster().process(p).on_commit = [&](Command, sim::Tick, std::int32_t) { ++committed; };
  std::int64_t payload = 1;
  for (ProcessId p = 0; p < cfg.n; ++p) {
    r->cluster().process(p).submit(payload++);
    r->cluster().process(p).submit(payload++);
  }
  r->cluster().crash_at(400, 4);
  r->cluster().run();
  // p4's commands may be lost with it; every command from a correct proxy
  // commits exactly once.
  EXPECT_GE(committed, 8);
  const auto prefix = r->cluster().process(0).applied_prefix();
  for (ProcessId p = 1; p < 4; ++p) {
    ASSERT_EQ(r->cluster().process(p).applied_prefix(), prefix) << "p" << p;
    for (std::int32_t s = 0; s < prefix; ++s)
      EXPECT_EQ(r->cluster().process(p).decision(s), r->cluster().process(0).decision(s));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RsmPartialSynchrony, ::testing::Range<std::uint64_t>(1, 13));

TEST(Rsm, DecidedSlotsHoldNoBallotTimer) {
  // A decided instance ignores its ballot timer, so the host cancels the
  // timer when the slot decides.  Pausing the run every 25 ticks, no
  // decided slot may still hold one.  Cancelling them changes nothing the
  // protocol does: the applied log is the one this scenario produced while
  // decided slots still kept their timers (same seed).
  const SystemConfig cfg{5, 2, 2};
  auto r = make_rsm(cfg, std::make_unique<net::PartialSynchrony>(1500, kDelta, 1000), 5);
  auto& c = r->cluster();
  c.start_all();
  std::int64_t payload = 1;
  for (int round = 0; round < 3; ++round)
    for (ProcessId p = 0; p < cfg.n; ++p) c.process(p).submit(payload++);
  c.crash_at(400, 4);
  int decided_seen = 0;
  std::vector<std::string> armed;
  for (sim::Tick t = 25; t <= 20'000; t += 25) {
    c.run_until(t);
    for (ProcessId p = 0; p < 4; ++p)
      for (std::int32_t s = 0; s < 32; ++s) {
        if (!c.process(p).decision(s)) continue;
        ++decided_seen;
        if (c.process(p).ballot_timer_armed(s))
          armed.push_back("p" + std::to_string(p) + " slot " + std::to_string(s) + " at " +
                          std::to_string(t));
      }
  }
  c.run();
  EXPECT_GT(decided_seen, 0);
  EXPECT_TRUE(armed.empty()) << armed.size() << " decided slots kept a timer, first "
                             << armed.front();
  std::vector<std::int64_t> log;
  for (const auto& [slot, cmd] : c.process(0).applied_entries())
    log.push_back(RsmProcess::command_payload(cmd));
  EXPECT_EQ(log, (std::vector<std::int64_t>{1, 6, 11, 8, 3, 13, 7, 9, 4, 12, 2, 14}));
  for (ProcessId p = 1; p < 4; ++p)
    EXPECT_EQ(c.process(p).applied_entries(), c.process(0).applied_entries()) << "p" << p;
}

TEST(Rsm, RejectsOversizedPayload) {
  const SystemConfig cfg{3, 1, 1};
  auto r = make_sync_rsm(cfg);
  EXPECT_THROW(r->cluster().process(0).submit(std::int64_t{1} << 41), std::invalid_argument);
  EXPECT_THROW(r->cluster().process(0).submit(-1), std::invalid_argument);
}

TEST(Rsm, CommandPackingRoundTrips) {
  const Command cmd = (std::int64_t{3} << 40) | 12345;
  EXPECT_EQ(RsmProcess::command_proxy(cmd), 3);
  EXPECT_EQ(RsmProcess::command_payload(cmd), 12345);
}

// ---- batching (N3 saturation path) ----------------------------------------

std::unique_ptr<Runner> make_batched_rsm(SystemConfig cfg, int batch_max, sim::Tick linger,
                                         int pipeline_window = 0,
                                         obs::LogHistogram* fill = nullptr) {
  Options options;
  options.delta = kDelta;
  options.batch_max = batch_max;
  options.batch_linger = linger;
  options.pipeline_window = pipeline_window;
  options.batch_fill = fill;
  return std::make_unique<Runner>(cfg, std::make_unique<net::SynchronousRounds>(kDelta),
                                  options, 1);
}

TEST(Rsm, BatchedCommandsShareOneSlotAndApplyInOrder) {
  // Eight commands submitted in the same tick coalesce into one sealed
  // batch: one consensus slot decides, yet every command applies in
  // submission order and commits individually at the proxy.
  const SystemConfig cfg{5, 2, 2};
  obs::LogHistogram fill;
  auto r = make_batched_rsm(cfg, 8, 0, 0, &fill);
  std::vector<std::int64_t> applied;
  std::vector<std::int64_t> committed;
  r->cluster().process(0).on_apply = [&](std::int32_t, Command cmd) {
    applied.push_back(RsmProcess::command_payload(cmd));
  };
  r->cluster().process(0).on_commit = [&](Command cmd, sim::Tick, std::int32_t) {
    committed.push_back(RsmProcess::command_payload(cmd));
  };
  r->cluster().start_all();
  for (std::int64_t k = 1; k <= 8; ++k) r->cluster().process(0).submit(k);
  r->cluster().run();
  EXPECT_EQ(applied, (std::vector<std::int64_t>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(committed, (std::vector<std::int64_t>{1, 2, 3, 4, 5, 6, 7, 8}));
  // All eight rode one slot (the handle), not eight.
  EXPECT_EQ(r->cluster().process(0).decided_slots(), 1);
  EXPECT_TRUE(RsmProcess::command_is_batch(*r->cluster().process(0).decision(0)));
  ASSERT_EQ(fill.count(), 1u);
  EXPECT_EQ(fill.max(), 8);
}

TEST(Rsm, BatchedLogsAgreeAcrossReplicasAndProxies) {
  // Two proxies batching concurrently: every replica applies the same
  // expanded command sequence, and the union covers every payload.
  const SystemConfig cfg{5, 2, 2};
  auto r = make_batched_rsm(cfg, 4, 0);
  std::vector<std::vector<std::int64_t>> applied(static_cast<std::size_t>(cfg.n));
  for (ProcessId p = 0; p < cfg.n; ++p)
    r->cluster().process(p).on_apply = [&applied, p](std::int32_t, Command cmd) {
      applied[static_cast<std::size_t>(p)].push_back(RsmProcess::command_payload(cmd));
    };
  r->cluster().start_all();
  for (std::int64_t k = 1; k <= 6; ++k) {
    r->cluster().process(0).submit(100 + k);
    r->cluster().process(1).submit(200 + k);
  }
  r->cluster().run();
  ASSERT_EQ(applied[0].size(), 12u);
  for (ProcessId p = 1; p < cfg.n; ++p) EXPECT_EQ(applied[static_cast<std::size_t>(p)], applied[0]);
  std::set<std::int64_t> seen(applied[0].begin(), applied[0].end());
  EXPECT_EQ(seen.size(), 12u);
}

TEST(Rsm, BatchLingerHoldsTheBatchOpen) {
  // With a linger window, a lone command waits (up to the linger) for
  // company before sealing; a second submission inside the window shares
  // its slot.
  const SystemConfig cfg{5, 2, 2};
  auto r = make_batched_rsm(cfg, 8, 3 * kDelta);
  r->cluster().start_all();
  r->cluster().process(0).submit(1);
  EXPECT_EQ(r->cluster().process(0).open_batch_size(), 1);
  r->cluster().process(0).submit(2);
  EXPECT_EQ(r->cluster().process(0).open_batch_size(), 2);
  r->cluster().run();
  EXPECT_EQ(r->cluster().process(0).decided_slots(), 1);
  EXPECT_EQ(r->cluster().process(0).applied_prefix(), 1);
  EXPECT_EQ(r->cluster().process(0).open_batch_size(), 0);
}

TEST(Rsm, BatchingTightensThePayloadLimit) {
  // Bit 39 flags batch/config handles, so the payload cap is 2^39-1 with
  // or without batching (config handles can occupy a slot either way).
  const SystemConfig cfg{3, 1, 1};
  auto r = make_batched_rsm(cfg, 8, 0);
  EXPECT_EQ(r->cluster().process(0).max_payload(), (std::int64_t{1} << 39) - 1);
  EXPECT_THROW(r->cluster().process(0).submit(std::int64_t{1} << 39), std::invalid_argument);
  auto plain = make_sync_rsm(cfg);
  EXPECT_EQ(plain->cluster().process(0).max_payload(), (std::int64_t{1} << 39) - 1);
}

TEST(Rsm, DecideMessagesCarryBatchContentsBeforeDecides) {
  // Anti-entropy: a peer that receives a Decide for a batch handle it
  // cannot expand would stall, so decide_messages() must lead with the
  // handle's contents.
  const SystemConfig cfg{5, 2, 2};
  auto r = make_batched_rsm(cfg, 4, 0);
  r->cluster().start_all();
  for (std::int64_t k = 1; k <= 3; ++k) r->cluster().process(0).submit(k);
  r->cluster().run();
  const auto msgs = r->cluster().process(0).decide_messages();
  ASSERT_FALSE(msgs.empty());
  bool seen_slot = false;
  int contents = 0;
  for (const auto& m : msgs) {
    if (std::holds_alternative<BatchContentMsg>(m)) {
      EXPECT_FALSE(seen_slot) << "batch contents must precede every Decide";
      ++contents;
    } else if (std::holds_alternative<SlotMsg>(m)) {
      seen_slot = true;
    }
  }
  EXPECT_GE(contents, 1);
  EXPECT_TRUE(seen_slot);
}

TEST(Rsm, DecideMessagesFromASlotResendOnlyTheTail) {
  // Periodic anti-entropy answers a peer one slot behind with that slot's
  // Decide and the batch it names, not with the whole decided history.
  const SystemConfig cfg{3, 1, 1};
  auto r = make_batched_rsm(cfg, 4, 0);
  r->cluster().start_all();
  auto& proc = r->cluster().process(0);
  for (std::int64_t k = 1; k <= 2; ++k) {
    proc.submit(k);
    r->cluster().run();
  }
  proc.submit(3);
  proc.submit(4);
  r->cluster().run();
  ASSERT_EQ(proc.decided_slots(), 3);
  const auto tail = proc.decide_messages(2);
  ASSERT_EQ(tail.size(), 2u);
  const auto* contents = std::get_if<BatchContentMsg>(&tail[0]);
  ASSERT_NE(contents, nullptr);
  EXPECT_EQ(contents->payloads.size(), 2u);
  const auto* decide = std::get_if<SlotMsg>(&tail[1]);
  ASSERT_NE(decide, nullptr);
  EXPECT_EQ(decide->slot, 2);
  EXPECT_EQ(std::get<core::DecideMsg>(decide->inner).v, consensus::Value{contents->cmd});
  EXPECT_GT(proc.decide_messages().size(), tail.size());  // the reconnect path: everything
}

// ---- slot pipelining -------------------------------------------------------

std::vector<std::pair<std::int32_t, std::int64_t>> run_window(const SystemConfig& cfg,
                                                              int window) {
  auto r = make_batched_rsm(cfg, 1, 0, window);
  r->cluster().start_all();
  for (std::int64_t k = 1; k <= 6; ++k) r->cluster().process(0).submit(k);
  r->cluster().run();
  std::vector<std::pair<std::int32_t, std::int64_t>> log;
  auto& proc = r->cluster().process(0);
  for (std::int32_t s = 0; s < proc.applied_prefix(); ++s)
    log.emplace_back(s, RsmProcess::command_payload(*proc.decision(s)));
  return log;
}

TEST(Rsm, PipelineWindowOneDegeneratesToUnpipelined) {
  // window=1 (one own undecided slot at a time) must produce the identical
  // applied log to window=0 (the unbounded pre-window behavior) for a
  // single-proxy stream: same slots, same commands, same order.
  const SystemConfig cfg{5, 2, 2};
  const auto unbounded = run_window(cfg, 0);
  const auto serialized = run_window(cfg, 1);
  ASSERT_EQ(unbounded.size(), 6u);
  EXPECT_EQ(serialized, unbounded);
}

TEST(Rsm, PipelineWindowBoundsOwnSlotsInFlight) {
  // With window=2 and six instantaneous submissions, at most two own slots
  // are ever proposed-but-undecided; the rest queue and still all commit.
  const SystemConfig cfg{5, 2, 2};
  auto r = make_batched_rsm(cfg, 1, 0, 2);
  int committed = 0;
  r->cluster().process(0).on_commit = [&](Command, sim::Tick, std::int32_t) { ++committed; };
  r->cluster().start_all();
  for (std::int64_t k = 1; k <= 6; ++k) r->cluster().process(0).submit(k);
  // Before anything decides, only the window's worth may occupy slots.
  EXPECT_EQ(r->cluster().process(0).pending_own_commands(), 6);
  r->cluster().run();
  EXPECT_EQ(committed, 6);
  EXPECT_EQ(r->cluster().process(0).applied_prefix(), 6);
  EXPECT_EQ(r->cluster().process(0).pending_own_commands(), 0);
}

// ---- membership reconfiguration through the log ----

TEST(Rsm, ConfigChangeCreatesTheSameEpochOnEveryReplica) {
  const SystemConfig cfg{5, 2, 2};
  auto r = make_sync_rsm(cfg);
  std::int32_t config_slot = -1;
  r->cluster().process(0).on_config = [&](std::int32_t slot, const ConfigChange& change,
                                          const ConfigEpoch& epoch) {
    config_slot = slot;
    EXPECT_EQ(change.op, ConfigChange::Op::kAdd);
    EXPECT_EQ(change.replica, 5);
    EXPECT_EQ(epoch.version, 1);
  };
  r->cluster().start_all();
  r->cluster().process(0).submit(7);
  // NB: the sim cluster cannot physically grow, so nothing is proposed
  // after the add (a post-boundary slot would broadcast to the absent
  // replica 5); the live LiveReconfig tests drive traffic across an add.
  r->cluster().process(0).submit_config({ConfigChange::Op::kAdd, 5, "replica5", 7105});
  r->cluster().run();
  ASSERT_GE(config_slot, 0);
  for (ProcessId p = 0; p < cfg.n; ++p) {
    auto& proc = r->cluster().process(p);
    const auto& epochs = proc.config_epochs();
    ASSERT_EQ(epochs.size(), 2u) << "p" << p;
    EXPECT_EQ(epochs[0].version, 0) << "p" << p;
    EXPECT_EQ(epochs[0].universe, cfg.n) << "p" << p;
    EXPECT_EQ(epochs[1].version, 1) << "p" << p;
    EXPECT_EQ(epochs[1].universe, cfg.n + 1) << "p" << p;
    // A change decided in slot k governs from slot k+1.
    EXPECT_EQ(epochs[1].boundary, config_slot + 1) << "p" << p;
    EXPECT_EQ(proc.governing_version(config_slot), 0) << "p" << p;
    EXPECT_EQ(proc.governing_version(config_slot + 1), 1) << "p" << p;
    EXPECT_TRUE(std::find(epochs[1].members.begin(), epochs[1].members.end(), 5) !=
                epochs[1].members.end())
        << "p" << p;
    // The client command applied; the config handle itself never enters
    // the executor log.
    EXPECT_EQ(proc.applied_entries().size(), 1u) << "p" << p;
    for (const auto& [slot, cmd] : proc.applied_entries())
      EXPECT_FALSE(RsmProcess::command_is_config(cmd)) << "p" << p;
  }
}

TEST(Rsm, RemovalKeepsTheUniverseAndShrinksMembership) {
  const SystemConfig cfg{5, 2, 2};
  auto r = make_sync_rsm(cfg);
  r->cluster().start_all();
  r->cluster().process(0).submit_config({ConfigChange::Op::kRemove, 4, "", 0});
  r->cluster().process(1).submit(11);  // post-change traffic still commits
  r->cluster().run();
  for (ProcessId p = 0; p < cfg.n; ++p) {
    auto& proc = r->cluster().process(p);
    const auto& epochs = proc.config_epochs();
    ASSERT_EQ(epochs.size(), 2u) << "p" << p;
    EXPECT_EQ(proc.config_version(), 1) << "p" << p;
    // The universe only grows: the removed replica is treated as crashed,
    // not erased from the quorum arithmetic.
    EXPECT_EQ(epochs[1].universe, cfg.n) << "p" << p;
    EXPECT_TRUE(std::find(epochs[1].members.begin(), epochs[1].members.end(), 4) ==
                epochs[1].members.end())
        << "p" << p;
    EXPECT_EQ(epochs[1].members.size(), static_cast<std::size_t>(cfg.n - 1)) << "p" << p;
  }
  // The log still serves client commands after the change.
  EXPECT_EQ(r->cluster().process(0).applied_entries().size(), 1u);
}

TEST(Rsm, CrossEpochSlotFramesAreDropped) {
  // A frame stamped with the wrong governing version for its slot must be
  // ignored outright — a quorum may only count voters of the same epoch.
  testing::MockEnv<Msg> env(1, 5);
  Options options;
  options.delta = kDelta;
  RsmProcess proc(env, SystemConfig{5, 2, 2}, options);
  proc.start();
  env.clear_sent();
  // Governing version of slot 0 at genesis is 0: a stale/future stamp is
  // dropped without a reply, the correct stamp draws the 1B answer.
  proc.on_message(0, Msg{SlotMsg{0, 1, core::Message{core::OneAMsg{10}}}});
  EXPECT_TRUE(env.sent().empty());
  proc.on_message(0, Msg{SlotMsg{0, 0, core::Message{core::OneAMsg{10}}}});
  EXPECT_FALSE(env.sent().empty());
}

TEST(Rsm, SnapshotStateCarriesTheConfigLog) {
  // A joiner installs a snapshot and must come out knowing the membership:
  // the full epoch log travels and on_config fires for each adopted epoch.
  const SystemConfig cfg{5, 2, 2};
  auto r = make_sync_rsm(cfg);
  r->cluster().start_all();
  r->cluster().process(0).submit(1);
  // No traffic after the add: the sim cluster cannot grow (see above).
  r->cluster().process(0).submit_config({ConfigChange::Op::kAdd, 5, "replica5", 7105});
  r->cluster().run();
  const SnapshotState s = r->cluster().process(0).snapshot_state();
  ASSERT_EQ(s.epochs.size(), 2u);
  EXPECT_EQ(s.epochs[1].version, 1);
  EXPECT_EQ(s.epochs[1].change.replica, 5);
  EXPECT_EQ(s.epochs[1].change.host, "replica5");
  EXPECT_EQ(s.epochs[1].change.port, 7105);

  testing::MockEnv<Msg> env(5, 5);
  Options options;
  options.delta = kDelta;
  RsmProcess joiner(env, cfg, options);
  joiner.start();
  std::vector<std::int32_t> adopted_versions;
  joiner.on_config = [&](std::int32_t, const ConfigChange&, const ConfigEpoch& epoch) {
    adopted_versions.push_back(epoch.version);
  };
  joiner.install_snapshot_state(s);
  EXPECT_EQ(adopted_versions, (std::vector<std::int32_t>{1}));
  ASSERT_EQ(joiner.config_epochs().size(), 2u);
  EXPECT_EQ(joiner.config_version(), 1);
  EXPECT_EQ(joiner.config_epochs()[1].universe, cfg.n + 1);
  // The applied log came with it, slot-aligned with the donor's.
  EXPECT_EQ(joiner.applied_entries(), r->cluster().process(0).applied_entries());
}

}  // namespace
}  // namespace twostep::rsm
