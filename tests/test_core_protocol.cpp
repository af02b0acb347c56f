// Tests for the paper's protocol (Figure 1): handler-level unit tests via
// MockEnv, plus end-to-end E-faulty synchronous runs, crash/recovery
// integration and partial-synchrony sweeps via the cluster harness.
#include <gtest/gtest.h>

#include <map>

#include "core/two_step.hpp"
#include "mock_env.hpp"
#include "net/latency.hpp"
#include "support.hpp"

namespace twostep::core {
namespace {

using consensus::ProcessId;
using consensus::SyncScenario;
using consensus::SystemConfig;
using consensus::Value;
using testing::RunSpec;
using testing::MockEnv;

constexpr sim::Tick kDelta = 100;

// ---------- handler-level unit tests (MockEnv) ----------

struct Fixture {
  explicit Fixture(SystemConfig cfg, Mode mode = Mode::kTask, ProcessId self = 0)
      : env(self, cfg.n), proc(env, cfg, make_options(mode)) {}

  static Options make_options(Mode mode) {
    Options o;
    o.mode = mode;
    o.delta = kDelta;
    o.enable_ballot_timer = false;  // drive timers manually in unit tests
    return o;
  }

  MockEnv<Message> env;
  TwoStepProcess proc;
};

TEST(TwoStepUnit, ProposeBroadcastsToOthers) {
  Fixture f{SystemConfig{5, 2, 1}};
  f.proc.propose(Value{7});
  EXPECT_EQ(f.env.sent().size(), 4u);  // n-1 Propose messages
  for (const auto& [to, m] : f.env.sent()) {
    ASSERT_TRUE(std::holds_alternative<ProposeMsg>(m));
    EXPECT_EQ(std::get<ProposeMsg>(m).v, Value{7});
    EXPECT_NE(to, 0);
  }
  EXPECT_EQ(f.proc.initial_value(), Value{7});
}

TEST(TwoStepUnit, ProposeIsAtMostOnce) {
  Fixture f{SystemConfig{5, 2, 1}};
  f.proc.propose(Value{7});
  f.env.clear_sent();
  f.proc.propose(Value{8});
  EXPECT_TRUE(f.env.sent().empty());
  EXPECT_EQ(f.proc.initial_value(), Value{7});
}

TEST(TwoStepUnit, ProposeRejectsBottom) {
  Fixture f{SystemConfig{5, 2, 1}};
  EXPECT_THROW(f.proc.propose(Value::bottom()), std::invalid_argument);
}

TEST(TwoStepUnit, AcceptsFirstProposalAndVotes) {
  Fixture f{SystemConfig{5, 2, 1}};
  f.proc.on_message(3, Message{ProposeMsg{Value{9}}});
  EXPECT_EQ(f.proc.vote_value(), Value{9});
  EXPECT_EQ(f.proc.vote_proposer(), 3);
  const auto to3 = f.env.sent_to(3);
  ASSERT_EQ(to3.size(), 1u);
  const auto& vote = std::get<TwoBMsg>(to3.front());
  EXPECT_EQ(vote.b, 0);
  EXPECT_EQ(vote.v, Value{9});
}

TEST(TwoStepUnit, RefusesSecondProposal) {
  Fixture f{SystemConfig{5, 2, 1}};
  f.proc.on_message(3, Message{ProposeMsg{Value{9}}});
  f.env.clear_sent();
  f.proc.on_message(4, Message{ProposeMsg{Value{11}}});  // val != bottom now
  EXPECT_TRUE(f.env.sent().empty());
  EXPECT_EQ(f.proc.vote_value(), Value{9});
}

TEST(TwoStepUnit, RefusesProposalBelowOwn) {
  Fixture f{SystemConfig{5, 2, 1}};
  f.proc.propose(Value{10});
  f.env.clear_sent();
  f.proc.on_message(3, Message{ProposeMsg{Value{9}}});  // 9 < 10
  EXPECT_TRUE(f.env.sent().empty());
  f.proc.on_message(3, Message{ProposeMsg{Value{12}}});  // 12 >= 10: task mode accepts
  EXPECT_EQ(f.env.sent().size(), 1u);
  EXPECT_EQ(f.proc.vote_value(), Value{12});
}

TEST(TwoStepUnit, ObjectModeRefusesDifferentValueAfterProposing) {
  // The red-line condition of Figure 1: initial_val != bottom ==> v == initial_val.
  Fixture f{SystemConfig{5, 2, 2}, Mode::kObject};
  f.proc.propose(Value{10});
  f.env.clear_sent();
  f.proc.on_message(3, Message{ProposeMsg{Value{12}}});  // >= own but different
  EXPECT_TRUE(f.env.sent().empty());
  f.proc.on_message(4, Message{ProposeMsg{Value{10}}});  // equal: accepted
  EXPECT_EQ(f.proc.vote_value(), Value{10});
  EXPECT_EQ(f.proc.vote_proposer(), 4);
}

TEST(TwoStepUnit, RefusesProposalAfterJoiningSlowBallot) {
  Fixture f{SystemConfig{5, 2, 1}};
  f.proc.on_message(1, Message{OneAMsg{6}});  // joins ballot 6
  f.env.clear_sent();
  f.proc.on_message(3, Message{ProposeMsg{Value{9}}});
  EXPECT_TRUE(f.env.sent().empty());  // bal != 0 blocks the fast path
}

TEST(TwoStepUnit, FastDecisionAtQuorum) {
  // n=5, e=1: fast quorum 4 = proposer + 3 votes.
  Fixture f{SystemConfig{5, 2, 1}};
  Value decided;
  f.proc.on_decide = [&](Value v) { decided = v; };
  f.proc.propose(Value{7});
  f.proc.on_message(1, Message{TwoBMsg{0, Value{7}}});
  f.proc.on_message(2, Message{TwoBMsg{0, Value{7}}});
  EXPECT_FALSE(f.proc.has_decided());
  f.proc.on_message(3, Message{TwoBMsg{0, Value{7}}});
  EXPECT_TRUE(f.proc.has_decided());
  EXPECT_EQ(decided, Value{7});
  // Decide is disseminated to the other n-1 processes.
  EXPECT_EQ(f.env.count_sent([](ProcessId, const Message& m) {
              return std::holds_alternative<DecideMsg>(m);
            }),
            4);
}

TEST(TwoStepUnit, DecisionLatencyIsProposeToDecideOnTheProposer) {
  // A live node's clock reads its uptime, so the metric must be the time
  // since propose(), not the decide instant: 2Δ on the fast path, while
  // the clock already reads 10^6.
  obs::MetricsRegistry metrics;
  Options options = Fixture::make_options(Mode::kTask);
  options.probe.metrics = &metrics;
  const SystemConfig cfg{3, 1, 1};
  MockEnv<Message> proposer_env(0, cfg.n);
  TwoStepProcess proposer(proposer_env, cfg, options);
  MockEnv<Message> voter_env(1, cfg.n);
  TwoStepProcess voter(voter_env, cfg, options);
  proposer_env.advance(1'000'000);
  voter_env.advance(1'000'000);
  proposer.propose(Value{7});
  proposer_env.advance(2 * kDelta);
  voter_env.advance(2 * kDelta);
  proposer.on_message(1, Message{TwoBMsg{0, Value{7}}});
  voter.on_message(0, Message{DecideMsg{Value{7}}});  // learns, never proposed
  ASSERT_TRUE(proposer.has_decided());
  ASSERT_TRUE(voter.has_decided());
  const auto latency = metrics.log_histogram_snapshot("decision_latency");
  EXPECT_EQ(latency.count, 1u);
  EXPECT_EQ(latency.max, 2.0 * kDelta);
}

TEST(TwoStepUnit, DuplicateFastVotesDoNotDoubleCount) {
  Fixture f{SystemConfig{5, 2, 1}};
  f.proc.propose(Value{7});
  for (int i = 0; i < 5; ++i) f.proc.on_message(1, Message{TwoBMsg{0, Value{7}}});
  EXPECT_FALSE(f.proc.has_decided());
}

TEST(TwoStepUnit, StaleFastVoteForForeignValueIgnored) {
  Fixture f{SystemConfig{5, 2, 1}};
  f.proc.propose(Value{7});
  f.proc.on_message(1, Message{TwoBMsg{0, Value{8}}});  // not our proposal
  f.proc.on_message(2, Message{TwoBMsg{0, Value{7}}});
  f.proc.on_message(3, Message{TwoBMsg{0, Value{7}}});
  EXPECT_FALSE(f.proc.has_decided());
}

TEST(TwoStepUnit, ConflictingOwnVoteBlocksFastDecision) {
  // We proposed 7 but voted for a higher proposal 9: val not in {bottom, 7}.
  Fixture f{SystemConfig{5, 2, 1}};
  f.proc.propose(Value{7});
  f.proc.on_message(4, Message{ProposeMsg{Value{9}}});
  for (ProcessId q : {1, 2, 3}) f.proc.on_message(q, Message{TwoBMsg{0, Value{7}}});
  EXPECT_FALSE(f.proc.has_decided());
}

TEST(TwoStepUnit, OneAMovesBallotAndAnswersOneB) {
  Fixture f{SystemConfig{5, 2, 1}};
  f.proc.on_message(3, Message{ProposeMsg{Value{9}}});
  f.env.clear_sent();
  f.proc.on_message(1, Message{OneAMsg{6}});
  EXPECT_EQ(f.proc.ballot(), 6);
  const auto to1 = f.env.sent_to(1);
  ASSERT_EQ(to1.size(), 1u);
  const auto& ob = std::get<OneBMsg>(to1.front());
  EXPECT_EQ(ob.b, 6);
  EXPECT_EQ(ob.vbal, 0);
  EXPECT_EQ(ob.val, Value{9});
  EXPECT_EQ(ob.proposer, 3);
  EXPECT_TRUE(ob.decided.is_bottom());
}

TEST(TwoStepUnit, StaleOneAIgnored) {
  Fixture f{SystemConfig{5, 2, 1}};
  f.proc.on_message(1, Message{OneAMsg{6}});
  f.env.clear_sent();
  f.proc.on_message(2, Message{OneAMsg{6}});  // same ballot: b <= bal
  f.proc.on_message(2, Message{OneAMsg{3}});  // lower
  EXPECT_TRUE(f.env.sent().empty());
  EXPECT_EQ(f.proc.ballot(), 6);
}

TEST(TwoStepUnit, TwoAVotesAndBumpsBallot) {
  Fixture f{SystemConfig{5, 2, 1}};
  f.proc.on_message(1, Message{TwoAMsg{6, Value{4}}});
  EXPECT_EQ(f.proc.ballot(), 6);
  EXPECT_EQ(f.proc.vote_ballot(), 6);
  EXPECT_EQ(f.proc.vote_value(), Value{4});
  const auto to1 = f.env.sent_to(1);
  ASSERT_EQ(to1.size(), 1u);
  EXPECT_EQ(std::get<TwoBMsg>(to1.front()).b, 6);
}

TEST(TwoStepUnit, StaleTwoAIgnored) {
  Fixture f{SystemConfig{5, 2, 1}};
  f.proc.on_message(1, Message{OneAMsg{8}});
  f.env.clear_sent();
  f.proc.on_message(1, Message{TwoAMsg{6, Value{4}}});  // 6 < bal = 8
  EXPECT_TRUE(f.env.sent().empty());
  EXPECT_TRUE(f.proc.vote_value().is_bottom());
}

TEST(TwoStepUnit, LeaderAggregatesExactQuorumAndSends2A) {
  // p0 leads ballot 5 (5 mod 5 == 0) in a n=5, f=2 system: quorum 3.
  Fixture f{SystemConfig{5, 2, 1}};
  f.proc.propose(Value{3});
  f.env.clear_sent();
  f.proc.on_message(1, Message{OneBMsg{5, 0, Value::bottom(), consensus::kNoProcess, {}, {}}});
  f.proc.on_message(2, Message{OneBMsg{5, 0, Value::bottom(), consensus::kNoProcess, {}, {}}});
  EXPECT_TRUE(f.env.sent().empty());  // only 2 of 3
  f.proc.on_message(3, Message{OneBMsg{5, 0, Value::bottom(), consensus::kNoProcess, {}, {}}});
  // Own initial selected; 2A broadcast to all n processes.
  EXPECT_EQ(f.env.count_sent([](ProcessId, const Message& m) {
              return std::holds_alternative<TwoAMsg>(m) && std::get<TwoAMsg>(m).v == Value{3};
            }),
            5);
}

TEST(TwoStepUnit, NonOwnedBallotOneBIgnored) {
  Fixture f{SystemConfig{5, 2, 1}};  // self = 0; ballot 6 is owned by p1
  for (ProcessId q : {1, 2, 3}) {
    f.proc.on_message(q, Message{OneBMsg{6, 0, Value::bottom(), consensus::kNoProcess, {}, {}}});
  }
  EXPECT_TRUE(f.env.sent().empty());
}

TEST(TwoStepUnit, SlowDecisionAtClassicQuorum) {
  Fixture f{SystemConfig{5, 2, 1}};
  f.proc.propose(Value{3});
  for (ProcessId q : {1, 2, 3}) {
    f.proc.on_message(q, Message{OneBMsg{5, 0, Value::bottom(), consensus::kNoProcess, {}, {}}});
  }
  // 2A(5,3) went out; now collect 2B votes (incl. our own self-delivery,
  // which MockEnv does not loop back, so feed 3 votes from others).
  f.proc.on_message(1, Message{TwoBMsg{5, Value{3}}});
  f.proc.on_message(2, Message{TwoBMsg{5, Value{3}}});
  EXPECT_FALSE(f.proc.has_decided());
  f.proc.on_message(3, Message{TwoBMsg{5, Value{3}}});
  EXPECT_TRUE(f.proc.has_decided());
  EXPECT_EQ(f.proc.decided_value(), Value{3});
}

TEST(TwoStepUnit, DecideMessageAdoptsDecision) {
  Fixture f{SystemConfig{5, 2, 1}};
  Value decided;
  f.proc.on_decide = [&](Value v) { decided = v; };
  f.proc.on_message(2, Message{DecideMsg{Value{13}}});
  EXPECT_TRUE(f.proc.has_decided());
  EXPECT_EQ(decided, Value{13});
  EXPECT_EQ(f.proc.vote_value(), Value{13});  // line 14: val <- v
}

TEST(TwoStepUnit, OneBAfterDecisionCarriesDecided) {
  Fixture f{SystemConfig{5, 2, 1}};
  f.proc.on_message(2, Message{DecideMsg{Value{13}}});
  f.env.clear_sent();
  f.proc.on_message(1, Message{OneAMsg{6}});
  const auto to1 = f.env.sent_to(1);
  ASSERT_EQ(to1.size(), 1u);
  EXPECT_EQ(std::get<OneBMsg>(to1.front()).decided, Value{13});
}

TEST(TwoStepUnit, OnDecideFiresExactlyOnce) {
  Fixture f{SystemConfig{5, 2, 1}};
  int fired = 0;
  f.proc.on_decide = [&](Value) { ++fired; };
  f.proc.on_message(2, Message{DecideMsg{Value{13}}});
  f.proc.on_message(3, Message{DecideMsg{Value{13}}});
  EXPECT_EQ(fired, 1);
}

// ---------- end-to-end synchronous runs ----------

TEST(TwoStepRun, FailureFreeFastPathDecidesAtTwoDelta) {
  const SystemConfig cfg{5, 2, 1};
  auto r = RunSpec(cfg).delta(kDelta).core(Mode::kTask);
  SyncScenario s;
  s.proposals = {{4, Value{40}}, {0, Value{10}}, {1, Value{20}}, {2, Value{30}}, {3, Value{35}}};
  r->run(s);
  // p4 proposed the maximum with top priority: it decides at exactly 2Δ.
  EXPECT_TRUE(r->monitor().two_step_for(4, kDelta));
  EXPECT_EQ(r->monitor().decision(4), Value{40});
  // Everyone is correct and decides; the run is safe.
  EXPECT_TRUE(r->monitor().safe());
  EXPECT_TRUE(r->monitor().undecided_correct(cfg.n).empty());
  EXPECT_EQ(r->monitor().any_decision(), Value{40});
}

TEST(TwoStepRun, ECrashesStillTwoStepAtTaskBound) {
  // e=2, f=2: task bound n = max{2e+f, 2f+1} = 6.
  const SystemConfig cfg{6, 2, 2};
  auto r = RunSpec(cfg).delta(kDelta).core(Mode::kTask);
  SyncScenario s;
  s.crashes = {0, 1};
  s.proposals = {{5, Value{50}}, {0, Value{99}}, {1, Value{98}},
                 {2, Value{20}}, {3, Value{30}}, {4, Value{40}}};
  r->run(s);
  EXPECT_TRUE(r->monitor().two_step_for(5, kDelta));
  EXPECT_EQ(r->monitor().any_decision(), Value{50});
  EXPECT_TRUE(r->monitor().safe());
  EXPECT_TRUE(r->monitor().undecided_correct(cfg.n).empty());
}

TEST(TwoStepRun, SameValueEveryProcessCanBeTwoStep) {
  const SystemConfig cfg{5, 2, 1};
  for (ProcessId p = 0; p < cfg.n; ++p) {
    auto r = RunSpec(cfg).delta(kDelta).core(Mode::kTask);
    std::map<ProcessId, Value> initial;
    for (ProcessId q = 0; q < cfg.n; ++q) initial[q] = Value{42};
    SyncScenario s;
    s.proposals = consensus::priority_order(initial, p);
    r->run(s);
    EXPECT_TRUE(r->monitor().two_step_for(p, kDelta)) << "p" << p;
    EXPECT_TRUE(r->monitor().safe());
  }
}

TEST(TwoStepRun, CrashedFastProposerValueRecoveredBySlowPath) {
  // p2 proposes the maximum and crashes right after its broadcast; the
  // others voted for 9, so the ballot-recovery (threshold branch) must
  // re-propose 9 and everyone decides it.
  const SystemConfig cfg{3, 1, 1};
  auto r = RunSpec(cfg).delta(kDelta).core(Mode::kTask);
  r->cluster().start_all();
  r->cluster().propose(2, Value{9});
  r->cluster().crash(2);  // after broadcasting, at time 0
  r->cluster().propose(0, Value{1});
  r->cluster().propose(1, Value{2});
  r->cluster().run();
  EXPECT_TRUE(r->monitor().safe());
  EXPECT_EQ(r->monitor().decision(0), Value{9});
  EXPECT_EQ(r->monitor().decision(1), Value{9});
  // Not two-step: the decision needed the slow path.
  EXPECT_FALSE(r->monitor().two_step_for(0, kDelta));
}

TEST(TwoStepRun, ObjectModeSlowPathAfterConflict) {
  // Object bound for e=2, f=2 is n = 5.  Two proposers conflict; two
  // processes crash; no fast quorum forms and the slow path must finish.
  const SystemConfig cfg{5, 2, 2};
  auto r = RunSpec(cfg).delta(kDelta).core(Mode::kObject);
  SyncScenario s;
  s.crashes = {3, 4};
  s.proposals = {{0, Value{10}}, {1, Value{20}}};
  r->run(s);
  EXPECT_TRUE(r->monitor().safe());
  EXPECT_TRUE(r->monitor().undecided_correct(cfg.n).empty());
  const Value v = r->monitor().any_decision().value();
  EXPECT_TRUE(v == Value{10} || v == Value{20});
  EXPECT_FALSE(r->monitor().two_step_for(0, kDelta));
}

TEST(TwoStepRun, NonProposersLearnTheDecisionInObjectMode) {
  const SystemConfig cfg{5, 2, 2};
  auto r = RunSpec(cfg).delta(kDelta).core(Mode::kObject);
  SyncScenario s;
  s.proposals = {{2, Value{77}}};  // only p2 proposes
  r->run(s);
  EXPECT_TRUE(r->monitor().two_step_for(2, kDelta));
  for (ProcessId p = 0; p < cfg.n; ++p) EXPECT_EQ(r->monitor().decision(p), Value{77});
}

TEST(TwoStepRun, LeaderCrashFailoverViaOmega) {
  // p0 (initial Ω leader) is crashed; p1 must take over ballots.
  const SystemConfig cfg{5, 2, 2};
  auto r = RunSpec(cfg).delta(kDelta).core(Mode::kObject);
  SyncScenario s;
  s.crashes = {0, 3};
  s.proposals = {{1, Value{10}}, {2, Value{20}}};
  r->run(s);
  EXPECT_TRUE(r->monitor().safe());
  EXPECT_TRUE(r->monitor().undecided_correct(cfg.n).empty());
}

TEST(TwoStepRun, QuiescenceAfterDecision) {
  // After everyone decides, timers unwind and the simulation reaches
  // quiescence (no livelock of ballot timers).
  const SystemConfig cfg{5, 2, 1};
  auto r = RunSpec(cfg).delta(kDelta).core(Mode::kTask);
  SyncScenario s;
  s.proposals = {{0, Value{1}}, {1, Value{2}}, {2, Value{3}}, {3, Value{4}}, {4, Value{5}}};
  r->run(s);
  EXPECT_EQ(r->cluster().simulator().pending(), 0u);
}

// ---------- partial synchrony sweeps ----------

class TwoStepPartialSynchrony : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TwoStepPartialSynchrony, TaskSafeAndLiveAcrossSeeds) {
  const SystemConfig cfg{6, 2, 2};
  const std::uint64_t seed = GetParam();
  auto model = std::make_unique<net::PartialSynchrony>(/*gst=*/1500, /*delta=*/kDelta,
                                                       /*chaos=*/1200);
  auto r = RunSpec(cfg).model(std::move(model)).seed(seed).core(Mode::kTask);
  SyncScenario s;
  // Crash one process mid-flight for extra adversity.
  s.proposals = {{0, Value{10}}, {1, Value{20}}, {2, Value{30}},
                 {3, Value{40}}, {4, Value{50}}, {5, Value{60}}};
  r->cluster().crash_at(250, 3);
  r->run(s);
  EXPECT_TRUE(r->monitor().safe()) << r->monitor().violations().front();
  EXPECT_TRUE(r->cluster().all_correct_decided());
}

TEST_P(TwoStepPartialSynchrony, ObjectSafeAndLiveAcrossSeeds) {
  const SystemConfig cfg{5, 2, 2};
  const std::uint64_t seed = GetParam();
  auto model = std::make_unique<net::PartialSynchrony>(1500, kDelta, 1200);
  auto r = RunSpec(cfg).model(std::move(model)).seed(seed).core(Mode::kObject);
  SyncScenario s;
  s.proposals = {{0, Value{10}}, {2, Value{30}}, {4, Value{50}}};
  r->cluster().crash_at(180, 0);
  r->run(s);
  EXPECT_TRUE(r->monitor().safe()) << r->monitor().violations().front();
  EXPECT_TRUE(r->cluster().all_correct_decided());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoStepPartialSynchrony,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace twostep::core
