// Tests for DirectDrive and the bounded model checker / schedule fuzzer:
// exhaustive exploration of tiny configurations finds no safety violation
// for the paper's protocol at its bounds, and deliberately weakened
// selection rules (the A1 ablation mutants) are caught.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/two_step.hpp"
#include "modelcheck/digest.hpp"
#include "modelcheck/direct_drive.hpp"
#include "modelcheck/explorer.hpp"
#include "util/rng.hpp"

namespace twostep::modelcheck {
namespace {

using consensus::ProcessId;
using consensus::SystemConfig;
using consensus::Value;
using core::Message;
using core::Mode;
using core::SelectionPolicy;
using core::TwoStepProcess;

DirectDrive<TwoStepProcess>::Factory factory(SystemConfig cfg, Mode mode,
                                             SelectionPolicy policy = SelectionPolicy::kPaper,
                                             ProcessId leader = 0) {
  return [cfg, mode, policy, leader](consensus::Env<Message>& env, ProcessId) {
    core::Options o;
    o.mode = mode;
    o.delta = 100;
    o.selection_policy = policy;
    o.leader_of = [leader] { return leader; };
    return std::make_unique<TwoStepProcess>(env, cfg, o);
  };
}

// ---------- DirectDrive mechanics ----------

TEST(DirectDrive, CollectsSendsIntoPool) {
  const SystemConfig cfg{3, 1, 1};
  DirectDrive<TwoStepProcess> d{cfg, factory(cfg, Mode::kTask)};
  d.propose(0, Value{5});
  EXPECT_EQ(d.pool().size(), 2u);  // Propose to p1, p2
}

TEST(DirectDrive, DeliverIndexInvokesHandler) {
  const SystemConfig cfg{3, 1, 1};
  DirectDrive<TwoStepProcess> d{cfg, factory(cfg, Mode::kTask)};
  d.propose(0, Value{5});
  d.deliver_index(0);  // Propose(5) -> p1
  EXPECT_EQ(d.process(1).vote_value(), Value{5});
  EXPECT_EQ(d.pool().size(), 2u);  // p1's 2B to p0 replaced the consumed msg
}

TEST(DirectDrive, CrashedReceiverConsumesSilently) {
  const SystemConfig cfg{3, 1, 1};
  DirectDrive<TwoStepProcess> d{cfg, factory(cfg, Mode::kTask)};
  d.propose(0, Value{5});
  d.crash(1);
  d.deliver_all();
  EXPECT_TRUE(d.process(1).vote_value().is_bottom());
}

TEST(DirectDrive, CrashSuppressingOutboxDropsPending) {
  const SystemConfig cfg{3, 1, 1};
  DirectDrive<TwoStepProcess> d{cfg, factory(cfg, Mode::kTask)};
  d.propose(0, Value{5});
  ASSERT_EQ(d.pool().size(), 2u);
  d.crash_suppressing_outbox(0);
  EXPECT_TRUE(d.pool().empty());
}

TEST(DirectDrive, TimersFireManuallyInFifoOrder) {
  const SystemConfig cfg{3, 1, 1};
  DirectDrive<TwoStepProcess> d{cfg, factory(cfg, Mode::kTask)};
  d.start_all();
  EXPECT_EQ(d.armed_timers(0), 1);
  EXPECT_TRUE(d.fire_next_timer(0));  // leader starts a ballot (re-arms)
  EXPECT_EQ(d.armed_timers(0), 1);
  EXPECT_FALSE(d.fire_next_timer(1) && false);  // p1 is not the leader; timer fires, no 1A
}

TEST(DirectDrive, DeliverWhereRespectsLimitAndPredicate) {
  const SystemConfig cfg{4, 1, 1};
  DirectDrive<TwoStepProcess> d{cfg, factory(cfg, Mode::kTask)};
  d.propose(0, Value{5});
  d.propose(1, Value{6});
  const int delivered = d.deliver_where(
      [](const auto& m) { return m.from == 0; }, 2);
  EXPECT_EQ(delivered, 2);
}

TEST(DirectDrive, FullDeliveryDecidesAndStaysSafe) {
  const SystemConfig cfg{3, 1, 1};
  DirectDrive<TwoStepProcess> d{cfg, factory(cfg, Mode::kTask)};
  d.start_all();
  d.propose(0, Value{1});
  d.propose(1, Value{2});
  d.propose(2, Value{3});
  d.deliver_all();
  EXPECT_TRUE(d.monitor().safe());
  EXPECT_GE(d.monitor().decided_count(), 1);
}

// ---------- exhaustive exploration ----------

Scenario<TwoStepProcess> tiny_task_scenario(SelectionPolicy policy, int crash_budget,
                                            int max_depth) {
  const SystemConfig cfg{3, 1, 1};  // the task bound for e=1, f=1
  Scenario<TwoStepProcess> s;
  s.config = cfg;
  s.factory = factory(cfg, Mode::kTask, policy);
  s.setup = [](DirectDrive<TwoStepProcess>& d) {
    d.start_all();
    d.propose(0, Value{1});
    d.propose(1, Value{2});
    d.propose(2, Value{3});
  };
  s.may_crash = {0, 1, 2};
  s.crash_budget = crash_budget;
  s.explore_timers = true;
  s.max_depth = max_depth;
  return s;
}

TEST(Explorer, TaskAtBoundIsSafeUnderExhaustiveSearch) {
  // Depth-bounded exhaustive search over delivery orders, timer firings and
  // one mid-step crash: no schedule violates safety.
  const auto scenario = tiny_task_scenario(SelectionPolicy::kPaper, 1, 10);
  const ExploreResult r = Explorer<TwoStepProcess>::explore(scenario, 60000);
  EXPECT_FALSE(r.violation) << r.what;
  EXPECT_GT(r.traces, 100);
}

TEST(Explorer, TaskAtBoundDepthSixIsExhausted) {
  // The depth-6 space of the task protocol at its bound, with timers and one
  // mid-step crash.  A plain DFS needs 1,357,215 schedules for it; the
  // sleep sets must cut that by an order of magnitude or more.
  const auto scenario = tiny_task_scenario(SelectionPolicy::kPaper, 1, 6);
  const ExploreResult r = Explorer<TwoStepProcess>::explore(scenario, 20'000'000);
  EXPECT_TRUE(r.exhausted);
  EXPECT_FALSE(r.violation) << r.what;
  EXPECT_LT(r.traces, 135'721);
}

TEST(Explorer, TaskAtBoundDepthEightIsExhausted) {
  // Sleep sets alone replay 3,048,833 nodes for the depth-8 space, one per
  // schedule that reaches a state; the visited-state table expands a state
  // again only with more depth left or a sleep set that is not a superset
  // of the stored one, and cuts that to about 300,000.  The counts pin the
  // search's exact work.
  const auto scenario = tiny_task_scenario(SelectionPolicy::kPaper, 1, 8);
  const ExploreResult r = Explorer<TwoStepProcess>::explore(scenario, 20'000'000);
  EXPECT_TRUE(r.exhausted);
  EXPECT_FALSE(r.violation) << r.what;
  EXPECT_EQ(r.traces, 257'344);
  EXPECT_EQ(r.steps, 2'305'496);
}

TEST(Explorer, PerfbenchAtBoundSpaceDoesItsPinnedWork) {
  // The exhaustive search of the benchmark's modelcheck job: n=3, e=1, f=1,
  // three distinct proposals, timers, one mid-step crash, depth 5.  The
  // protocol only compares values, so 1, 2, 3 stand for any ascending
  // three.  A change to the search, the action space or a process's
  // digest moves these counts.
  const auto scenario = tiny_task_scenario(SelectionPolicy::kPaper, 1, 5);
  const ExploreResult r = Explorer<TwoStepProcess>::explore(scenario, 20'000'000);
  EXPECT_TRUE(r.exhausted);
  EXPECT_FALSE(r.violation) << r.what;
  EXPECT_EQ(r.traces, 6660);
  EXPECT_EQ(r.steps, 37'017);
}

/// A hash of a schedule, to pin one without spelling it out.
std::uint64_t schedule_hash(const std::vector<int>& schedule) {
  Hasher h;
  h(schedule.size());
  for (const int a : schedule) h(static_cast<std::uint64_t>(a));
  return h.digest().a;
}

TEST(Explorer, ReportsReplayableSchedules) {
  // Use a mutant so a violation exists (the fuzzer finds it quickly), then
  // replay its schedule and check the violation reproduces exactly.  The
  // trace and step counts pin the fuzzer's index -> action mapping: any
  // reordering of the action space changes them.
  const SystemConfig cfg{5, 2, 2};  // below the task bound: violations exist
  Scenario<TwoStepProcess> scenario;
  scenario.config = cfg;
  scenario.factory = factory(cfg, Mode::kTask);
  scenario.setup = [](DirectDrive<TwoStepProcess>& d) {
    d.start_all();
    for (ProcessId p = 0; p < 5; ++p) d.propose(p, Value{p + 1});
  };
  scenario.may_crash = {0, 1, 2, 3, 4};
  scenario.crash_budget = 2;
  const ExploreResult r = Explorer<TwoStepProcess>::fuzz(scenario, 30000, /*seed=*/7, 250);
  ASSERT_TRUE(r.violation);
  EXPECT_EQ(r.traces, 3586);
  EXPECT_EQ(r.steps, 611893);
  EXPECT_EQ(r.what, "agreement: process 0 decided 4 but process 4 decided 5");
  EXPECT_EQ(r.schedule.size(), 107u);
  EXPECT_EQ(schedule_hash(r.schedule), 811813217945220054ULL);
  auto drive = Explorer<TwoStepProcess>::replay_schedule(scenario, r.schedule);
  EXPECT_FALSE(drive->monitor().safe());
  EXPECT_EQ(drive->monitor().violations().front(), r.what);
}

TEST(Explorer, ExhaustsTinySpaces) {
  // With no proposals there is almost nothing to schedule; the explorer
  // must report exhaustion rather than hitting its trace budget.
  const SystemConfig cfg{3, 1, 1};
  Scenario<TwoStepProcess> s;
  s.config = cfg;
  s.factory = factory(cfg, Mode::kTask);
  s.setup = [](DirectDrive<TwoStepProcess>& d) { d.propose(0, Value{1}); };
  s.explore_timers = false;
  s.max_depth = 20;
  const ExploreResult r = Explorer<TwoStepProcess>::explore(s, 100000);
  EXPECT_TRUE(r.exhausted);
  EXPECT_FALSE(r.violation);
}

// ---------- the sleep-set search against a plain DFS ----------

/// A state up to the names the drive gives messages and timers: per process
/// its acceptor state, crashed flag and armed-timer count, then the sorted
/// multiset of pending messages.
std::string project(const DirectDrive<TwoStepProcess>& d) {
  std::ostringstream os;
  for (ProcessId p = 0; p < d.config().n; ++p) {
    const auto a = d.process(p).acceptor_state();
    os << a.bal << ',' << a.vbal << ',' << a.val << ',' << a.proposer << ',' << a.initial << ','
       << a.decided << ',' << d.crashed(p) << ',' << d.armed_timers(p) << ';';
  }
  std::vector<std::string> pending;
  for (const auto& m : d.pool())
    pending.push_back(std::to_string(m.from) + '>' + std::to_string(m.to) + ' ' +
                      core::to_string(m.msg));
  std::sort(pending.begin(), pending.end());
  for (const std::string& m : pending) os << '|' << m;
  return os.str();
}

/// The states a plain DFS reaches: every interleaving of deliveries, timer
/// fires, mid-step crashes, drops, duplicates and partitions, each state
/// rebuilt from the root.  Independent of Explorer's action encoding.
/// `seen` collects the states' projections, `digests` their full digests.
void plain_dfs(const Scenario<TwoStepProcess>& s, std::vector<std::pair<char, int>>& path,
               int crashes, std::set<std::string>& seen, std::set<Digest>& digests) {
  DirectDrive<TwoStepProcess> d{s.config, s.factory};
  s.setup(d);
  for (const auto& [kind, arg] : path) {
    switch (kind) {
      case 'm': d.deliver_index(static_cast<std::size_t>(arg)); break;
      case 't': d.fire_next_timer(arg); break;
      case 'c': d.crash_suppressing_outbox(arg); break;
      case 'u': d.duplicate_index(static_cast<std::size_t>(arg)); break;
      case 'q': d.drop_all_for(arg); break;
      default: d.drop_index(static_cast<std::size_t>(arg)); break;
    }
  }
  seen.insert(project(d));
  digests.insert(state_digest(d));
  if (static_cast<int>(path.size()) == s.max_depth) return;
  std::vector<std::pair<char, int>> moves;
  const int pool = static_cast<int>(d.pool().size());
  for (int i = 0; i < pool; ++i) moves.emplace_back('m', i);
  for (ProcessId p = 0; p < s.config.n; ++p)
    if (!d.crashed(p) && d.armed_timers(p) > 0) moves.emplace_back('t', p);
  if (crashes < s.crash_budget)
    for (const ProcessId p : s.may_crash)
      if (!d.crashed(p)) moves.emplace_back('c', p);
  if (d.injected_drops() < s.faults.drops)
    for (int i = 0; i < pool; ++i) moves.emplace_back('d', i);
  if (d.injected_duplicates() < s.faults.duplicates)
    for (int i = 0; i < pool; ++i) moves.emplace_back('u', i);
  if (d.injected_partitions() < s.faults.partitions && pool > 0)
    for (ProcessId p = 0; p < s.config.n; ++p)
      if (!d.crashed(p)) moves.emplace_back('q', p);
  for (const auto& move : moves) {
    path.push_back(move);
    plain_dfs(s, path, crashes + (move.first == 'c' ? 1 : 0), seen, digests);
    path.pop_back();
  }
}

TEST(Explorer, SleepSetSearchReachesEveryStateOfThePlainSearch) {
  // Partial-order reduction and the visited-state table must prune
  // schedules, never states: the set of states the search visits (collected
  // through the invariant hook) equals the plain DFS's on each space, both
  // as projections and as full digests.  Duplicates put messages of equal
  // content in the pool, which the table's content-named sleep sets merge.
  auto space = [](int n, Mode mode, int depth, int drops, int duplicates = 0,
                  int partitions = 0) {
    const SystemConfig cfg{n, 1, 1};
    Scenario<TwoStepProcess> s;
    s.config = cfg;
    s.factory = factory(cfg, mode);
    s.setup = [n](DirectDrive<TwoStepProcess>& d) {
      d.start_all();
      for (ProcessId p = 0; p < n; ++p) d.propose(p, Value{p + 1});
    };
    for (ProcessId p = 0; p < n; ++p) s.may_crash.push_back(p);
    s.crash_budget = 1;
    s.faults.drops = drops;
    s.faults.duplicates = duplicates;
    s.faults.partitions = partitions;
    s.max_depth = depth;
    return s;
  };
  // Each space with the number of distinct states in it.
  const std::vector<std::pair<Scenario<TwoStepProcess>, std::size_t>> spaces = {
      {space(3, Mode::kTask, 4, 0), 896},   {space(3, Mode::kTask, 5, 0), 3041},
      {space(3, Mode::kObject, 4, 0), 455}, {space(3, Mode::kObject, 5, 0), 1252},
      {space(4, Mode::kTask, 4, 0), 4610},  {space(3, Mode::kTask, 4, 1), 1508},
      {space(3, Mode::kTask, 4, 0, 1), 2537},  {space(3, Mode::kTask, 4, 0, 0, 1), 1496},
  };
  for (const auto& [plain_space, states] : spaces) {
    std::set<std::string> plain;
    std::set<Digest> plain_digests;
    std::vector<std::pair<char, int>> path;
    plain_dfs(plain_space, path, 0, plain, plain_digests);

    std::set<std::string> reduced;
    std::set<Digest> reduced_digests;
    Scenario<TwoStepProcess> s = plain_space;
    s.invariant = [&](const DirectDrive<TwoStepProcess>& d) -> std::optional<std::string> {
      reduced.insert(project(d));
      reduced_digests.insert(state_digest(d));
      return std::nullopt;
    };
    const ExploreResult r = Explorer<TwoStepProcess>::explore(s, 20'000'000);
    ASSERT_TRUE(r.exhausted);
    EXPECT_FALSE(r.violation) << r.what;
    EXPECT_EQ(plain.size(), states);
    const auto where = [&s] {
      std::ostringstream os;
      os << "n=" << s.config.n << " depth=" << s.max_depth << " drops=" << s.faults.drops
         << " duplicates=" << s.faults.duplicates << " partitions=" << s.faults.partitions;
      return os.str();
    };
    EXPECT_EQ(reduced, plain) << where();
    EXPECT_EQ(reduced_digests, plain_digests) << where();
  }
}

// ---------- state digests ----------

bool from_to(const DirectDrive<TwoStepProcess>::Pending& m, ProcessId from, ProcessId to) {
  return m.from == from && m.to == to;
}

TEST(StateDigest, CommutedOrdersOfIndependentActionsGiveEqualDigests) {
  // p1 and p2 each take a Propose from p0 and fire a timer, in opposite
  // orders: their 2B replies get swapped seqs and their re-armed timers
  // swapped ids, which the digest must not see.
  const SystemConfig cfg{3, 1, 1};
  auto drive = [&cfg](ProcessId first, ProcessId second) {
    auto d = std::make_unique<DirectDrive<TwoStepProcess>>(cfg, factory(cfg, Mode::kTask));
    d->start_all();
    d->propose(0, Value{1});
    for (const ProcessId p : {first, second}) {
      EXPECT_EQ(d->deliver_where([p](const auto& m) { return from_to(m, 0, p); }, 1), 1);
      EXPECT_TRUE(d->fire_next_timer(p));
    }
    return d;
  };
  const auto d12 = drive(1, 2);
  const auto d21 = drive(2, 1);
  const auto seq_of_reply = [](const DirectDrive<TwoStepProcess>& d, ProcessId from) {
    for (const auto& m : d.pool())
      if (from_to(m, from, 0)) return m.seq;
    return std::uint64_t{0};
  };
  ASSERT_NE(seq_of_reply(*d12, 1), 0u);
  EXPECT_NE(seq_of_reply(*d12, 1), seq_of_reply(*d21, 1));
  EXPECT_EQ(state_digest(*d12), state_digest(*d21));
}

TEST(StateDigest, SeesBookkeepingThatTheAcceptorProjectionOmits) {
  // n=4, e=1: one fast vote or one 1B leaves p0's acceptor state as it was.
  // Each pair of drives below differs only in whether p0 took that message
  // or it vanished (drop_where is no injected fault), so project() merges
  // them; fast_voters_ and led_ tell them apart.
  const SystemConfig cfg{4, 1, 1};
  auto drive = [&cfg] {
    auto d = std::make_unique<DirectDrive<TwoStepProcess>>(cfg, factory(cfg, Mode::kTask));
    d->start_all();
    return d;
  };
  auto taken_or_lost = [&](auto prepare, auto is_reply) {
    auto taken = drive();
    auto lost = drive();
    prepare(*taken);
    prepare(*lost);
    EXPECT_EQ(taken->deliver_where(is_reply, 1), 1);
    EXPECT_EQ(lost->drop_where(is_reply), 1);
    EXPECT_EQ(project(*taken), project(*lost));
    EXPECT_NE(state_digest(*taken), state_digest(*lost));
  };
  // A fast vote: p1's 2B for p0's proposal.
  taken_or_lost(
      [](DirectDrive<TwoStepProcess>& d) {
        d.propose(0, Value{1});
        d.deliver_where([](const auto& m) { return from_to(m, 0, 1); }, 1);
      },
      [](const auto& m) { return from_to(m, 1, 0); });
  // A received 1B: p0 leads a ballot and p1 answers its 1A.
  taken_or_lost(
      [](DirectDrive<TwoStepProcess>& d) {
        d.fire_next_timer(0);
        d.deliver_where([](const auto& m) { return from_to(m, 0, 1); }, 1);
      },
      [](const auto& m) { return from_to(m, 1, 0); });
}

TEST(Explorer, InvariantViolationIsReportedWithItsSchedule) {
  // The invariant hook reports like the safety monitors: the first state
  // that breaks it ends the search, and its schedule replays to that state.
  auto s = tiny_task_scenario(SelectionPolicy::kPaper, 0, 6);
  s.invariant = [](const DirectDrive<TwoStepProcess>& d) -> std::optional<std::string> {
    if (d.process(1).vote_value() == Value{1}) return "p1 voted for 1";
    return std::nullopt;
  };
  const ExploreResult r = Explorer<TwoStepProcess>::explore(s, 100000);
  ASSERT_TRUE(r.violation);
  EXPECT_EQ(r.what, "p1 voted for 1");
  auto drive = Explorer<TwoStepProcess>::replay_schedule(s, r.schedule);
  EXPECT_EQ(drive->process(1).vote_value(), Value{1});

  const ExploreResult f = Explorer<TwoStepProcess>::fuzz(s, 64, /*seed=*/5, 50);
  ASSERT_TRUE(f.violation);
  EXPECT_EQ(f.what, "p1 voted for 1");
}

// ---------- fuzzing ----------

TEST(Fuzzer, ObjectAtBoundSurvivesRandomSchedules) {
  const SystemConfig cfg{5, 2, 2};  // object bound for e=2, f=2
  Scenario<TwoStepProcess> s;
  s.config = cfg;
  s.factory = factory(cfg, Mode::kObject);
  s.setup = [](DirectDrive<TwoStepProcess>& d) {
    d.start_all();
    d.propose(0, Value{1});
    d.propose(2, Value{2});
    d.propose(4, Value{3});
  };
  s.may_crash = {0, 1, 2, 3, 4};
  s.crash_budget = 2;
  const ExploreResult r = Explorer<TwoStepProcess>::fuzz(s, 800, /*seed=*/42, 200);
  EXPECT_FALSE(r.violation) << r.what;
  EXPECT_EQ(r.traces, 800);
}

TEST(Fuzzer, TaskAtBoundSurvivesRandomSchedules) {
  const SystemConfig cfg{6, 2, 2};  // task bound for e=2, f=2
  Scenario<TwoStepProcess> s;
  s.config = cfg;
  s.factory = factory(cfg, Mode::kTask);
  s.setup = [](DirectDrive<TwoStepProcess>& d) {
    d.start_all();
    for (ProcessId p = 0; p < 6; ++p) d.propose(p, Value{p + 1});
  };
  s.may_crash = {0, 1, 2, 3, 4, 5};
  s.crash_budget = 2;
  const ExploreResult r = Explorer<TwoStepProcess>::fuzz(s, 600, /*seed=*/7, 250);
  EXPECT_FALSE(r.violation) << r.what;
}

TEST(Fuzzer, BelowBoundTaskProtocolEventuallyCaught) {
  // n = 2e+f-1 = 5 for e=2, f=2: the configuration the Theorem 5 lower
  // bound forbids.  Random schedules with mid-step crashes find the
  // Appendix B violation without being told the construction.
  const SystemConfig cfg{5, 2, 2};
  Scenario<TwoStepProcess> s;
  s.config = cfg;
  s.factory = factory(cfg, Mode::kTask);
  s.setup = [](DirectDrive<TwoStepProcess>& d) {
    d.start_all();
    for (ProcessId p = 0; p < 5; ++p) d.propose(p, Value{p + 1});
  };
  s.may_crash = {0, 1, 2, 3, 4};
  s.crash_budget = 2;
  const ExploreResult r = Explorer<TwoStepProcess>::fuzz(s, 30000, /*seed=*/7, 250);
  EXPECT_TRUE(r.violation) << "no violation in " << r.traces << " random schedules";
}

// ---------- trace accounting & crash budget ----------

// A deliberately unsafe two-process toy: propose(v) mails v to the peer and
// delivering a message decides its value.  With different proposals the
// schedule [deliver, deliver] violates Agreement — handy for pinning the
// explorer's accounting without a 30k-trace hunt.
struct PokeProcess {
  using Message = int;

  PokeProcess(consensus::Env<Message>& env) : env_(&env) {}

  std::function<void(Value)> on_decide;

  void start() {}
  void propose(Value v) { env_->send(1 - env_->self(), static_cast<int>(v.get())); }
  void on_message(ProcessId, const Message& m) {
    if (decided_) return;
    decided_ = true;
    if (on_decide) on_decide(Value{m});
  }
  void on_timer(consensus::TimerId) {}

  template <typename H>
  void digest(H& h) const {
    h(decided_);
  }
  template <typename H>
  static void digest(H& h, const Message& m) {
    h(static_cast<std::uint64_t>(m));
  }
  void copy_state_from(const PokeProcess& other) { decided_ = other.decided_; }

  consensus::Env<Message>* env_;
  bool decided_ = false;
};

Scenario<PokeProcess> poke_scenario() {
  Scenario<PokeProcess> s;
  s.config = SystemConfig{2, 0, 0};
  s.factory = [](consensus::Env<int>& env, ProcessId) {
    return std::make_unique<PokeProcess>(env);
  };
  s.setup = [](DirectDrive<PokeProcess>& d) {
    d.propose(0, Value{1});
    d.propose(1, Value{2});
  };
  s.explore_timers = false;
  s.max_depth = 8;
  return s;
}

TEST(Explorer, ViolatingScheduleCountsAsExaminedTrace) {
  // Convention pinned on ExploreResult: a schedule that exhibits a violation
  // IS counted.  DFS order makes [0, 0] the first complete schedule here, so
  // the violating run is exactly trace #1.
  const ExploreResult r = Explorer<PokeProcess>::explore(poke_scenario(), 1000);
  ASSERT_TRUE(r.violation);
  EXPECT_EQ(r.traces, 1);
  EXPECT_EQ(r.schedule, (std::vector<int>{0, 0}));
  auto drive = Explorer<PokeProcess>::replay_schedule(poke_scenario(), r.schedule);
  EXPECT_EQ(drive->monitor().violations().front(), r.what);
}

TEST(Fuzzer, ViolatingScheduleCountsAsExaminedTrace) {
  // Same convention for fuzz: every examined schedule — violating or not —
  // contributes to `traces`, so the count is >= 1 whenever a schedule ran.
  const ExploreResult r = Explorer<PokeProcess>::fuzz(poke_scenario(), 64, /*seed=*/1, 10);
  ASSERT_TRUE(r.violation);
  EXPECT_GE(r.traces, 1);
  EXPECT_LE(r.traces, 64);
}

TEST(Explorer, SetupCrashesDoNotConsumeTheCrashBudget) {
  // The documented contract: crash_budget is "on top of crashes done by
  // setup".  Regression: crash_victims() used to count a process crashed by
  // `setup` against the budget, so a budget-1 scenario whose setup crashes a
  // may_crash member degenerated to budget 0 (no crash actions explored).
  auto scenario = [](int crash_budget) {
    const SystemConfig cfg{3, 1, 1};
    Scenario<TwoStepProcess> s;
    s.config = cfg;
    s.factory = factory(cfg, Mode::kTask);
    s.setup = [](DirectDrive<TwoStepProcess>& d) {
      d.crash(2);  // the scenario's premise, not an adversary move
      d.start_all();
      d.propose(0, Value{1});
    };
    s.may_crash = {0, 1, 2};
    s.crash_budget = crash_budget;
    s.explore_timers = false;
    s.max_depth = 6;
    return s;
  };
  const ExploreResult with_budget = Explorer<TwoStepProcess>::explore(scenario(1), 100000);
  const ExploreResult no_budget = Explorer<TwoStepProcess>::explore(scenario(0), 100000);
  ASSERT_TRUE(with_budget.exhausted);
  ASSERT_TRUE(no_budget.exhausted);
  // With the budget usable the explorer schedules extra crash actions, so it
  // must see strictly more schedules; under the old accounting both runs
  // explored the identical space.
  EXPECT_GT(with_budget.traces, no_budget.traces);
}

// ---------- parallel fuzzing determinism ----------

ExploreResult fuzz_below_bound(int traces, int jobs) {
  const SystemConfig cfg{5, 2, 2};
  Scenario<TwoStepProcess> s;
  s.config = cfg;
  s.factory = factory(cfg, Mode::kTask);
  s.setup = [](DirectDrive<TwoStepProcess>& d) {
    d.start_all();
    for (ProcessId p = 0; p < 5; ++p) d.propose(p, Value{p + 1});
  };
  s.may_crash = {0, 1, 2, 3, 4};
  s.crash_budget = 2;
  return Explorer<TwoStepProcess>::fuzz(s, traces, /*seed=*/3, 250, jobs);
}

TEST(Fuzzer, JobsCountDoesNotChangeTheResult) {
  // The tentpole guarantee: fuzz output is byte-identical for any --jobs.
  // Exercises both the no-violation path (counts must match exactly) and the
  // early-stop path on the unsafe toy scenario (the winning schedule must be
  // the lowest-index shard's for every thread count).
  const ExploreResult seq = fuzz_below_bound(2000, 1);
  const ExploreResult par = fuzz_below_bound(2000, 8);
  EXPECT_EQ(seq.traces, par.traces);
  EXPECT_EQ(seq.steps, par.steps);
  EXPECT_EQ(seq.violation, par.violation);
  EXPECT_EQ(seq.what, par.what);
  EXPECT_EQ(seq.schedule, par.schedule);

  const ExploreResult toy_seq = Explorer<PokeProcess>::fuzz(poke_scenario(), 640, 9, 10, 1);
  const ExploreResult toy_par = Explorer<PokeProcess>::fuzz(poke_scenario(), 640, 9, 10, 8);
  ASSERT_TRUE(toy_seq.violation);  // nearly every random schedule violates
  EXPECT_EQ(toy_seq.traces, toy_par.traces);
  EXPECT_EQ(toy_seq.steps, toy_par.steps);
  EXPECT_EQ(toy_seq.what, toy_par.what);
  EXPECT_EQ(toy_seq.schedule, toy_par.schedule);
}

// ---------- restoring a drive ----------

/// One move, named as the plain search above names it: ('m', i) delivers,
/// ('d', i) drops and ('u', i) duplicates pending message i; ('t', p) fires
/// p's oldest timer, ('c', p) crashes p mid-step and ('q', p) partitions p.
using Move = std::pair<char, int>;

/// The moves enabled at `d` after `crashes` crash moves, in the explorer's
/// index order.  Independent of Explorer's action encoding.
template <typename P>
std::vector<Move> enabled_moves(const Scenario<P>& s, const DirectDrive<P>& d, int crashes) {
  std::vector<Move> moves;
  const int pool = static_cast<int>(d.pool().size());
  for (int i = 0; i < pool; ++i) moves.emplace_back('m', i);
  if (s.explore_timers)
    for (ProcessId p = 0; p < s.config.n; ++p)
      if (!d.crashed(p) && d.armed_timers(p) > 0) moves.emplace_back('t', p);
  if (crashes < s.crash_budget)
    for (const ProcessId p : s.may_crash)
      if (!d.crashed(p)) moves.emplace_back('c', p);
  if (d.injected_drops() < s.faults.drops)
    for (int i = 0; i < pool; ++i) moves.emplace_back('d', i);
  if (d.injected_duplicates() < s.faults.duplicates)
    for (int i = 0; i < pool; ++i) moves.emplace_back('u', i);
  if (d.injected_partitions() < s.faults.partitions && pool > 0)
    for (ProcessId p = 0; p < s.config.n; ++p)
      if (!d.crashed(p)) moves.emplace_back('q', p);
  return moves;
}

template <typename P>
void apply_move(DirectDrive<P>& d, const Move& move) {
  const auto [kind, arg] = move;
  switch (kind) {
    case 'm': d.deliver_index(static_cast<std::size_t>(arg)); break;
    case 't': d.fire_next_timer(arg); break;
    case 'c': d.crash_suppressing_outbox(arg); break;
    case 'u': d.duplicate_index(static_cast<std::size_t>(arg)); break;
    case 'q': d.drop_all_for(arg); break;
    default: d.drop_index(static_cast<std::size_t>(arg)); break;
  }
}

/// The pool by identity, in order: each entry's seq and content digest.
template <typename P>
std::vector<std::pair<std::uint64_t, Digest>> pool_of(const DirectDrive<P>& d) {
  std::vector<std::pair<std::uint64_t, Digest>> out;
  for (const auto& m : d.pool()) out.emplace_back(m.seq, message_digest<P>(m));
  return out;
}

/// Runs `schedules` random schedules of up to `steps` moves two ways: on one
/// drive, reused across schedules, restored from the post-setup snapshot;
/// and on a drive built fresh for each schedule.  After every move the two
/// must agree on the state digest, the pool's seqs and order, the step
/// counter and the monitor, and the explorer's action counts on both must
/// equal a naive recount of the enabled moves.
template <typename P>
void check_restore_matches_fresh_builds(const Scenario<P>& s, int schedules, int steps) {
  using Counts = typename Explorer<P>::Counts;
  DirectDrive<P> root{s.config, s.factory};
  s.setup(root);
  const auto base = Explorer<P>::baseline(s, root);
  DirectDrive<P> restored{s.config, s.factory};
  util::Rng rng{17};
  const auto naive = [](const std::vector<Move>& moves) {
    const auto of = [&](char kind) {
      return static_cast<int>(std::ranges::count(moves, kind, &Move::first));
    };
    return Counts{of('m'), of('t'), of('c'), of('d'), of('u'), of('q')};
  };
  long moved = 0;
  for (int t = 0; t < schedules; ++t) {
    restored.restore_from(root);
    DirectDrive<P> fresh{s.config, s.factory};
    s.setup(fresh);
    int crashes = 0;
    for (int k = 0;; ++k) {
      SCOPED_TRACE("schedule " + std::to_string(t) + ", step " + std::to_string(k));
      ASSERT_EQ(state_digest(restored), state_digest(fresh));
      ASSERT_EQ(pool_of(restored), pool_of(fresh));
      ASSERT_EQ(restored.step(), fresh.step());
      ASSERT_EQ(restored.monitor().violations(), fresh.monitor().violations());
      ASSERT_EQ(restored.monitor().decided_count(), fresh.monitor().decided_count());
      const std::vector<Move> moves = enabled_moves(s, fresh, crashes);
      ASSERT_EQ(Explorer<P>::count_actions(s, restored, base), naive(moves));
      ASSERT_EQ(Explorer<P>::count_actions(s, fresh, base), naive(moves));
      if (k == steps || moves.empty()) break;
      const Move& move = moves[rng.next_below(moves.size())];
      apply_move(restored, move);
      apply_move(fresh, move);
      crashes += move.first == 'c' ? 1 : 0;
      ++moved;
    }
  }
  EXPECT_GT(moved, schedules);
}

TEST(DirectDrive, RestoredDriveMatchesAFreshBuildStepByStep) {
  // Restoring copies every process through copy_state_from and the drive's
  // counters, so a restored drive names messages and timers exactly as a
  // fresh build does.  Timers let p0 lead slow ballots, so the bookkeeping
  // of led ballots is copied too; the fault budgets cover every move.
  auto at_bound = tiny_task_scenario(SelectionPolicy::kPaper, 1, 48);
  at_bound.faults = {1, 1, 1};
  check_restore_matches_fresh_builds(at_bound, 200, 60);

  const SystemConfig below{5, 2, 2};
  Scenario<TwoStepProcess> s;
  s.config = below;
  s.factory = factory(below, Mode::kTask);
  s.setup = [](DirectDrive<TwoStepProcess>& d) {
    d.start_all();
    for (ProcessId p = 0; p < 5; ++p) d.propose(p, Value{p + 1});
  };
  s.may_crash = {0, 1, 2, 3, 4};
  s.crash_budget = 2;
  check_restore_matches_fresh_builds(s, 200, 120);

  auto poke = poke_scenario();
  poke.may_crash = {0, 1};
  poke.crash_budget = 1;
  poke.faults = {1, 1, 1};
  check_restore_matches_fresh_builds(poke, 200, 10);
}

TEST(Explorer, RejectsACrashListThatNamesAProcessTwice) {
  // The action counts take may_crash as a set of processes of the config.
  auto s = tiny_task_scenario(SelectionPolicy::kPaper, 1, 3);
  s.may_crash = {0, 1, 1};
  EXPECT_THROW((void)Explorer<TwoStepProcess>::explore(s, 10), std::invalid_argument);
  s.may_crash = {0, 3};
  EXPECT_THROW((void)Explorer<TwoStepProcess>::fuzz(s, 10, 1, 10), std::invalid_argument);
}

}  // namespace
}  // namespace twostep::modelcheck
