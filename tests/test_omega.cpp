// Tests for the Ω leader-election module: the oracle and the timeout-based
// omega::Detector shared by the live runtime and the simulator (eventual
// agreement on the lowest correct process under partial synchrony, §C.1,
// plus the live rules: widening on false suspicion, suspicion by handover).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/latency.hpp"
#include "net/network.hpp"
#include "omega/omega.hpp"
#include "sim/simulator.hpp"

namespace twostep::omega {
namespace {

using consensus::ProcessId;

TEST(OmegaOracle, LeaderIsLowestAlive) {
  std::vector<bool> alive = {true, true, true};
  OmegaOracle o{[&](ProcessId p) { return alive[static_cast<std::size_t>(p)]; }, 3};
  EXPECT_EQ(o.leader(), 0);
  alive[0] = false;
  EXPECT_EQ(o.leader(), 1);
  alive[1] = false;
  EXPECT_EQ(o.leader(), 2);
}

TEST(OmegaOracle, NoLeaderWhenAllDead) {
  OmegaOracle o{[](ProcessId) { return false; }, 3};
  EXPECT_EQ(o.leader(), consensus::kNoProcess);
}

TEST(OmegaOracle, RejectsBadArguments) {
  EXPECT_THROW(OmegaOracle(nullptr, 3), std::invalid_argument);
  EXPECT_THROW(OmegaOracle([](ProcessId) { return true; }, 0), std::invalid_argument);
}

/// Harness: n Detectors over a simulated network, each hosted the way
/// TwoStepWithOmega hosts one — heartbeat every member and run check()
/// on a period timer, report each received heartbeat with heard().
class DetectorFixture {
 public:
  DetectorFixture(int n, sim::Tick period, sim::Tick timeout,
                  std::unique_ptr<net::LatencyModel> model, std::uint64_t seed = 1)
      : net_(sim_, std::move(model), n, seed), period_(period) {
    for (ProcessId p = 0; p < n; ++p) {
      members_.push_back(p);
      detectors_.emplace_back(p, timeout, 8 * timeout, static_cast<std::uint64_t>(p));
      net_.set_handler(p, [this, p](ProcessId from, const Heartbeat&) {
        detector(p).heard(from, sim_.now());
      });
    }
  }

  void start_all() {
    for (const ProcessId p : members_) tick(p);
  }

  Detector& detector(ProcessId p) { return detectors_[static_cast<std::size_t>(p)]; }
  ProcessId leader(ProcessId p) { return detector(p).leader(members_); }
  sim::Simulator& sim() { return sim_; }
  net::Network<Heartbeat>& net() { return net_; }

 private:
  void tick(ProcessId p) {
    if (net_.crashed(p)) return;
    for (const ProcessId q : members_)
      if (q != p) net_.send(p, q, Heartbeat{});
    detector(p).check(members_, sim_.now());
    sim_.schedule_after(period_, [this, p] { tick(p); });
  }

  sim::Simulator sim_;
  net::Network<Heartbeat> net_;
  sim::Tick period_;
  std::vector<ProcessId> members_;
  std::vector<Detector> detectors_;
};

TEST(Detector, FailureFreeElectsP0) {
  DetectorFixture f{4, /*period=*/50, /*timeout=*/200, std::make_unique<net::FixedDelay>(10)};
  f.start_all();
  f.sim().run_until(2000);
  for (ProcessId p = 0; p < 4; ++p) EXPECT_EQ(f.leader(p), 0) << "p" << p;
}

TEST(Detector, CrashedLeaderIsReplaced) {
  DetectorFixture f{4, 50, 200, std::make_unique<net::FixedDelay>(10)};
  f.start_all();
  f.net().crash_at(500, 0);
  f.sim().run_until(2000);
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_TRUE(f.detector(p).suspects(0)) << "p" << p;
    EXPECT_EQ(f.leader(p), 1) << "p" << p;
  }
}

TEST(Detector, CascadingCrashes) {
  DetectorFixture f{5, 50, 200, std::make_unique<net::FixedDelay>(10)};
  f.start_all();
  f.net().crash_at(500, 0);
  f.net().crash_at(1000, 1);
  f.sim().run_until(3000);
  for (ProcessId p = 2; p < 5; ++p) EXPECT_EQ(f.leader(p), 2) << "p" << p;
}

TEST(Detector, ConvergesAfterGst) {
  // Chaotic delays before GST may cause false suspicions; each one widens
  // that peer's timeout, so after GST all correct processes re-agree on p0.
  DetectorFixture f{4, 50, 200,
                    std::make_unique<net::PartialSynchrony>(/*gst=*/2000, /*delta=*/100,
                                                            /*chaos=*/1500),
                    /*seed=*/7};
  f.start_all();
  f.sim().run_until(6000);
  for (ProcessId p = 0; p < 4; ++p) EXPECT_EQ(f.leader(p), 0) << "p" << p;
}

TEST(Detector, SelfIsNeverSuspected) {
  DetectorFixture f{3, 50, 200, std::make_unique<net::FixedDelay>(10)};
  f.start_all();
  f.sim().run_until(1000);
  for (ProcessId p = 0; p < 3; ++p) EXPECT_FALSE(f.detector(p).suspects(p));
}

TEST(Detector, ValidatesConstruction) {
  EXPECT_THROW(Detector(-1, 50, 200, 1), std::invalid_argument);
  // Zeroed timeout bounds are clamped to 1, as util::Backoff clamps them.
  Detector d{0, 0, 0, 1};
  const std::vector<ProcessId> members = {0, 1};
  EXPECT_EQ(d.check(members, 0), 0);
  EXPECT_EQ(d.check(members, 1), 0);
  EXPECT_EQ(d.check(members, 2), 1);
}

TEST(Detector, SuspicionHappensOnlyAtACheck) {
  Detector d{0, 100, 100, 1};
  const std::vector<ProcessId> members = {0, 1};
  EXPECT_EQ(d.check(members, 0), 0);
  EXPECT_FALSE(d.suspects(1));  // the timeout has lapsed by now, but no check ran
  EXPECT_EQ(d.leader(members), 0);
  EXPECT_EQ(d.check(members, 1000), 1);
  EXPECT_TRUE(d.suspects(1));
  EXPECT_EQ(d.check(members, 2000), 0);  // counted once, not at every check
}

TEST(Detector, FalseSuspicionWidensTheNextTimeoutUpToTheCap) {
  // Peer 1's k-th timeout is drawn from [c/2, c], c = min(100 * 2^k, 800).
  Detector d{0, 100, 800, 3};
  const std::vector<ProcessId> members = {0, 1};
  std::int64_t last = 0;
  EXPECT_EQ(d.check(members, last), 0);
  for (const std::int64_t cap : {100, 200, 400, 800, 800, 800}) {
    EXPECT_EQ(d.check(members, last + cap / 2), 0) << "cap " << cap;
    EXPECT_EQ(d.check(members, last + cap + 1), 1) << "cap " << cap;
    last += cap + 1;
    EXPECT_TRUE(d.heard(1, last)) << "a false suspicion is reported";
    EXPECT_FALSE(d.suspects(1));
  }
  EXPECT_FALSE(d.heard(1, last)) << "hearing an unsuspected peer changes nothing";
}

TEST(Detector, HandoverSuspectsOnlyLowerMembersUnheardWithinGrace) {
  Detector d{3, 10'000, 10'000, 1};
  const std::vector<ProcessId> members = {0, 1, 2, 3, 4};
  EXPECT_EQ(d.check(members, 0), 0);
  d.heard(1, 90);
  // Handover from 2 at t=100, grace 50: 0 (unheard for 100) is suspected;
  // 1 (heard 10 ago) is vouched for; 2 itself and 4 are not below it.
  EXPECT_EQ(d.handover(2, members, 100, 50), 1);
  EXPECT_TRUE(d.suspects(0));
  EXPECT_FALSE(d.suspects(1));
  EXPECT_FALSE(d.suspects(4));
  EXPECT_EQ(d.leader(members), 1);
  // A claim from above never disqualifies self.
  Detector low{1, 10'000, 10'000, 1};
  EXPECT_EQ(low.check(members, 0), 0);
  EXPECT_EQ(low.handover(3, members, 1000, 50), 2);  // 0 and 2, never self
  EXPECT_TRUE(low.suspects(0));
  EXPECT_FALSE(low.suspects(1));
  EXPECT_TRUE(low.suspects(2));
  EXPECT_EQ(low.leader(members), 1);
}

TEST(Detector, NeverHeardMemberIsNotDisqualifiedBeforeItsFirstCheck) {
  Detector d{2, 100, 100, 1};
  const std::vector<ProcessId> members = {0, 1, 2};
  EXPECT_EQ(d.leader(members), 0);  // no record yet: not suspected
  // The first check opens 0's grace period instead of judging its silence.
  EXPECT_EQ(d.check(members, 5000), 0);
  EXPECT_EQ(d.leader(members), 0);
  EXPECT_EQ(d.check(members, 5101), 2);
  EXPECT_EQ(d.leader(members), 2);
}

TEST(Detector, ForgetDropsARemovedMember) {
  Detector d{1, 100, 100, 1};
  std::vector<ProcessId> members = {0, 1, 2};
  EXPECT_EQ(d.check(members, 0), 0);
  EXPECT_EQ(d.check(members, 101), 2);
  d.forget(0);
  EXPECT_FALSE(d.suspects(0));
  members = {1, 2};
  EXPECT_EQ(d.leader(members), 1);
  // Re-admitted under the same id, it starts from a fresh record.
  members = {0, 1, 2};
  EXPECT_EQ(d.leader(members), 0);
}

TEST(Detector, SelfIsElectedWhenEveryOtherMemberIsSuspected) {
  Detector d{2, 100, 100, 1};
  const std::vector<ProcessId> members = {0, 1, 2, 3};
  EXPECT_EQ(d.check(members, 0), 0);
  EXPECT_EQ(d.check(members, 101), 3);
  EXPECT_EQ(d.leader(members), 2);
  // Self outside the member list (e.g. just removed) still claims it.
  const std::vector<ProcessId> others = {0, 1, 3};
  EXPECT_EQ(d.leader(others), 2);
}

}  // namespace
}  // namespace twostep::omega
