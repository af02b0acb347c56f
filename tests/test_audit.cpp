// Tests for node::audit, the live safety audit every live driver runs:
// hand-built applied logs that must pass or be flagged for agreement,
// validity or durability.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "node/audit.hpp"

namespace twostep::node {
namespace {

/// A command as the RSM applies it: proxy tag in the high bits.
std::int64_t cmd(std::int64_t payload, std::int64_t proxy = 0) { return (proxy << 40) | payload; }

/// Payloads 0..99 were issued.
bool issued(std::int64_t payload) { return payload >= 0 && payload < 100; }

/// One log applying `payloads` at consecutive slots from `first_slot`.
AppliedLog log_from(std::int32_t first_slot, const std::vector<std::int64_t>& payloads) {
  AppliedLog log;
  for (std::size_t i = 0; i < payloads.size(); ++i)
    log.emplace_back(first_slot + static_cast<std::int32_t>(i), cmd(payloads[i], 1));
  return log;
}

TEST(Audit, SlotOffsetSuffixThatAgreesPasses) {
  // Replica 2 was healed by snapshot transfer: it applies from slot 3 on,
  // and replica 1 is shorter; where they overlap they agree.
  const std::vector<AppliedLog> logs = {log_from(0, {10, 11, 12, 13, 14, 15}),
                                        log_from(0, {10, 11, 12, 13}),
                                        log_from(3, {13, 14, 15})};
  EXPECT_TRUE(audit(logs, {10, 13, 15}, issued).empty());
}

TEST(Audit, DivergenceAtOneSlotIsFlagged) {
  const std::vector<AppliedLog> logs = {log_from(0, {10, 11, 12, 13}),
                                        log_from(0, {10, 11, 99, 13})};
  const auto violations = audit(logs, {}, issued);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0], "agreement: replica 1 diverges from replica 0 at applied index 2");
}

TEST(Audit, DivergenceBetweenSuffixesIsFlaggedAtTheirSlot) {
  const std::vector<AppliedLog> logs = {log_from(0, {10, 11, 12, 13, 14}),
                                        log_from(2, {12, 13, 14}), log_from(3, {13, 98})};
  const auto violations = audit(logs, {}, issued);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0], "agreement: replica 2 diverges from replica 0 at applied index 1");
  EXPECT_EQ(violations[1], "agreement: replica 2 diverges from replica 1 at applied index 1");
}

TEST(Audit, DivergenceBetweenOtherReplicasIsFlaggedWhileReplicaZeroIsEmpty) {
  // Replica 0 is dead (empty log): the audit must still compare 1 with 2.
  const std::vector<AppliedLog> logs = {{}, log_from(0, {10, 11, 12}), log_from(0, {10, 12})};
  const auto violations = audit(logs, {}, issued);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0], "agreement: replica 2 diverges from replica 1 at applied index 1");
}

TEST(Audit, ForeignPayloadFailsValidity) {
  const std::vector<AppliedLog> logs = {log_from(0, {10, 11}), log_from(0, {10, 11, 100})};
  const auto violations = audit(logs, {}, issued);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0], "validity: replica 1 applied slot 2 with un-issued payload 100");
}

TEST(Audit, PayloadIsTheCommandWithoutItsProxyTag) {
  // The same payload proxied through different replicas is one payload.
  const std::vector<AppliedLog> logs = {{{0, cmd(7, 2)}, {1, cmd(8, 3)}}};
  EXPECT_TRUE(audit(logs, {7, 8}, issued).empty());
}

TEST(Audit, MissingAckedPayloadFailsDurability) {
  const std::vector<AppliedLog> logs = {log_from(0, {10, 11, 12}), log_from(0, {10, 11})};
  EXPECT_TRUE(audit(logs, {10, 11, 12}, issued).empty());  // the longest log holds all
  const auto violations = audit(logs, {10, 12, 20, 21}, issued);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0],
            "durability: 2 acknowledged command(s) missing from the longest applied log");
  EXPECT_EQ(audit({}, {1}, issued),  // no log at all
            std::vector<std::string>{
                "durability: 1 acknowledged command(s) missing from the longest applied log"});
}

}  // namespace
}  // namespace twostep::node
