// WAL framing, segment rotation/compaction, torn-tail recovery, the
// snapshot engine's crash ordering, and the per-protocol Durable traits.
//
// The corruption tests write real bytes through the real file API and then
// damage the files the way a crash (torn tail, interrupted snapshot write)
// or bit rot (CRC mismatch) would, asserting recovery keeps exactly the
// trustworthy state.  The engine tests use EngineOptions::test_hook to
// crash write_snapshot at its two interesting points and prove the
// documented ordering: truncation-before-durability is impossible.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/two_step.hpp"
#include "epaxos/host.hpp"
#include "fastpaxos/fast_paxos.hpp"
#include "mock_env.hpp"
#include "obs/metrics.hpp"
#include "storage/durable.hpp"
#include "storage/engine.hpp"
#include "storage/wal.hpp"

namespace twostep {
namespace {

using storage::Engine;
using storage::EngineOptions;
using storage::Wal;
using storage::WalOptions;

/// Fresh path in a per-test temp directory, cleaned up on destruction.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() / "twostep-wal-XXXXXX").string();
    dir_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const { return dir_ + "/" + name; }

 private:
  std::string dir_;
};

/// Engine options with fsync off; everything else at its default.
EngineOptions no_fsync() {
  EngineOptions options;
  options.fsync = false;
  return options;
}

std::vector<std::uint8_t> bytes(std::initializer_list<int> vals) {
  std::vector<std::uint8_t> out;
  for (const int v : vals) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

/// Just the payloads of the recovered records, for easy comparison.
std::vector<std::vector<std::uint8_t>> recovered_bytes(const Wal& wal) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const auto& r : wal.recovered()) out.push_back(r.bytes);
  return out;
}

void append_raw(const std::string& path, const std::vector<std::uint8_t>& tail) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, tail.data(), tail.size()), static_cast<ssize_t>(tail.size()));
  ::close(fd);
}

void flip_byte(const std::string& path, off_t offset) {
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  std::uint8_t b = 0;
  ASSERT_EQ(::pread(fd, &b, 1, offset), 1);
  b ^= 0xFF;
  ASSERT_EQ(::pwrite(fd, &b, 1, offset), 1);
  ::close(fd);
}

TEST(WalTest, RoundTripsRecordsAcrossReopen) {
  TempDir tmp;
  const std::string dir = tmp.file("wal");
  const std::vector<std::vector<std::uint8_t>> records = {
      bytes({1, 2, 3}), bytes({}), bytes({0xFF, 0x00, 0x80, 0x7F}), bytes({42})};
  {
    Wal wal(dir, WalOptions{false});
    EXPECT_TRUE(wal.recovered().empty());
    for (const auto& r : records) wal.append(r);
    wal.sync();
    EXPECT_EQ(wal.appends(), records.size());
    EXPECT_EQ(wal.syncs(), 1u);
  }
  Wal reopened(dir, WalOptions{false});
  EXPECT_EQ(recovered_bytes(reopened), records);
  EXPECT_EQ(reopened.truncated_bytes(), 0u);
}

TEST(WalTest, UnsyncedBufferIsFlushedByTheDestructor) {
  TempDir tmp;
  const std::string dir = tmp.file("wal");
  {
    Wal wal(dir, WalOptions{false});
    wal.append(bytes({9, 9, 9}));
    // No explicit sync: the destructor writes best-effort.
  }
  Wal reopened(dir, WalOptions{false});
  ASSERT_EQ(reopened.recovered().size(), 1u);
  EXPECT_EQ(reopened.recovered()[0].bytes, bytes({9, 9, 9}));
}

TEST(WalTest, TornTailIsTruncatedOnOpen) {
  TempDir tmp;
  const std::string dir = tmp.file("wal");
  std::string segment1;
  {
    Wal wal(dir, WalOptions{false});
    wal.append(bytes({1, 2, 3}));
    wal.append(bytes({4, 5}));
    wal.sync();
    segment1 = wal.segment_path(wal.active_segment());
  }
  // A crash mid-write leaves a partial record: a header promising 100
  // payload bytes with only 3 present.
  append_raw(segment1, bytes({100, 0, 0, 0, 0xAA, 0xBB, 0xCC, 0xDD, 7, 7, 7}));
  const auto torn_size = std::filesystem::file_size(segment1);

  Wal reopened(dir, WalOptions{false});
  ASSERT_EQ(reopened.recovered().size(), 2u);
  EXPECT_EQ(reopened.recovered()[0].bytes, bytes({1, 2, 3}));
  EXPECT_EQ(reopened.recovered()[1].bytes, bytes({4, 5}));
  EXPECT_EQ(reopened.truncated_bytes(), 11u);
  // The segment itself was cut back, so the next open is clean.
  EXPECT_EQ(std::filesystem::file_size(segment1), torn_size - 11);
  // And the log keeps working after recovery.
  reopened.append(bytes({6}));
  reopened.sync();
  Wal again(dir, WalOptions{false});
  ASSERT_EQ(again.recovered().size(), 3u);
  EXPECT_EQ(again.recovered()[2].bytes, bytes({6}));
  EXPECT_EQ(again.truncated_bytes(), 0u);
}

TEST(WalTest, CrcCorruptionDiscardsTheRecordAndEverythingAfterIt) {
  TempDir tmp;
  const std::string dir = tmp.file("wal");
  std::string segment1;
  {
    Wal wal(dir, WalOptions{false});
    wal.append(bytes({1, 1, 1, 1}));  // record 0: offset 0, 8-byte header
    wal.append(bytes({2, 2, 2, 2}));  // record 1: offset 12
    wal.append(bytes({3, 3, 3, 3}));  // record 2: offset 24
    wal.sync();
    segment1 = wal.segment_path(wal.active_segment());
  }
  // Rot one payload byte of record 1.  Record 2 still frames correctly,
  // but nothing after the first corruption can be trusted.
  flip_byte(segment1, 12 + 8);

  Wal reopened(dir, WalOptions{false});
  ASSERT_EQ(reopened.recovered().size(), 1u);
  EXPECT_EQ(reopened.recovered()[0].bytes, bytes({1, 1, 1, 1}));
  EXPECT_EQ(reopened.truncated_bytes(), 24u);  // records 1 and 2
}

TEST(WalTest, ImplausibleLengthIsTreatedAsCorruption) {
  TempDir tmp;
  const std::string dir = tmp.file("wal");
  std::string segment1;
  {
    Wal wal(dir, WalOptions{false});
    wal.append(bytes({5}));
    wal.sync();
    segment1 = wal.segment_path(wal.active_segment());
  }
  // A "record" whose length exceeds kMaxRecordBytes, followed by plenty of
  // bytes: the scan must refuse to allocate/accept it.
  std::vector<std::uint8_t> evil = {0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0};
  evil.resize(evil.size() + 64, 0xEE);
  append_raw(segment1, evil);

  Wal reopened(dir, WalOptions{false});
  ASSERT_EQ(reopened.recovered().size(), 1u);
  EXPECT_EQ(reopened.truncated_bytes(), 72u);
}

TEST(WalTest, Crc32MatchesKnownVector) {
  // IEEE CRC-32 of "123456789" is 0xCBF43926 — pins the polynomial and
  // reflection so the on-disk format never silently changes.
  const std::string s = "123456789";
  EXPECT_EQ(storage::crc32({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}),
            0xCBF43926u);
}

// ---- segmentation ----

TEST(WalTest, RotatesOncePastTheSegmentThreshold) {
  TempDir tmp;
  const std::string dir = tmp.file("wal");
  WalOptions options{false};
  options.segment_bytes = 32;  // every record (8-byte header + payload) counts
  Wal wal(dir, options);
  EXPECT_EQ(wal.active_segment(), 1u);
  for (int i = 0; i < 6; ++i) {
    wal.append(bytes({i, i, i, i, i, i, i, i}));  // 16 bytes framed
    wal.sync();                                   // rotation happens on sync
  }
  EXPECT_GT(wal.active_segment(), 1u);
  EXPECT_GT(wal.segment_count(), 1u);

  // Reopen: all records survive, in order, tagged with ascending segments.
  Wal reopened(dir, WalOptions{false});
  ASSERT_EQ(reopened.recovered().size(), 6u);
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(reopened.recovered()[static_cast<std::size_t>(i)].bytes[0],
              static_cast<std::uint8_t>(i));
  for (std::size_t i = 1; i < 6; ++i)
    EXPECT_GE(reopened.recovered()[i].segment, reopened.recovered()[i - 1].segment);
}

TEST(WalTest, RotateSealsAndTruncateThroughDeletesCoveredSegments) {
  TempDir tmp;
  const std::string dir = tmp.file("wal");
  Wal wal(dir, WalOptions{false});
  wal.append(bytes({1}));
  wal.append(bytes({2}));
  const std::uint64_t barrier = wal.rotate();  // syncs, seals segment 1
  EXPECT_EQ(barrier, 1u);
  EXPECT_EQ(wal.active_segment(), 2u);
  wal.append(bytes({3}));
  wal.sync();

  EXPECT_TRUE(std::filesystem::exists(wal.segment_path(barrier)));
  EXPECT_EQ(wal.truncate_through(barrier), 2u);  // the two sealed records
  EXPECT_EQ(wal.truncated_records(), 2u);
  EXPECT_FALSE(std::filesystem::exists(wal.segment_path(barrier)));
  EXPECT_EQ(wal.first_segment(), 2u);

  // Only the post-barrier record survives a reopen.
  Wal reopened(dir, WalOptions{false});
  ASSERT_EQ(reopened.recovered().size(), 1u);
  EXPECT_EQ(reopened.recovered()[0].bytes, bytes({3}));
}

TEST(WalTest, TruncateThroughNeverDeletesTheActiveSegment) {
  TempDir tmp;
  const std::string dir = tmp.file("wal");
  Wal wal(dir, WalOptions{false});
  wal.append(bytes({1}));
  wal.sync();
  // Asking to truncate through the active segment (or beyond) is a no-op
  // for the active file: the WAL must always retain its append head.
  EXPECT_EQ(wal.truncate_through(wal.active_segment()), 0u);
  EXPECT_TRUE(std::filesystem::exists(wal.segment_path(wal.active_segment())));
  Wal reopened(dir, WalOptions{false});
  ASSERT_EQ(reopened.recovered().size(), 1u);
}

TEST(WalTest, CorruptionInAnEarlySegmentDiscardsAllLaterSegments) {
  TempDir tmp;
  const std::string dir = tmp.file("wal");
  std::string segment1;
  std::string segment2;
  {
    Wal wal(dir, WalOptions{false});
    wal.append(bytes({1, 1, 1, 1}));
    wal.append(bytes({2, 2, 2, 2}));
    wal.rotate();
    wal.append(bytes({3, 3, 3, 3}));
    wal.sync();
    segment1 = wal.segment_path(1);
    segment2 = wal.segment_path(2);
  }
  ASSERT_TRUE(std::filesystem::exists(segment2));
  flip_byte(segment1, 12 + 8);  // rot record 1 of segment 1

  // Nothing past the first corruption can be trusted — not even records in
  // later, individually well-formed segments.
  Wal reopened(dir, WalOptions{false});
  ASSERT_EQ(reopened.recovered().size(), 1u);
  EXPECT_EQ(reopened.recovered()[0].bytes, bytes({1, 1, 1, 1}));
  EXPECT_FALSE(std::filesystem::exists(segment2));
  EXPECT_GT(reopened.truncated_bytes(), 0u);
}

// ---- storage::Engine: snapshots + compaction ----

TEST(EngineTest, SnapshotRoundTripsAndCompactsTheWal) {
  TempDir tmp;
  const std::string dir = tmp.file("store");
  const auto payload = bytes({10, 20, 30, 40});
  {
    Engine engine(dir, no_fsync());
    EXPECT_FALSE(engine.snapshot());
    EXPECT_FALSE(engine.snapshot_corrupt());
    engine.wal().append(bytes({1}));
    engine.wal().append(bytes({2}));
    engine.wal().sync();
    EXPECT_EQ(engine.write_snapshot(payload), 2u);  // both records compacted
    EXPECT_EQ(engine.snapshots_written(), 1u);
    // Records appended after the snapshot belong to the replay tail.
    engine.wal().append(bytes({3}));
    engine.wal().sync();
  }
  Engine reopened(dir, no_fsync());
  ASSERT_TRUE(reopened.snapshot());
  EXPECT_EQ(reopened.snapshot()->payload, payload);
  ASSERT_EQ(reopened.tail().size(), 1u);
  EXPECT_EQ(reopened.tail()[0].bytes, bytes({3}));
  EXPECT_FALSE(reopened.snapshot_corrupt());
}

TEST(EngineTest, SnapshotDueTriggersOnAppendCount) {
  TempDir tmp;
  EngineOptions options = no_fsync();
  options.snapshot_every = 3;
  Engine engine(tmp.file("store"), options);
  EXPECT_FALSE(engine.snapshot_due());
  engine.wal().append(bytes({1}));
  engine.wal().append(bytes({2}));
  engine.wal().sync();
  EXPECT_FALSE(engine.snapshot_due());
  engine.wal().append(bytes({3}));
  engine.wal().sync();
  EXPECT_TRUE(engine.snapshot_due());
  engine.write_snapshot(bytes({9}));
  EXPECT_FALSE(engine.snapshot_due());  // counter rearmed
}

TEST(EngineTest, RecoveredTailCountsTowardTheFirstTrigger) {
  TempDir tmp;
  const std::string dir = tmp.file("store");
  {
    Engine engine(dir, no_fsync());
    for (int i = 0; i < 4; ++i) engine.wal().append(bytes({i}));
    engine.wal().sync();
  }
  EngineOptions options = no_fsync();
  options.snapshot_every = 3;
  Engine reopened(dir, options);
  // 4 recovered records >= 3: a node rebooted with a long un-snapshotted
  // tail snapshots at the first opportunity instead of waiting for 3 more.
  EXPECT_TRUE(reopened.snapshot_due());
}

TEST(EngineTest, CrashBeforeRenameLeavesThePreviousSnapshotAuthoritative) {
  TempDir tmp;
  const std::string dir = tmp.file("store");
  const auto first = bytes({1, 1, 1});
  {
    Engine engine(dir, no_fsync());
    engine.wal().append(bytes({1}));
    engine.wal().sync();
    engine.write_snapshot(first);
    engine.wal().append(bytes({2}));
    engine.wal().sync();
  }
  {
    // Crash after snapshot.tmp is written but before the rename: the WAL
    // must NOT have been truncated (step 4 never ran), and the old
    // snapshot file is untouched.
    EngineOptions options = no_fsync();
    options.test_hook = [](const char* stage) {
      if (std::string_view{stage} == "tmp_written") throw std::runtime_error("crash");
    };
    Engine engine(dir, options);
    EXPECT_THROW(engine.write_snapshot(bytes({2, 2, 2})), std::runtime_error);
  }
  Engine reopened(dir, no_fsync());
  ASSERT_TRUE(reopened.snapshot());
  EXPECT_EQ(reopened.snapshot()->payload, first);   // previous snapshot wins
  ASSERT_EQ(reopened.tail().size(), 1u);            // nothing was truncated
  EXPECT_EQ(reopened.tail()[0].bytes, bytes({2}));
  EXPECT_FALSE(std::filesystem::exists(dir + "/snapshot.tmp"));  // tmp unlinked
}

TEST(EngineTest, CrashAfterRenameRecoversTheNewSnapshotAndFinishesCompaction) {
  TempDir tmp;
  const std::string dir = tmp.file("store");
  const auto second = bytes({2, 2, 2});
  std::uint64_t covered = 0;
  {
    Engine engine(dir, no_fsync());
    engine.wal().append(bytes({1}));
    engine.wal().append(bytes({2}));
    engine.wal().sync();
    // Crash after the rename but before WAL truncation: the new snapshot
    // is durable, the covered segments are still on disk.
    EngineOptions crash = no_fsync();
    crash.test_hook = [](const char* stage) {
      if (std::string_view{stage} == "renamed") throw std::runtime_error("crash");
    };
    Engine crasher(dir, crash);
    EXPECT_THROW(crasher.write_snapshot(second), std::runtime_error);
    covered = crasher.wal().first_segment();
  }
  Engine reopened(dir, no_fsync());
  ASSERT_TRUE(reopened.snapshot());
  EXPECT_EQ(reopened.snapshot()->payload, second);  // new snapshot authoritative
  // The covered records never reach the replay tail — a replay can never
  // resurrect state the snapshot already summarizes — and the constructor
  // finished the interrupted truncation.
  EXPECT_TRUE(reopened.tail().empty());
  EXPECT_GT(reopened.snapshot()->covered_segment, 0u);
  EXPECT_FALSE(std::filesystem::exists(reopened.wal().segment_path(covered)));
}

TEST(EngineTest, CorruptSnapshotFallsBackToWalReplay) {
  TempDir tmp;
  const std::string dir = tmp.file("store");
  {
    Engine engine(dir, no_fsync());
    engine.wal().append(bytes({1}));
    engine.wal().sync();
    engine.write_snapshot(bytes({7, 7, 7, 7}));
    engine.wal().append(bytes({5}));
    engine.wal().sync();
  }
  flip_byte(dir + "/snapshot", 9);  // rot one body byte; CRC now mismatches

  Engine reopened(dir, no_fsync());
  EXPECT_FALSE(reopened.snapshot());
  EXPECT_TRUE(reopened.snapshot_corrupt());
  // Recovery degrades to replaying every surviving WAL record.
  ASSERT_EQ(reopened.tail().size(), 1u);
  EXPECT_EQ(reopened.tail()[0].bytes, bytes({5}));
}

// ---- Durable traits ----

core::Options core_options() {
  core::Options options;
  options.mode = core::Mode::kObject;
  options.delta = 100;
  options.leader_of = [] { return consensus::ProcessId{0}; };
  return options;
}

TEST(DurableTest, CaptureOnlyAppendsWhenAcceptorStateChanged) {
  TempDir tmp;
  Wal wal(tmp.file("wal"), WalOptions{false});
  const consensus::SystemConfig config(3, 1, 1);
  testing::MockEnv<core::Message> env(1, config.n);
  core::TwoStepProcess proc(env, config, core_options());
  storage::Durable<core::TwoStepProcess> durable;

  proc.start();
  ASSERT_TRUE(durable.capture(proc, wal));  // initial state is new to the log
  EXPECT_FALSE(durable.capture(proc, wal));  // unchanged: no append
  const std::uint64_t before = wal.appends();

  // A fast vote changes (val, proposer): must be captured.
  proc.on_message(0, core::Message{core::ProposeMsg{consensus::Value{7}}});
  EXPECT_TRUE(durable.capture(proc, wal));
  EXPECT_EQ(wal.appends(), before + 1);
  EXPECT_FALSE(durable.capture(proc, wal));
}

TEST(DurableTest, ReplayRebuildsTheAcceptorTuple) {
  TempDir tmp;
  const consensus::SystemConfig config(3, 1, 1);
  const std::string dir = tmp.file("wal");
  core::TwoStepProcess::AcceptorState expected;
  {
    Wal wal(dir, WalOptions{false});
    testing::MockEnv<core::Message> env(1, config.n);
    core::TwoStepProcess proc(env, config, core_options());
    storage::Durable<core::TwoStepProcess> durable;
    proc.start();
    proc.on_message(0, core::Message{core::ProposeMsg{consensus::Value{7}}});
    proc.on_message(0, core::Message{core::OneAMsg{3}});
    durable.capture(proc, wal);
    wal.sync();
    expected = proc.acceptor_state();
  }
  Wal wal(dir, WalOptions{false});
  testing::MockEnv<core::Message> env(1, config.n);
  core::TwoStepProcess proc(env, config, core_options());
  storage::Durable<core::TwoStepProcess> durable;
  for (const auto& record : wal.recovered()) durable.replay(proc, record.bytes);
  EXPECT_EQ(proc.acceptor_state(), expected);
  // Replay primed the change detector: the restored state is not re-logged.
  EXPECT_FALSE(durable.capture(proc, wal));
  // Recovery counters reflect what came back: the promise from OneA(3) and
  // the fast vote from the Propose.
  obs::MetricsRegistry reg;
  durable.note_recovery(proc, reg);
  EXPECT_EQ(reg.counter_value("recover.ballot"), 3u);
  EXPECT_EQ(reg.counter_value("recover.voted"), 1u);
}

TEST(DurableTest, FastPaxosRoundTripsPromiseAndVote) {
  TempDir tmp;
  const consensus::SystemConfig config(4, 1, 1);
  const std::string dir = tmp.file("wal");
  fastpaxos::FastPaxosProcess::AcceptorState expected;
  {
    Wal wal(dir, WalOptions{false});
    testing::MockEnv<fastpaxos::Message> env(2, config.n);
    fastpaxos::Options options;
    options.delta = 100;
    options.leader_of = [] { return consensus::ProcessId{0}; };
    fastpaxos::FastPaxosProcess proc(env, config, options);
    storage::Durable<fastpaxos::FastPaxosProcess> durable;
    proc.start();
    proc.on_message(0, fastpaxos::Message{fastpaxos::PrepareMsg{2}});
    proc.on_message(0, fastpaxos::Message{fastpaxos::AcceptMsg{2, consensus::Value{9}}});
    ASSERT_TRUE(durable.capture(proc, wal));
    wal.sync();
    expected = proc.acceptor_state();
  }
  EXPECT_EQ(expected.bal, 2);
  EXPECT_EQ(expected.vbal, 2);
  Wal wal(dir, WalOptions{false});
  testing::MockEnv<fastpaxos::Message> env(2, config.n);
  fastpaxos::Options options;
  options.delta = 100;
  options.leader_of = [] { return consensus::ProcessId{0}; };
  fastpaxos::FastPaxosProcess proc(env, config, options);
  storage::Durable<fastpaxos::FastPaxosProcess> durable;
  for (const auto& record : wal.recovered()) durable.replay(proc, record.bytes);
  EXPECT_EQ(proc.acceptor_state(), expected);
  EXPECT_FALSE(durable.capture(proc, wal));
}

TEST(DurableTest, EPaxosRoundTripsCommittedInstances) {
  TempDir tmp;
  const consensus::SystemConfig config(5, 2, 2);
  const std::string dir = tmp.file("wal");
  epaxos::HostOptions host;
  host.protocol.delta = 100;
  const epaxos::InstanceId id{0, 0};
  const epaxos::Command cmd{0, 7};
  {
    Wal wal(dir, WalOptions{false});
    testing::MockEnv<epaxos::Message> env(2, config.n);
    epaxos::EPaxosRsm proc(env, config, host);
    proc.start();
    storage::Durable<epaxos::EPaxosRsm> durable;
    durable.capture(proc, wal);  // drain whatever start() dirtied
    // A peer's Commit lands the instance (committed, then executed).
    proc.on_message(0, epaxos::Message{epaxos::CommitMsg{id, cmd, {}, 1}});
    ASSERT_TRUE(durable.capture(proc, wal));
    EXPECT_FALSE(durable.capture(proc, wal));  // unchanged: no append
    wal.sync();
  }
  Wal wal(dir, WalOptions{false});
  testing::MockEnv<epaxos::Message> env(2, config.n);
  epaxos::EPaxosRsm proc(env, config, host);
  storage::Durable<epaxos::EPaxosRsm> durable;
  std::vector<std::int64_t> applied;
  proc.on_apply = [&](std::int32_t, std::int64_t c) { applied.push_back(c); };
  for (const auto& record : wal.recovered()) durable.replay(proc, record.bytes);
  // Replay re-commits and re-executes from the durable graph.
  EXPECT_EQ(proc.replica().status(id), epaxos::Status::kExecuted);
  EXPECT_EQ(proc.replica().committed_command(id), cmd);
  EXPECT_EQ(applied.size(), 1u);
  // Replay primed the change detector: nothing is re-logged.
  EXPECT_FALSE(durable.capture(proc, wal));
  obs::MetricsRegistry reg;
  durable.note_recovery(proc, reg);
  EXPECT_GE(reg.counter_value("recover.instances"), 1u);
  EXPECT_GE(reg.counter_value("recover.decided"), 1u);
  // Malformed records are ignored, never applied.
  durable.replay(proc, bytes({0xFF, 0xFF, 0xFF}));
  durable.replay(proc, bytes({}));
  EXPECT_EQ(proc.replica().status(id), epaxos::Status::kExecuted);
}

TEST(DurableTest, ReplayIgnoresMalformedRecords) {
  TempDir tmp;
  Wal wal(tmp.file("wal"), WalOptions{false});
  const consensus::SystemConfig config(3, 1, 1);
  testing::MockEnv<core::Message> env(0, config.n);
  core::TwoStepProcess proc(env, config, core_options());
  storage::Durable<core::TwoStepProcess> durable;
  const auto before = proc.acceptor_state();
  durable.replay(proc, bytes({0xFF, 0xFF, 0xFF}));  // truncated varint soup
  durable.replay(proc, bytes({}));
  EXPECT_EQ(proc.acceptor_state(), before);
}

}  // namespace
}  // namespace twostep
