// Golden vectors for every byte format that leaves a process: the wire
// codecs (vectors in golden_vectors.hpp), each write-ahead-log record kind,
// the RSM snapshot blob and the node runtime's snapshot payload.
//
// Each check runs the public entry points the runtime itself uses, so the
// pinned bytes hold whatever the codec looks like inside.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/two_step.hpp"
#include "epaxos/host.hpp"
#include "fastpaxos/fast_paxos.hpp"
#include "golden_vectors.hpp"
#include "mock_env.hpp"
#include "node/client.hpp"
#include "node/runtime.hpp"
#include "rsm/rsm.hpp"
#include "storage/durable.hpp"
#include "storage/engine.hpp"
#include "storage/wal.hpp"

namespace twostep::golden {
namespace {

// ---- wire codecs ----

template <class C>
class GoldenWire : public ::testing::Test {};

using WireCodecs =
    ::testing::Types<CoreWire, SlotWire, BatchWire, ConfigWire, FastPaxosWire, EPaxosWire,
                     ClientRequestWire, ClientReplyWire, TracedWire, StatsRequestWire,
                     StatsReplyWire, SnapshotOfferWire, SnapshotRequestWire, SnapshotChunkWire,
                     HeartbeatWire, HandoverWire, CatchupWire, ConfigCommandWire>;
TYPED_TEST_SUITE(GoldenWire, WireCodecs);

TYPED_TEST(GoldenWire, EncodesToThePinnedBytesAndDecodesBack) {
  for (const auto& [value, hex] : TypeParam::vectors()) {
    EXPECT_EQ(to_hex(TypeParam::encode(value)), hex);
    const auto back = TypeParam::decode(from_hex(hex));
    ASSERT_TRUE(back.has_value()) << hex;
    EXPECT_EQ(*back, value) << hex;
  }
}

// ---- write-ahead-log records ----

class TempDir {
 public:
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() / "twostep-golden-XXXXXX").string();
    dir_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path(const std::string& name) const { return dir_ + "/" + name; }

 private:
  std::string dir_;
};

/// Captures `proc` once into a fresh WAL and returns the records as hex.
template <class P>
std::vector<std::string> captured_records(P& proc, storage::Durable<P>& durable) {
  TempDir tmp;
  {
    storage::Wal wal(tmp.path("wal"), storage::WalOptions{false});
    durable.capture(proc, wal);
    wal.sync();
  }
  storage::Wal wal(tmp.path("wal"), storage::WalOptions{false});
  std::vector<std::string> out;
  for (const auto& record : wal.recovered()) out.push_back(to_hex(record.bytes));
  return out;
}

template <class P>
void replay_all(P& proc, const std::vector<std::string>& records) {
  storage::Durable<P> durable;
  for (const auto& hex : records) durable.replay(proc, from_hex(hex));
}

core::Options core_options() {
  core::Options options;
  options.mode = core::Mode::kObject;
  options.delta = 100;
  options.leader_of = [] { return consensus::ProcessId{0}; };
  return options;
}

rsm::Options rsm_options() {
  rsm::Options options;
  options.delta = 100;
  options.leader_of = [] { return consensus::ProcessId{0}; };
  return options;
}

TEST(GoldenWal, CoreAcceptorStateRecord) {
  const consensus::SystemConfig config(3, 1, 1);
  testing::MockEnv<core::Message> env(1, config.n);
  core::TwoStepProcess proc(env, config, core_options());
  proc.start();
  // `initial` set and `decided` bottom: on disk the tuple holds `initial`
  // before `decided`, the reverse of a 1B message.
  proc.propose(Value{7});
  proc.on_message(0, core::Message{core::ProposeMsg{Value{7}}});
  proc.on_message(2, core::Message{core::OneAMsg{3}});
  storage::Durable<core::TwoStepProcess> durable;
  const std::vector<std::string> golden = {"0600010e00010e00"};
  EXPECT_EQ(captured_records(proc, durable), golden);

  testing::MockEnv<core::Message> env2(1, config.n);
  core::TwoStepProcess fresh(env2, config, core_options());
  replay_all(fresh, golden);
  EXPECT_EQ(fresh.acceptor_state(), proc.acceptor_state());
}

TEST(GoldenWal, FastPaxosAcceptorStateRecord) {
  const consensus::SystemConfig config(4, 1, 1);
  fastpaxos::Options options;
  options.delta = 100;
  options.leader_of = [] { return consensus::ProcessId{0}; };
  testing::MockEnv<fastpaxos::Message> env(2, config.n);
  fastpaxos::FastPaxosProcess proc(env, config, options);
  proc.start();
  proc.propose(Value{-4});
  proc.on_message(0, fastpaxos::Message{fastpaxos::PrepareMsg{2}});
  proc.on_message(0, fastpaxos::Message{fastpaxos::AcceptMsg{2, Value{9}}});
  storage::Durable<fastpaxos::FastPaxosProcess> durable;
  const std::vector<std::string> golden = {"04040112010700"};
  EXPECT_EQ(captured_records(proc, durable), golden);

  testing::MockEnv<fastpaxos::Message> env2(2, config.n);
  fastpaxos::FastPaxosProcess fresh(env2, config, options);
  replay_all(fresh, golden);
  EXPECT_EQ(fresh.acceptor_state(), proc.acceptor_state());
}

constexpr rsm::Command kPlain = (std::int64_t{1} << 40) | 5;
constexpr rsm::Command kBatch = (std::int64_t{1} << 40) | (std::int64_t{2} << 38) | 3;
constexpr rsm::Command kConfig = (std::int64_t{1} << 40) | (std::int64_t{3} << 38) | 1;
constexpr rsm::Command kConfig2 = (std::int64_t{1} << 40) | (std::int64_t{3} << 38) | 2;
const rsm::ConfigChange kAdd3{rsm::ConfigChange::Op::kAdd, 3, "127.0.0.1", 7103};
const rsm::ConfigChange kRemove1{rsm::ConfigChange::Op::kRemove, 1, "", 0};

TEST(GoldenWal, RsmBatchConfigAndSlotRecords) {
  const consensus::SystemConfig config(3, 1, 1);
  testing::MockEnv<rsm::Msg> env(2, config.n);
  rsm::RsmProcess proc(env, config, rsm_options());
  proc.start();
  proc.on_message(1, rsm::Msg{rsm::BatchContentMsg{kBatch, {4, 5}}});
  proc.on_message(1, rsm::Msg{rsm::ConfigChangeMsg{kConfig, kAdd3}});
  proc.on_message(1, rsm::Msg{rsm::SlotMsg{0, 0, core::ProposeMsg{Value{kPlain}}}});
  storage::Durable<rsm::RsmProcess> durable;
  const std::vector<std::string> golden = {
      "0186808080806004080a",            // batch: tag -1, handle, count, payloads
      "038280808080700006123132372e302e302e31fe6e",  // config: tag -2, handle, op, replica, host, port
      "000000018a8080808040020000",      // slot 0: the core acceptor tuple
  };
  EXPECT_EQ(captured_records(proc, durable), golden);

  testing::MockEnv<rsm::Msg> env2(2, config.n);
  rsm::RsmProcess fresh(env2, config, rsm_options());
  replay_all(fresh, golden);
  ASSERT_NE(fresh.batch_contents(kBatch), nullptr);
  EXPECT_EQ(*fresh.batch_contents(kBatch), (std::vector<std::int64_t>{4, 5}));
  ASSERT_NE(fresh.config_contents(kConfig), nullptr);
  EXPECT_EQ(*fresh.config_contents(kConfig), kAdd3);
  ASSERT_NE(fresh.slot_process(0), nullptr);
  EXPECT_EQ(fresh.slot_process(0)->acceptor_state(), proc.slot_process(0)->acceptor_state());
}

TEST(GoldenWal, EPaxosInstanceRecord) {
  const consensus::SystemConfig config(5, 2, 2);
  epaxos::HostOptions host;
  host.protocol.delta = 100;
  const epaxos::InstanceId id{0, 1};
  const epaxos::CommitMsg commit{id, {3, 7}, {epaxos::InstanceId{0, 0}}, 2};
  testing::MockEnv<epaxos::Message> env(2, config.n);
  epaxos::EPaxosRsm proc(env, config, host);
  proc.start();
  storage::Durable<epaxos::EPaxosRsm> durable;
  (void)captured_records(proc, durable);  // drain whatever start() dirtied
  proc.on_message(0, epaxos::Message{commit});
  const std::vector<std::string> golden = {"00020600060e04020000"};
  EXPECT_EQ(captured_records(proc, durable), golden);

  testing::MockEnv<epaxos::Message> env2(2, config.n);
  epaxos::EPaxosRsm fresh(env2, config, host);
  replay_all(fresh, golden);
  EXPECT_EQ(fresh.replica().instance_state(id), proc.replica().instance_state(id));
}

// ---- snapshots ----

/// Replica 2 of three: one applied command, one decided config change (a
/// second epoch), one live slot, one pending batch and one pending change.
void drive_to_snapshot_state(rsm::RsmProcess& proc) {
  proc.start();
  proc.on_message(1, rsm::Msg{rsm::BatchContentMsg{kBatch, {4, 5}}});
  proc.on_message(1, rsm::Msg{rsm::SlotMsg{0, 0, core::DecideMsg{Value{kPlain}}}});
  proc.on_message(1, rsm::Msg{rsm::ConfigChangeMsg{kConfig, kAdd3}});
  proc.on_message(1, rsm::Msg{rsm::SlotMsg{1, 0, core::DecideMsg{Value{kConfig}}}});
  proc.on_message(1, rsm::Msg{rsm::ConfigChangeMsg{kConfig2, kRemove1}});
  proc.on_message(0, rsm::Msg{rsm::SlotMsg{2, 1, core::ProposeMsg{Value{kPlain + 1}}}});
}

constexpr const char* kRsmBlob =
    "040402008a808080804002040000018c80808080400000000286808080806004080a0400000606000204"
    "0000000002040808000204060006123132372e302e302e31fe6e0284808080807002020000";

TEST(GoldenSnapshot, RsmSnapshotBlob) {
  const consensus::SystemConfig config(3, 1, 1);
  testing::MockEnv<rsm::Msg> env(2, config.n);
  rsm::RsmProcess proc(env, config, rsm_options());
  drive_to_snapshot_state(proc);
  EXPECT_EQ(to_hex(storage::Snapshotable<rsm::RsmProcess>::capture(proc)), kRsmBlob);

  testing::MockEnv<rsm::Msg> env2(2, config.n);
  rsm::RsmProcess fresh(env2, config, rsm_options());
  ASSERT_TRUE(storage::Snapshotable<rsm::RsmProcess>::install(fresh, from_hex(kRsmBlob)));
  EXPECT_EQ(fresh.applied_entries(), proc.applied_entries());
  EXPECT_EQ(fresh.config_epochs(), proc.config_epochs());
  EXPECT_EQ(to_hex(storage::Snapshotable<rsm::RsmProcess>::capture(fresh)), kRsmBlob);
}

TEST(GoldenSnapshot, RuntimePayloadWithDedupTable) {
  // Runtime section version 1, one dedup entry (client 77 finished request
  // 1 with kPlain at slot 0: last_id, done, reply id, value, slot, ok), then
  // the RSM blob above behind its 79-byte length prefix.
  const std::string payload = std::string("02" "02" "9a01" "02" "01" "02" "8a8080808040" "00" "01"
                                          "9e01") +
                              kRsmBlob;
  TempDir tmp;
  {
    storage::EngineOptions engine_options;
    engine_options.fsync = false;
    storage::Engine engine(tmp.path("replica-0"), engine_options);
    engine.write_snapshot(from_hex(payload));
  }
  const consensus::SystemConfig config(3, 1, 1);
  node::RuntimeOptions options;
  options.storage = node::StorageOptions{tmp.path(""), false};
  node::Runtime<rsm::RsmProcess> runtime(
      0, config.n, transport::Endpoint{"127.0.0.1", 0},
      [&](consensus::Env<rsm::Msg>& env, obs::MetricsRegistry&) {
        return std::make_unique<rsm::RsmProcess>(env, config, rsm_options());
      },
      options);
  ASSERT_EQ(runtime.metrics().counter_value("snapshot.recovered"), 1u);
  EXPECT_EQ(runtime.applied_log(),
            (std::vector<std::pair<std::int32_t, std::int64_t>>{{0, kPlain}}));
  runtime.start({});
  node::ClientOptions client_options;
  client_options.client_id = 77;
  node::ClientSession client(runtime.endpoint(), nullptr, client_options);
  ASSERT_TRUE(client.connect());
  const auto reply = client.call(9);  // request id 1: answered from the dedup table
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, (codec::ClientReply{1, kPlain, 0, true}));
  runtime.stop();
}

}  // namespace
}  // namespace twostep::golden
