// Golden vectors: one pinned encoding of every wire type and of every
// variant alternative in each tag space, as lowercase hex.
//
// The bytes are the contract between replicas of different builds, so a
// codec change that moves a single byte must fail here.  Each codec below
// names its value type, its public encoder/decoder pair and its vectors;
// test_golden.cpp checks the bytes and test_codec.cpp sweeps the same
// samples (round trip, every strict prefix, a trailing byte, fuzz).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "codec/codec.hpp"

namespace twostep::golden {

/// A sample value and its pinned encoding.
template <class T>
struct Vector {
  T value;
  const char* hex;
};

inline std::vector<std::uint8_t> from_hex(std::string_view hex) {
  const auto nibble = [](char c) { return c <= '9' ? c - '0' : c - 'a' + 10; };
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  return out;
}

inline std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

// One struct per codec: `Type`, `encode`, `decode`, `vectors()`, and
// `kTrailingIsPayload` for the one frame whose remainder is its payload.
#define TWOSTEP_GOLDEN_CODEC(Name, T, enc, dec)                                       \
  struct Name {                                                                       \
    using Type = T;                                                                   \
    static constexpr bool kTrailingIsPayload = false;                                 \
    static std::vector<std::uint8_t> encode(const Type& m) { return enc(m); }         \
    static std::optional<Type> decode(std::span<const std::uint8_t> b) { return dec(b); } \
    static std::vector<Vector<Type>> vectors();                                       \
  }

TWOSTEP_GOLDEN_CODEC(CoreWire, core::Message, codec::encode, codec::decode);
TWOSTEP_GOLDEN_CODEC(SlotWire, rsm::SlotMsg, codec::encode, codec::decode_slot);
TWOSTEP_GOLDEN_CODEC(BatchWire, rsm::Msg, codec::encode_batch, codec::decode_batch);
TWOSTEP_GOLDEN_CODEC(ConfigWire, rsm::Msg, codec::encode_config, codec::decode_config);
TWOSTEP_GOLDEN_CODEC(FastPaxosWire, fastpaxos::Message, codec::encode, codec::decode_fastpaxos);
TWOSTEP_GOLDEN_CODEC(EPaxosWire, epaxos::Message, codec::encode, codec::decode_epaxos);
TWOSTEP_GOLDEN_CODEC(ClientRequestWire, codec::ClientRequest, codec::encode,
                     codec::decode_client_request);
TWOSTEP_GOLDEN_CODEC(ClientReplyWire, codec::ClientReply, codec::encode,
                     codec::decode_client_reply);
TWOSTEP_GOLDEN_CODEC(StatsRequestWire, codec::StatsRequest, codec::encode,
                     codec::decode_stats_request);
TWOSTEP_GOLDEN_CODEC(StatsReplyWire, codec::StatsReply, codec::encode,
                     codec::decode_stats_reply);
TWOSTEP_GOLDEN_CODEC(SnapshotOfferWire, codec::SnapshotOffer, codec::encode,
                     codec::decode_snapshot_offer);
TWOSTEP_GOLDEN_CODEC(SnapshotRequestWire, codec::SnapshotRequest, codec::encode,
                     codec::decode_snapshot_request);
TWOSTEP_GOLDEN_CODEC(SnapshotChunkWire, codec::SnapshotChunk, codec::encode,
                     codec::decode_snapshot_chunk);
TWOSTEP_GOLDEN_CODEC(HeartbeatWire, codec::Heartbeat, codec::encode, codec::decode_heartbeat);
TWOSTEP_GOLDEN_CODEC(HandoverWire, codec::Handover, codec::encode, codec::decode_handover);
TWOSTEP_GOLDEN_CODEC(CatchupWire, codec::Catchup, codec::encode, codec::decode_catchup);
TWOSTEP_GOLDEN_CODEC(ConfigCommandWire, codec::ConfigCommand, codec::encode,
                     codec::decode_config_command);

/// The traced wrapper: its remainder is the inner frame, so a trailing
/// byte extends the payload instead of being rejected.
struct TracedWire {
  using Type = codec::TracedFrame;
  static constexpr bool kTrailingIsPayload = true;
  static std::vector<std::uint8_t> encode(const Type& m) { return codec::encode(m); }
  static std::optional<Type> decode(std::span<const std::uint8_t> b) {
    return codec::decode_traced(b);
  }
  static std::vector<Vector<Type>> vectors();
};

#undef TWOSTEP_GOLDEN_CODEC

using consensus::Value;

inline std::vector<Vector<core::Message>> CoreWire::vectors() {
  return {
      {core::ProposeMsg{Value{42}}, "010154"},
      {core::OneAMsg{1'000'000'007}, "028ea8d6b907"},
      {core::OneBMsg{5, 0, Value{9}, 3, Value::bottom(), Value{1}}, "030a00011206000102"},
      {core::OneBMsg{7, 7, Value::bottom(), consensus::kNoProcess, Value{12}, Value::bottom()},
       "030e0e0001011800"},
      {core::TwoAMsg{3, Value{-11}}, "04060115"},
      {core::TwoBMsg{0, Value{8}}, "05000110"},
      {core::DecideMsg{Value{123456789}}, "0601aab4de75"},
  };
}

inline std::vector<Vector<rsm::SlotMsg>> SlotWire::vectors() {
  return {
      {rsm::SlotMsg{0, 0, core::TwoBMsg{0, Value{7}}}, "00000500010e"},
      {rsm::SlotMsg{std::numeric_limits<std::int32_t>::max(), 2,
                    core::OneBMsg{5, 0, Value{9}, 3, Value::bottom(), Value{1}}},
       "feffffff0f04030a00011206000102"},
      {rsm::SlotMsg{-3, 1, core::DecideMsg{Value{(std::int64_t{1} << 40) | 5}}}, "050206018a8080808040"},
  };
}

inline std::vector<Vector<rsm::Msg>> BatchWire::vectors() {
  const rsm::Command handle = (std::int64_t{2} << 38) | 7;
  return {
      {rsm::BatchContentMsg{handle, {}}, "018e808080802000"},
      {rsm::BatchContentMsg{handle, {1, -2, (std::int64_t{1} << 39) - 1}}, "018e8080808020060203feffffffff1f"},
      {rsm::BatchFetchMsg{handle}, "028e8080808020"},
  };
}

inline std::vector<Vector<rsm::Msg>> ConfigWire::vectors() {
  const rsm::Command handle = (std::int64_t{3} << 38) | 7;
  return {
      {rsm::ConfigChangeMsg{handle, {rsm::ConfigChange::Op::kAdd, 5, "replica5", 7105}}, "018e8080808030000a107265706c69636135826f"},
      {rsm::ConfigChangeMsg{handle, {rsm::ConfigChange::Op::kRemove, 4, "", 0}}, "018e808080803001080000"},
      {rsm::ConfigFetchMsg{handle}, "028e8080808030"},
  };
}

inline std::vector<Vector<fastpaxos::Message>> FastPaxosWire::vectors() {
  return {
      {fastpaxos::FastProposeMsg{Value{42}}, "010154"},
      {fastpaxos::FastProposeMsg{Value::bottom()}, "0100"},
      {fastpaxos::PrepareMsg{1'000'000'007}, "028ea8d6b907"},
      {fastpaxos::PromiseMsg{5, -1, Value::bottom(), Value{9}}, "030a01000112"},
      {fastpaxos::AcceptMsg{2, Value{-5}}, "04040109"},
      {fastpaxos::AcceptedMsg{0, Value{8}}, "05000110"},
  };
}

inline std::vector<Vector<epaxos::Message>> EPaxosWire::vectors() {
  const epaxos::InstanceId a{0, 0};
  const epaxos::InstanceId b{2, 7};
  const epaxos::DepSet deps{a, b, epaxos::InstanceId{1, 1'000'000}};
  return {
      {epaxos::PreAcceptMsg{b, 4, {-9, 42}, deps, 77}, "01040e0811540600000280897a040e9a01"},
      {epaxos::PreAcceptReplyMsg{a, 0, {}, 0, false}, "02000000000000"},
      {epaxos::PreAcceptReplyMsg{b, 7, deps, 123456789, true}, "02040e0e0600000280897a040eaab4de7501"},
      {epaxos::AcceptMsg{b, 1'000'000'007, {0, epaxos::kNoOpPayload}, deps, 9}, "03040e8ea8d6b90700ffffffffffffffffff010600000280897a040e12"},
      {epaxos::AcceptReplyMsg{b, 42}, "04040e54"},
      {epaxos::CommitMsg{epaxos::InstanceId{4, std::numeric_limits<std::int32_t>::max()},
                         {7, 8}, {a}, 2},
       "0508feffffff0f0e1002000004"},
      {epaxos::PrepareMsg{b, 1'000'000'007}, "06040e8ea8d6b907"},
      {epaxos::PrepareReplyMsg{b, 5, epaxos::Status::kCommitted, {3, 4}, deps, 11}, "07040e0a0306080600000280897a040e16"},
      {epaxos::PrepareReplyMsg{a, 0, epaxos::Status::kNone, {}, {}, 0}, "070000000000000000"},
      {epaxos::PrepareReplyMsg{a, 2, epaxos::Status::kExecuted, {0, epaxos::kNoOpPayload}, {b}, 1},
       "070000040400ffffffffffffffffff0102040e02"},
  };
}

inline std::vector<Vector<codec::ClientRequest>> ClientRequestWire::vectors() {
  return {
      {codec::ClientRequest{1, 42, 0, {}}, "02540000"},
      {codec::ClientRequest{std::numeric_limits<std::int64_t>::max(), -7, 77,
                            {(std::uint64_t{1000} << 40) | 3, 9, 123'456'789}},
       "feffffffffffffffff010d9a0101868080808080f40312aab4de75"},
      {codec::ClientRequest{999, -7, -12345, {}}, "ce0f0df1c00100"},
  };
}

inline std::vector<Vector<codec::ClientReply>> ClientReplyWire::vectors() {
  return {
      {codec::ClientReply{1, 42, -1, true}, "02540101"},
      {codec::ClientReply{9, std::numeric_limits<std::int64_t>::min(), 12, false}, "12ffffffffffffffffff011800"},
  };
}

inline std::vector<Vector<codec::TracedFrame>> TracedWire::vectors() {
  return {
      {codec::TracedFrame{4, {42, 7, 1'000'000}, {0x02, 0x00, 0x05, 0x00, 0x01, 0x10}}, "04540e80897a020005000110"},
      {codec::TracedFrame{9, {std::numeric_limits<std::uint64_t>::max(), 0, 0}, {}}, "09010000"},
  };
}

inline std::vector<Vector<codec::StatsRequest>> StatsRequestWire::vectors() {
  return {{codec::StatsRequest{12345}, "f2c001"}};
}

inline std::vector<Vector<codec::StatsReply>> StatsReplyWire::vectors() {
  return {
      {codec::StatsReply{0, ""}, "0000"},
      {codec::StatsReply{7, "{\"node\": 0}"}, "0e167b226e6f6465223a20307d"},
  };
}

inline std::vector<Vector<codec::SnapshotOffer>> SnapshotOfferWire::vectors() {
  return {{codec::SnapshotOffer{1234, 987654}, "a4138cc878"}};
}

inline std::vector<Vector<codec::SnapshotRequest>> SnapshotRequestWire::vectors() {
  return {{codec::SnapshotRequest{1234, 262144}, "a413808020"}};
}

inline std::vector<Vector<codec::SnapshotChunk>> SnapshotChunkWire::vectors() {
  return {
      {codec::SnapshotChunk{1234, 512, 515, 0xCBF43926, {1, 2, 3}}, "a41380088608cce4a1bf1906010203"},
      {codec::SnapshotChunk{}, "0000000000"},
  };
}

inline std::vector<Vector<codec::Heartbeat>> HeartbeatWire::vectors() {
  return {
      {codec::Heartbeat{std::numeric_limits<consensus::ProcessId>::max(), 3}, "feffffff0f06"},
      {codec::Heartbeat{0, 0}, "0000"},
      {codec::Heartbeat{std::numeric_limits<consensus::ProcessId>::max(),
                        std::numeric_limits<std::int32_t>::max()},
       "feffffff0ffeffffff0f"},
  };
}

inline std::vector<Vector<codec::Handover>> HandoverWire::vectors() {
  return {
      {codec::Handover{2, std::numeric_limits<std::int32_t>::max()}, "04feffffff0f"},
      {codec::Handover{0, 0}, "0000"},
      {codec::Handover{std::numeric_limits<consensus::ProcessId>::max(),
                       std::numeric_limits<std::int32_t>::max()},
       "feffffff0ffeffffff0f"},
  };
}

inline std::vector<Vector<codec::Catchup>> CatchupWire::vectors() {
  return {
      {codec::Catchup{5, 1234567}, "0a8eda9601"},
      {codec::Catchup{std::numeric_limits<consensus::ProcessId>::max(),
                      std::numeric_limits<std::int64_t>::max()},
       "feffffff0ffeffffffffffffffff01"},
  };
}

inline std::vector<Vector<codec::ConfigCommand>> ConfigCommandWire::vectors() {
  return {
      {codec::ConfigCommand{7, {rsm::ConfigChange::Op::kAdd, 3, "127.0.0.1", 65535}}, "0e0006123132372e302e302e31feff07"},
      {codec::ConfigCommand{0, {rsm::ConfigChange::Op::kRemove, 4, "", 0}}, "0001080000"},
  };
}

}  // namespace twostep::golden
