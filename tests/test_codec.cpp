// Tests for the wire codec.  The generic checks are one typed sweep over
// the golden samples of every codec (golden_vectors.hpp): each sample
// round-trips and encodes deterministically, every strict prefix and an
// appended byte are rejected, and fuzzed or bit-flipped input is either
// rejected or round-trips — never UB (CI runs this under ASan/UBSan).  The
// named tests below apply the sweep per codec and add the semantic garbage
// each decoder must refuse.
#include <gtest/gtest.h>

#include <tuple>

#include "codec/codec.hpp"
#include "golden_vectors.hpp"
#include "util/rng.hpp"

namespace twostep::codec {
namespace {

using consensus::Value;
using namespace golden;

// ---- the sweep ----

template <class C>
void expect_round_trips() {
  for (const auto& [value, hex] : C::vectors()) {
    const auto bytes = C::encode(value);
    EXPECT_EQ(bytes, C::encode(value)) << hex;
    const auto back = C::decode(bytes);
    ASSERT_TRUE(back.has_value()) << hex;
    EXPECT_EQ(*back, value) << hex;
  }
}

template <class C>
void expect_prefixes_rejected() {
  EXPECT_FALSE(C::decode({}).has_value());
  for (const auto& [value, hex] : C::vectors()) {
    const auto bytes = C::encode(value);
    std::size_t strict = bytes.size();
    // A traced frame's payload is its remainder: only the header is strict.
    if constexpr (C::kTrailingIsPayload) strict -= value.inner.size();
    for (std::size_t cut = 0; cut < strict; ++cut)
      EXPECT_FALSE(C::decode({bytes.data(), cut}).has_value()) << hex << " cut=" << cut;
  }
}

template <class C>
void expect_trailing_byte_rejected() {
  for (const auto& [value, hex] : C::vectors()) {
    auto bytes = C::encode(value);
    bytes.push_back(0x00);
    EXPECT_FALSE(C::decode(bytes).has_value()) << hex;
  }
}

template <class C>
void expect_strict() {
  expect_prefixes_rejected<C>();
  if constexpr (!C::kTrailingIsPayload) expect_trailing_byte_rejected<C>();
}

/// Anything a decoder accepts must round-trip as a value (the byte form
/// need not be canonical: non-minimal varints are accepted).
template <class C>
void expect_accepted_round_trips(std::span<const std::uint8_t> bytes) {
  if (const auto m = C::decode(bytes)) {
    const auto again = C::decode(C::encode(*m));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, *m);
  }
}

template <class C>
void expect_fuzz_round_trips(std::uint64_t seed, std::uint64_t max_len) {
  util::Rng rng{seed};
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<std::uint8_t> bytes(rng.next_below(max_len));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    expect_accepted_round_trips<C>(bytes);
  }
}

template <class C>
void expect_bit_flips_round_trip() {
  for (const auto& [value, hex] : C::vectors()) {
    const auto bytes = C::encode(value);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        auto flipped = bytes;
        flipped[i] = static_cast<std::uint8_t>(flipped[i] ^ (1u << bit));
        expect_accepted_round_trips<C>(flipped);
      }
    }
  }
}

using AllCodecs =
    std::tuple<CoreWire, SlotWire, BatchWire, ConfigWire, FastPaxosWire, EPaxosWire,
               ClientRequestWire, ClientReplyWire, TracedWire, StatsRequestWire, StatsReplyWire,
               SnapshotOfferWire, SnapshotRequestWire, SnapshotChunkWire, HeartbeatWire,
               HandoverWire, CatchupWire, ConfigCommandWire>;

/// Runs `check.template operator()<C>()` for every codec C.
template <class F>
void for_each_codec(F check) {
  [&]<class... Cs>(std::tuple<Cs...>*) { (check.template operator()<Cs>(), ...); }(
      static_cast<AllCodecs*>(nullptr));
}

/// Hand-built bytes for the garbage cases, written field by field with the
/// generic codec (int64 -> varint, uint8_t -> one byte, string -> length +
/// bytes), so a test can spell values the typed records cannot hold.
template <class... Ts>
std::vector<std::uint8_t> raw(const Ts&... fields) {
  Writer w;
  (write(w, fields), ...);
  return std::move(w).take();
}

std::vector<std::uint8_t> concat(std::vector<std::uint8_t> a, const std::vector<std::uint8_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// ---- core protocol ----

TEST(Codec, RoundTripsEveryMessageKind) { expect_round_trips<CoreWire>(); }

TEST(Codec, VarintExtremes) {
  const std::int64_t extremes[] = {0, 1, -1, 63, 64, -64, -65,
                                   std::numeric_limits<std::int64_t>::max(),
                                   std::numeric_limits<std::int64_t>::min()};
  Writer w;
  for (const std::int64_t v : extremes) write(w, v);
  Reader r{w.bytes()};
  for (const std::int64_t v : extremes) {
    std::int64_t back = 0;
    read(r, back);
    EXPECT_EQ(back, v);
  }
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, ValueBottomRoundTrips) {
  const auto bytes = raw(Value::bottom(), Value{0});
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{0, 1, 0}));
  std::pair<Value, Value> back{Value{5}, Value{5}};
  ASSERT_TRUE(from_bytes(bytes, back));
  EXPECT_TRUE(back.first.is_bottom());
  EXPECT_EQ(back.second, Value{0});
}

TEST(Codec, SmallMessagesAreCompact) {
  // A 2B(0, v) — the hot fast-path message — must be a handful of bytes.
  const auto bytes = encode(core::Message{core::TwoBMsg{0, Value{7}}});
  EXPECT_LE(bytes.size(), 4u);
}

TEST(Codec, RejectsUnknownTag) {
  EXPECT_FALSE(decode(std::vector<std::uint8_t>{0x7F}).has_value());
  EXPECT_FALSE(decode(std::vector<std::uint8_t>{0}).has_value());
}

TEST(Codec, RejectsEmptyAndTruncated) { expect_prefixes_rejected<CoreWire>(); }

TEST(Codec, RejectsTrailingGarbage) { expect_trailing_byte_rejected<CoreWire>(); }

TEST(Codec, RejectsOversizeVarint) {
  // 11 continuation bytes: shift overruns 63 and must fail cleanly.
  std::vector<std::uint8_t> bytes{2 /*OneA*/};
  for (int i = 0; i < 11; ++i) bytes.push_back(0x80);
  bytes.push_back(0x01);
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, DecodeFuzzNeverCrashes) { expect_fuzz_round_trips<CoreWire>(0xC0DEC, 24); }

TEST(Codec, EncodeIsDeterministic) {
  for_each_codec([]<class C>() {
    for (const auto& [value, hex] : C::vectors()) EXPECT_EQ(C::encode(value), C::encode(value));
  });
}

// ---- RSM slots, Fast Paxos, client frames ----

TEST(Codec, SlotMessagesRoundTrip) { expect_round_trips<SlotWire>(); }

TEST(Codec, FastPaxosMessagesRoundTrip) { expect_round_trips<FastPaxosWire>(); }

TEST(Codec, ClientFramesRoundTrip) {
  expect_round_trips<ClientRequestWire>();
  expect_round_trips<ClientReplyWire>();
}

TEST(Codec, SlotDecoderRejectsTruncationAndGarbage) {
  expect_strict<SlotWire>();
  const auto inner = encode(core::Message{core::TwoBMsg{0, Value{8}}});
  // Slot outside int32 must be rejected even when the varint itself parses.
  EXPECT_FALSE(decode_slot(concat(raw(std::int64_t{1} << 40, 0), inner)).has_value());
  // Negative config version is rejected the same way.
  EXPECT_FALSE(decode_slot(concat(raw(3, -1), inner)).has_value());
}

TEST(Codec, FastPaxosDecoderRejectsTruncationAndGarbage) {
  expect_strict<FastPaxosWire>();
  EXPECT_FALSE(decode_fastpaxos(std::vector<std::uint8_t>{0x7F}).has_value());
  EXPECT_FALSE(decode_fastpaxos(std::vector<std::uint8_t>{0}).has_value());
}

TEST(Codec, ClientFrameDecodersRejectTruncationAndGarbage) {
  expect_strict<ClientRequestWire>();
  expect_strict<ClientReplyWire>();
  // An ok byte other than 0/1 is not a valid reply.
  auto bytes = encode(ClientReply{1, 2, 3, true});
  bytes.back() = 2;
  EXPECT_FALSE(decode_client_reply(bytes).has_value());
}

// ---- EPaxos wire frames (geo / leaderless path) ----

TEST(Codec, EPaxosMessagesRoundTrip) { expect_round_trips<EPaxosWire>(); }

TEST(Codec, EPaxosDecoderRejectsTruncationAndGarbage) {
  expect_strict<EPaxosWire>();
  EXPECT_FALSE(decode_epaxos(std::vector<std::uint8_t>{0x7F}).has_value());
  EXPECT_FALSE(decode_epaxos(std::vector<std::uint8_t>{0}).has_value());
}

TEST(Codec, EPaxosDecoderRejectsSemanticGarbage) {
  // The encoder will happily serialise an invalid instance id; the decoder
  // must not let one back in — neither as the subject nor as a dependency.
  EXPECT_FALSE(decode_epaxos(encode(epaxos::Message{
                                 epaxos::PrepareMsg{{consensus::kNoProcess, 0}, 1}}))
                   .has_value());
  EXPECT_FALSE(decode_epaxos(encode(epaxos::Message{epaxos::PrepareMsg{{0, -1}, 1}}))
                   .has_value());
  EXPECT_FALSE(decode_epaxos(encode(epaxos::Message{epaxos::PreAcceptMsg{
                                 {0, 0}, 0, {1, 2}, {epaxos::InstanceId{-1, 3}}, 0}}))
                   .has_value());
  // A `changed` byte other than 0/1 is not a valid pre-accept reply.  The
  // flag is the frame's last byte.
  {
    auto bytes = encode(epaxos::Message{epaxos::PreAcceptReplyMsg{{0, 0}, 0, {}, 0, true}});
    ASSERT_EQ(bytes.back(), 1);
    bytes.back() = 2;
    EXPECT_FALSE(decode_epaxos(bytes).has_value());
  }
  // A status byte beyond kExecuted is not a valid prepare reply.  With a
  // zero instance and ballot the status lands at a fixed offset: tag,
  // replica, index, ballot, then status.
  {
    auto bytes = encode(epaxos::Message{epaxos::PrepareReplyMsg{
        {0, 0}, 0, epaxos::Status::kExecuted, {0, 0}, {}, 0}});
    ASSERT_EQ(bytes[4], static_cast<std::uint8_t>(epaxos::Status::kExecuted));
    bytes[4] = static_cast<std::uint8_t>(epaxos::Status::kExecuted) + 1;
    EXPECT_FALSE(decode_epaxos(bytes).has_value());
  }
}

TEST(Codec, EPaxosDecoderSurvivesBitFlips) { expect_bit_flips_round_trip<EPaxosWire>(); }

// ---- batch sidecar frames (N3 saturation path) ----

TEST(Codec, BatchMessagesRoundTrip) { expect_round_trips<BatchWire>(); }

TEST(Codec, BatchDecoderRejectsTruncationAndGarbage) {
  expect_strict<BatchWire>();
  EXPECT_FALSE(decode_batch(std::vector<std::uint8_t>{0x7F}).has_value());
  EXPECT_FALSE(decode_batch(std::vector<std::uint8_t>{0}).has_value());
  // A payload count pointing past the buffer must fail cleanly, not read it.
  EXPECT_FALSE(
      decode_batch(raw(std::uint8_t{1}, (std::int64_t{1} << 39) | 1, 1'000'000)).has_value());
}

TEST(Codec, BatchDecoderSurvivesFuzz) { expect_fuzz_round_trips<BatchWire>(0xBA7C4, 40); }

// ---- reconfiguration + failure-detector frames ----

TEST(Codec, ConfigMessagesRoundTrip) { expect_round_trips<ConfigWire>(); }

TEST(Codec, ConfigDecoderRejectsTruncationAndGarbage) {
  expect_strict<ConfigWire>();
  EXPECT_FALSE(decode_config(std::vector<std::uint8_t>{0x7F}).has_value());
  EXPECT_FALSE(decode_config(std::vector<std::uint8_t>{0}).has_value());
  const std::int64_t handle = (std::int64_t{3} << 38) | 7;
  // An op byte outside the enum must fail, not reinterpret (kRemove is 1).
  EXPECT_FALSE(decode_config(raw(std::uint8_t{1}, handle, std::uint8_t{2}, 5, std::string("h"), 80))
                   .has_value());
  // A host length pointing past the buffer must fail cleanly, not read it.
  EXPECT_FALSE(decode_config(raw(std::uint8_t{1}, handle, std::uint8_t{0}, 5, 1'000'000))
                   .has_value());
}

TEST(Codec, HeartbeatAndHandoverRoundTrip) {
  expect_round_trips<HeartbeatWire>();
  expect_round_trips<HandoverWire>();
}

TEST(Codec, CatchupRoundTrip) { expect_round_trips<CatchupWire>(); }

TEST(Codec, CatchupRejectsTruncationAndGarbage) {
  expect_strict<CatchupWire>();
  // Negative or oversize sender, negative applied prefix: the writer would
  // never produce them.
  EXPECT_FALSE(decode_catchup(raw(-1, 0)).has_value());
  EXPECT_FALSE(decode_catchup(raw(std::int64_t{1} << 40, 0)).has_value());
  EXPECT_FALSE(decode_catchup(raw(0, -1)).has_value());
}

TEST(Codec, HeartbeatAndHandoverRejectTruncationAndGarbage) {
  expect_strict<HeartbeatWire>();
  expect_strict<HandoverWire>();
  // Negative or oversize sender, negative version.
  for (const auto& bytes : {raw(-1, 0), raw(std::int64_t{1} << 40, 0), raw(1, -3)}) {
    EXPECT_FALSE(decode_heartbeat(bytes).has_value());
    EXPECT_FALSE(decode_handover(bytes).has_value());
  }
}

TEST(Codec, ConfigCommandRoundTrip) {
  expect_round_trips<ConfigCommandWire>();
  // A host past 127 bytes takes a two-byte length varint.
  const ConfigCommand big{std::numeric_limits<std::int64_t>::max(),
                          {rsm::ConfigChange::Op::kAdd,
                           std::numeric_limits<consensus::ProcessId>::max(),
                           std::string(300, 'h'), 65535}};
  EXPECT_EQ(decode_config_command(encode(big)), big);
}

TEST(Codec, ConfigCommandRejectsTruncationAndGarbage) {
  expect_strict<ConfigCommandWire>();
  // Negative correlation id, out-of-range port, bad op byte.
  const std::string h = "h";
  EXPECT_FALSE(decode_config_command(raw(-1, std::uint8_t{0}, 5, h, 80)).has_value());
  EXPECT_FALSE(decode_config_command(raw(1, std::uint8_t{0}, 5, h, 70'000)).has_value());
  EXPECT_FALSE(decode_config_command(raw(1, std::uint8_t{9}, 5, h, 80)).has_value());
}

// ---- trace-context propagation and stats scrape frames ----

std::vector<obs::TraceContext> sample_traces() {
  return {{1, 0, 0},
          {42, 7, 1'000'000},
          {(std::uint64_t{1000} << 40) | 3, (std::uint64_t{2} << 40) | 1, 123'456'789},
          {std::numeric_limits<std::uint64_t>::max(),
           std::numeric_limits<std::uint64_t>::max(),
           std::numeric_limits<std::int64_t>::max()}};
}

TEST(Codec, TraceContextRoundTrips) {
  // Both the inactive default and every active sample, back to back in one
  // buffer (the runtime appends a trace after regular fields).
  Writer w;
  write(w, obs::TraceContext{});
  for (const auto& t : sample_traces()) write(w, t);
  Reader r{w.bytes()};
  obs::TraceContext back{1, 1, 1};
  read(r, back);
  EXPECT_FALSE(back.active());
  for (const auto& t : sample_traces()) {
    read(r, back);
    EXPECT_EQ(back, t);
  }
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, UntracedClientRequestPaysOneByte) {
  // The documented null-overhead guarantee: an inactive context is a
  // single absent byte; {9, 8, 7} costs exactly three more varint bytes.
  const ClientRequest untraced{1, 42, 0, {}};
  ClientRequest traced = untraced;
  traced.trace = {9, 8, 7};
  EXPECT_EQ(encode(traced).size(), encode(untraced).size() + 3);
  const auto back = decode_client_request(encode(traced));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, traced);
}

TEST(Codec, ClientRequestRejectsBadTraceFlagAndPresentButInactiveTrace) {
  // Flag byte outside {0, 1}.
  auto bytes = encode(ClientRequest{1, 42, 0, {}});
  bytes.back() = 2;
  EXPECT_FALSE(decode_client_request(bytes).has_value());
  // Flag says "trace follows" but the context is the inactive default.
  EXPECT_FALSE(decode_client_request(raw(1, 42, 0, std::uint8_t{1}, obs::TraceContext{}))
                   .has_value());
}

TEST(Codec, TracedFramesRoundTrip) { expect_round_trips<TracedWire>(); }

TEST(Codec, TracedFrameRejectsInactiveContextAndTruncatedHeaders) {
  // A wrapped frame with no active trace would never be sent — reject it.
  EXPECT_FALSE(decode_traced(encode(TracedFrame{4, obs::TraceContext{}, {1, 2, 3}})).has_value());
  // So would inner kind 0 (no such FrameKind).
  EXPECT_FALSE(decode_traced(encode(TracedFrame{0, {1, 2, 3}, {9}})).has_value());
  // Every strict prefix of the header truncates the kind byte or a trace
  // varint and must fail.
  expect_prefixes_rejected<TracedWire>();
}

TEST(Codec, TracedFrameTreatsTheRemainderAsTheInnerPayload) {
  // decode_traced does not parse the inner payload — the nested decoder
  // enforces exhaustion — so appended bytes simply extend `inner`.
  const TracedFrame m{4, {1, 2, 3}, {7, 8}};
  auto bytes = encode(m);
  bytes.push_back(0x00);
  const auto back = decode_traced(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->inner, (std::vector<std::uint8_t>{7, 8, 0x00}));
}

TEST(Codec, StatsFramesRoundTrip) {
  expect_round_trips<StatsRequestWire>();
  expect_round_trips<StatsReplyWire>();
  // Long bodies with embedded quotes/escapes survive.
  const StatsReply big{7, std::string(4096, 'x') + "\"\\\n"};
  EXPECT_EQ(decode_stats_reply(encode(big)), big);
}

TEST(Codec, StatsDecodersRejectTruncationAndGarbage) {
  expect_strict<StatsRequestWire>();
  expect_strict<StatsReplyWire>();
  // A string length pointing past the buffer must fail cleanly.
  EXPECT_FALSE(decode_stats_reply(raw(1, 1'000'000)).has_value());
}

TEST(Codec, SnapshotFramesRoundTrip) {
  expect_round_trips<SnapshotOfferWire>();
  expect_round_trips<SnapshotRequestWire>();
  expect_round_trips<SnapshotChunkWire>();
}

TEST(Codec, SnapshotDecodersRejectTruncationGarbageAndBadGeometry) {
  expect_strict<SnapshotOfferWire>();
  expect_strict<SnapshotRequestWire>();
  expect_strict<SnapshotChunkWire>();
  SnapshotChunk chunk{9, 4, 8, 0, {1, 2, 3, 4}};
  ASSERT_TRUE(decode_snapshot_chunk(encode(chunk)).has_value());
  // A chunk whose bytes spill past its own total_bytes is nonsense the
  // transfer logic must never see.
  chunk.total_bytes = 5;  // offset 4 + 4 data bytes > 5
  EXPECT_FALSE(decode_snapshot_chunk(encode(chunk)).has_value());
  // Negative geometry is rejected wholesale.
  chunk.total_bytes = 8;
  chunk.offset = -1;
  EXPECT_FALSE(decode_snapshot_chunk(encode(chunk)).has_value());
  // A data length pointing past the buffer must fail cleanly.
  EXPECT_FALSE(decode_snapshot_chunk(raw(1, 0, 10, 0, 1'000'000)).has_value());
}

TEST(Codec, AllDecodersSurviveTheSameFuzzStream) {
  for_each_codec([]<class C>() { expect_fuzz_round_trips<C>(0xFEEDC0DE, 32); });
}

}  // namespace
}  // namespace twostep::codec
