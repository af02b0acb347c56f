// Compact binary codec for every message that crosses the wire and every
// record that reaches the disk.
//
// In-process simulation passes messages by value, but the live TCP transport
// (src/transport, src/node) serializes through here: the core protocol's
// messages, the RSM's slot-tagged messages, Fast Paxos's and EPaxos's
// messages, and the client, stats, snapshot and failure-detector frames.
// storage/durable.cpp and the node runtime's snapshot payload reuse the same
// machinery for the WAL records and snapshot blobs.
//
// Each record declares its fields once, in order:
//
//   template <class F> void fields(F& f, core::OneBMsg& m) {
//     f(m.b, m.vbal, m.val, m.proposer, m.decided, m.initial);
//   }
//
// and one generic encoder and one generic decoder walk that list.  A field's
// C++ type (or a kind wrapper around it) picks its encoding and the check
// its decoder applies:
//   - std::int64_t: zigzag LEB128 varint, 1-10 bytes;
//   - other integers (int32, ProcessId, uint16 port): a varint that must fit
//     the type; nonneg(x) also rejects negatives; std::uint64_t is the
//     varint of its bit pattern; std::uint8_t is one raw byte;
//   - bool: one byte, 0 or 1; byte_enum / varint_enum: an enum no larger
//     than its last enumerator;
//   - consensus::Value: presence byte (0 = bottom, 1 = varint follows);
//   - std::string, std::vector<std::uint8_t>: varint length + raw bytes;
//   - other vectors, sets and maps: varint count (no larger than the bytes
//     left, so a corrupt count cannot drive an allocation) + elements;
//   - std::pair and any type with fields(): its fields, inline;
//   - std::variant: a tag byte (alternative index + 1) + the alternative;
//   - Const<K>: a fixed varint (format version, record tag);
//   - if_active(t): presence byte, then t only when t.active();
//   - Rest: the raw remainder of the buffer.
// Checks that span several fields go in one valid(Check, const T&)
// overload per type.  Every decoder is total: any malformed input (unknown
// tag, truncation, oversize varint, a failed check, trailing bytes) yields
// nullopt, never UB.
//
// Adding a message or record means one fields() declaration plus one golden
// vector in tests/golden_vectors.hpp (wire) or tests/test_golden.cpp (disk).
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "consensus/types.hpp"
#include "core/messages.hpp"
#include "epaxos/epaxos.hpp"
#include "fastpaxos/fast_paxos.hpp"
#include "obs/flight.hpp"
#include "rsm/rsm.hpp"

namespace twostep::codec {

// The primitives are defined here, not in codec.cpp, so that the decoders
// the templates below generate in every caller's translation unit can
// inline them (the hot slot and client frames are a handful of varints).

/// Append-only byte sink with varint primitives.
class Writer {
 public:
  void put_u8(std::uint8_t byte) { bytes_.push_back(byte); }

  /// Zigzag + LEB128 varint; encodes any int64 in 1-10 bytes.
  void put_i64(std::int64_t value) {
    std::uint64_t u = (static_cast<std::uint64_t>(value) << 1) ^
                      static_cast<std::uint64_t>(value >> 63);
    while (u >= 0x80) {
      bytes_.push_back(static_cast<std::uint8_t>(u) | 0x80);
      u >>= 7;
    }
    bytes_.push_back(static_cast<std::uint8_t>(u));
  }

  /// Presence byte (0 = bottom) + payload varint.
  void put_value(consensus::Value v) {
    put_u8(v.is_bottom() ? 0 : 1);
    if (!v.is_bottom()) put_i64(v.get());
  }

  /// Length-prefixed byte string: varint length + raw bytes.
  void put_string(std::string_view s);

  /// Raw bytes, no length prefix.
  void put_raw(std::span<const std::uint8_t> bytes) {
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked cursor over an encoded buffer.  All getters return
/// defaults once `ok()` turns false; callers check ok() at the end.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t get_u8() {
    if (!ok_ || pos_ >= data_.size()) {
      ok_ = false;
      return 0;
    }
    return data_[pos_++];
  }

  std::int64_t get_i64() {
    std::uint64_t u = 0;
    for (int shift = 0;; shift += 7) {
      if (!ok_ || pos_ >= data_.size() || shift > 63) {
        ok_ = false;
        return 0;
      }
      const std::uint8_t byte = data_[pos_++];
      u |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
    }
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));  // unzigzag
  }

  /// Presence byte (0 = bottom, 1 = value follows, anything else fails).
  consensus::Value get_value() {
    const std::uint8_t present = get_u8();
    if (present > 1) ok_ = false;
    if (present != 1) return consensus::Value::bottom();
    return consensus::Value{get_i64()};
  }

  /// Length-prefixed byte string; fails on a length that overruns the
  /// buffer (so truncation can never allocate unbounded memory).
  std::string get_string();
  /// Length-prefixed raw bytes, as a view into the buffer; same checks.
  std::span<const std::uint8_t> get_bytes();
  /// Consumes and returns everything left.
  std::span<const std::uint8_t> get_rest();

  /// Marks the input malformed (a decoded value failed its check).
  void fail() noexcept { ok_ = false; }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// True iff every byte has been consumed (trailing garbage is an error).
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  /// Bytes consumed so far.
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- field kinds: wrappers that pick an encoding or add a check ----

/// An integer varint that must decode into [lo, largest I].
template <std::integral I>
struct Ranged {
  I& v;
  std::int64_t lo;
};

/// A non-negative integer: rejects negative and out-of-type varints.
template <std::integral I>
Ranged<I> nonneg(I& v) {
  return {v, 0};
}

/// An enum stored as one byte (kByte) or as a varint, at most `max`.
template <class E, bool kByte>
struct EnumField {
  E& v;
  E max;
};

template <class E>
EnumField<E, true> byte_enum(E& v, E max) {
  return {v, max};
}
template <class E>
EnumField<E, false> varint_enum(E& v, E max) {
  return {v, max};
}

/// A fixed varint (format version or record tag); any other value fails.
template <std::int64_t K>
struct Const {};

/// A presence byte, then `v` only when v.active(); a value that is present
/// must be active (an inactive one would have been sent absent).
template <class T>
struct IfActive {
  T& v;
};

template <class T>
IfActive<T> if_active(T& v) {
  return {v};
}

/// The raw remainder of the buffer (a nested frame decoded elsewhere).
struct Rest {
  std::vector<std::uint8_t>& v;
};

/// A counted list whose elements are declared by `decl(f, element)`
/// instead of by the element type's own fields().
template <class C, class D>
struct Each {
  C& c;
  D decl;
};

template <class C, class D>
Each<C, D> each(C& c, D decl) {
  return {c, decl};
}

/// Tag for the cross-field check overloads: valid(Check{}, record) runs
/// after a record's fields decode; the fallback accepts everything.
struct Check {};

template <class T>
constexpr bool valid(Check, const T&) {
  return true;
}

// ---- the generic encoder and decoder ----

template <class T>
void write(Writer& w, const T& m);
template <class T>
void read(Reader& r, T& m);

/// Walks a fields() list, writing each field.  (In this namespace so that
/// a call fields(f, record) finds the declarations below by lookup on f.)
struct Encoder {
  Writer& w;
  template <class... Fs>
  void operator()(const Fs&... fs) {
    (write(w, fs), ...);
  }
};

/// Walks a fields() list, reading each field (once the reader has failed,
/// every further read returns a default and the record is discarded).
struct Decoder {
  Reader& r;
  template <class... Fs>
  void operator()(Fs&&... fs) {
    (read(r, fs), ...);
  }
};

namespace detail {

template <class T>
concept Variant = requires { std::variant_size<T>::value; };
template <class T>
concept Pair = requires(T p) { p.first; p.second; };
/// Strings and byte vectors are matched before this, as length + bytes.
template <class T>
concept List = std::ranges::range<T>;

/// A list element as decoded: a map's value_type minus its const key.
template <class T>
struct Unconst {
  using type = T;
};
template <class K, class V>
struct Unconst<std::pair<const K, V>> {
  using type = std::pair<K, V>;
};
template <class C>
using Element = typename Unconst<typename C::value_type>::type;

template <class C, class ReadOne>
void read_list(Reader& r, C& c, ReadOne read_one) {
  const std::int64_t count = r.get_i64();
  // Every element takes at least one byte, so a count beyond what is left
  // is malformed: reject it before reserving memory.
  if (!r.ok() || count < 0 || static_cast<std::uint64_t>(count) > r.remaining()) return r.fail();
  c.clear();
  if constexpr (requires { c.resize(std::size_t{}); }) {
    c.resize(static_cast<std::size_t>(count));
    for (auto& e : c) read_one(e);  // after a failure the reads return defaults
  } else {
    for (std::int64_t i = 0; i < count && r.ok(); ++i) {
      Element<C> e{};
      read_one(e);
      c.insert(std::move(e));
    }
  }
}

}  // namespace detail

/// Writes the alternative `v` holds, as one of the tag space `Alts`: a tag
/// byte (its index in Alts + 1), then its fields.  `v` must hold one of Alts.
template <class... Alts, class V>
void write_tagged(Writer& w, const V& v) {
  std::uint8_t tag = 1;
  ((std::holds_alternative<Alts>(v) ? (w.put_u8(tag), write(w, std::get<Alts>(v))) : void(++tag)),
   ...);
}

/// Reads one alternative of the tag space `Alts` into `v`; an unknown tag
/// fails the reader.
template <class... Alts, class V>
void read_tagged(Reader& r, V& v) {
  const std::uint8_t tag = r.get_u8();
  std::uint8_t next = 1;
  const bool known = ((tag == next++ ? (read(r, v.template emplace<Alts>()), true) : false) || ...);
  if (!known) r.fail();
}

template <class T>
void write(Writer& w, const T& m) {
  if constexpr (std::same_as<T, bool>) {
    w.put_u8(m ? 1 : 0);
  } else if constexpr (std::same_as<T, std::uint8_t>) {
    w.put_u8(m);
  } else if constexpr (std::integral<T>) {
    w.put_i64(static_cast<std::int64_t>(m));
  } else if constexpr (std::same_as<T, consensus::Value>) {
    w.put_value(m);
  } else if constexpr (std::same_as<T, std::string>) {
    w.put_string(m);
  } else if constexpr (std::same_as<T, std::vector<std::uint8_t>>) {
    w.put_i64(static_cast<std::int64_t>(m.size()));
    w.put_raw(m);
  } else if constexpr (detail::List<T>) {
    w.put_i64(static_cast<std::int64_t>(m.size()));
    for (const auto& e : m) write(w, e);
  } else if constexpr (detail::Pair<T>) {
    write(w, m.first);
    write(w, m.second);
  } else if constexpr (detail::Variant<T>) {
    w.put_u8(static_cast<std::uint8_t>(m.index() + 1));
    std::visit([&](const auto& alt) { write(w, alt); }, m);
  } else {
    Encoder enc{w};
    fields(enc, const_cast<T&>(m));  // encoding never writes through it
  }
}

template <std::integral I>
void write(Writer& w, const Ranged<I>& f) {
  w.put_i64(static_cast<std::int64_t>(f.v));
}

template <class E, bool kByte>
void write(Writer& w, const EnumField<E, kByte>& f) {
  if constexpr (kByte)
    w.put_u8(static_cast<std::uint8_t>(f.v));
  else
    w.put_i64(static_cast<std::int64_t>(f.v));
}

template <std::int64_t K>
void write(Writer& w, const Const<K>&) {
  w.put_i64(K);
}

template <class T>
void write(Writer& w, const IfActive<T>& f) {
  w.put_u8(f.v.active() ? 1 : 0);
  if (f.v.active()) write(w, f.v);
}

inline void write(Writer& w, const Rest& f) { w.put_raw(f.v); }

template <class C, class D>
void write(Writer& w, const Each<C, D>& f) {
  w.put_i64(static_cast<std::int64_t>(f.c.size()));
  Encoder enc{w};
  for (auto& e : f.c) f.decl(enc, e);
}

template <class T>
void read(Reader& r, T& m) {
  if constexpr (std::same_as<T, bool>) {
    const std::uint8_t byte = r.get_u8();
    if (byte > 1) r.fail();
    m = byte == 1;
  } else if constexpr (std::same_as<T, std::uint8_t>) {
    m = r.get_u8();
  } else if constexpr (std::same_as<T, std::int64_t>) {
    m = r.get_i64();
  } else if constexpr (std::same_as<T, std::uint64_t>) {
    m = static_cast<std::uint64_t>(r.get_i64());
  } else if constexpr (std::integral<T>) {
    Ranged<T> ranged{m, std::numeric_limits<T>::min()};
    read(r, ranged);
  } else if constexpr (std::same_as<T, consensus::Value>) {
    m = r.get_value();
  } else if constexpr (std::same_as<T, std::string>) {
    m = r.get_string();
  } else if constexpr (std::same_as<T, std::vector<std::uint8_t>>) {
    const auto bytes = r.get_bytes();
    m.assign(bytes.begin(), bytes.end());
  } else if constexpr (detail::List<T>) {
    detail::read_list(r, m, [&](auto& e) { read(r, e); });
  } else if constexpr (detail::Pair<T>) {
    read(r, m.first);
    read(r, m.second);
  } else if constexpr (detail::Variant<T>) {
    [&]<class... Alts>(std::variant<Alts...>*) { read_tagged<Alts...>(r, m); }(
        static_cast<T*>(nullptr));
  } else {
    Decoder dec{r};
    fields(dec, m);
    if (r.ok() && !valid(Check{}, m)) r.fail();
  }
}

template <std::integral I>
void read(Reader& r, Ranged<I>& f) {
  const std::int64_t v = r.get_i64();
  if (v < f.lo || v > static_cast<std::int64_t>(std::numeric_limits<I>::max())) return r.fail();
  f.v = static_cast<I>(v);
}

template <class E, bool kByte>
void read(Reader& r, EnumField<E, kByte>& f) {
  const std::int64_t v = kByte ? r.get_u8() : r.get_i64();
  if (v < 0 || v > static_cast<std::int64_t>(f.max)) return r.fail();
  f.v = static_cast<E>(v);
}

template <std::int64_t K>
void read(Reader& r, Const<K>&) {
  if (r.get_i64() != K) r.fail();
}

template <class T>
void read(Reader& r, IfActive<T>& f) {
  const std::uint8_t present = r.get_u8();
  if (present > 1) return r.fail();
  f.v = T{};
  if (present == 1) {
    read(r, f.v);
    if (!f.v.active()) r.fail();
  }
}

inline void read(Reader& r, Rest& f) {
  const auto rest = r.get_rest();
  f.v.assign(rest.begin(), rest.end());
}

template <class C, class D>
void read(Reader& r, Each<C, D>& f) {
  Decoder dec{r};
  detail::read_list(r, f.c, [&](auto& e) { f.decl(dec, e); });
}

/// Encodes one record into a fresh buffer.
template <class T>
std::vector<std::uint8_t> to_bytes(const T& m) {
  Writer w;
  write(w, m);
  return std::move(w).take();
}

/// Decodes one record that must span all of `data`; false on any
/// malformed input (then `out` holds partial garbage).
template <class T>
bool from_bytes(std::span<const std::uint8_t> data, T&& out) {
  Reader r{data};
  read(r, out);
  return r.ok() && r.exhausted();
}

template <class T>
std::optional<T> from_bytes(std::span<const std::uint8_t> data) {
  T out{};
  if (!from_bytes(data, out)) return std::nullopt;
  return out;
}

// ---- client frames (the request/reply path of the live node runtime) ----

/// A client command: `id` correlates the reply, `payload` is the proposed
/// value (single-shot protocols) or the RSM command payload (< 2^40).
/// `client_id` names the session across reconnects: a failover client
/// resends under the same (client_id, id) pair, and the server's dedup
/// table uses it to answer retries idempotently.  0 means "no session"
/// (no dedup; the pre-failover behavior).
/// `trace` is the optional flight-recorder context (see obs/flight.hpp):
/// trace_id == 0 (the default) encodes as a single absent byte, so
/// untraced requests pay one byte and no trace machinery.
struct ClientRequest {
  std::int64_t id = 0;
  std::int64_t payload = 0;
  std::int64_t client_id = 0;
  obs::TraceContext trace;
  friend bool operator==(const ClientRequest&, const ClientRequest&) = default;
};

/// The server's answer: `value` is the decided value (single-shot) or the
/// committed command (RSM), `slot` the RSM log position (-1 for single-shot
/// consensus), `ok` false when the request was rejected (e.g. an RSM
/// payload outside the 40-bit command range).
struct ClientReply {
  std::int64_t id = 0;
  std::int64_t value = 0;
  std::int32_t slot = -1;
  bool ok = true;
  friend bool operator==(const ClientReply&, const ClientReply&) = default;
};

/// A protocol frame with a trace context attached: the runtime wraps its
/// regular frame payload (`inner`, whose FrameKind is `inner_kind`) rather
/// than extending every protocol codec.  Decoding requires an active
/// context (trace_id != 0) — an inactive one would never be sent wrapped.
struct TracedFrame {
  std::uint8_t inner_kind = 0;
  obs::TraceContext trace;
  std::vector<std::uint8_t> inner;
  friend bool operator==(const TracedFrame&, const TracedFrame&) = default;
};

// ---- stats scrape frames (`twostep stats <endpoint>`) ----

/// Asks a running node for a metrics snapshot; `id` correlates the reply.
struct StatsRequest {
  std::int64_t id = 0;
  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
};

/// The node's answer: the JSON snapshot produced on its loop thread.
struct StatsReply {
  std::int64_t id = 0;
  std::string json;
  friend bool operator==(const StatsReply&, const StatsReply&) = default;
};

// ---- snapshot state transfer (kSnapshotOffer/Request/Chunk frames) ----

/// Announcement that the sender holds a durable snapshot with compaction
/// floor `floor`, `bytes` payload bytes long.  Broadcast after every new
/// snapshot and resent on link (re)establishment; a replica whose applied
/// prefix is below the floor answers with a SnapshotRequest.
struct SnapshotOffer {
  std::int64_t floor = 0;
  std::int64_t bytes = 0;
  friend bool operator==(const SnapshotOffer&, const SnapshotOffer&) = default;
};

/// Chunked fetch of the offered snapshot.  `floor` names the snapshot
/// generation being fetched (a stale request against a newer snapshot is
/// answered with the newer offer instead); `offset` is the first payload
/// byte wanted — retries resume from the bytes already received.
struct SnapshotRequest {
  std::int64_t floor = 0;
  std::int64_t offset = 0;
  friend bool operator==(const SnapshotRequest&, const SnapshotRequest&) = default;
};

/// One chunk of the snapshot payload.  `total_bytes` and `crc` (CRC-32 of
/// the *complete* payload) repeat in every chunk so the receiver can
/// verify the assembled blob no matter which chunk arrives last.
struct SnapshotChunk {
  std::int64_t floor = 0;
  std::int64_t offset = 0;
  std::int64_t total_bytes = 0;
  std::int64_t crc = 0;
  std::vector<std::uint8_t> data;
  friend bool operator==(const SnapshotChunk&, const SnapshotChunk&) = default;
};

// ---- failure-detector frames (live Ω hosting) ----

/// Periodic liveness beacon.  `from` is the sender (the frame can arrive
/// before the Hello handshake names the inbound side) and `version` its
/// current config version — a peer that sees a higher version than its own
/// knows it is behind.
struct Heartbeat {
  consensus::ProcessId from = 0;
  std::int32_t version = 0;
  friend bool operator==(const Heartbeat&, const Heartbeat&) = default;
};

/// Leadership announcement: `from` considers itself the Ω leader (lowest
/// unsuspected member) under config `version`.  Receivers adopt the claim
/// when it is consistent with their own suspicions.
struct Handover {
  consensus::ProcessId from = 0;
  std::int32_t version = 0;
  friend bool operator==(const Handover&, const Handover&) = default;
};

/// Applied-prefix gossip, sent on a slow timer.  A peer whose own applied
/// prefix is ahead answers with its snapshot offer plus a resend of the
/// Decides above the gossiped prefix — the periodic arm of anti-entropy,
/// for holes punched by frame loss on a connection that never
/// re-establishes (reconnect anti-entropy never fires) after the last
/// checkpoint (no fresh snapshot offer either).
struct Catchup {
  consensus::ProcessId from = 0;
  std::int64_t applied = 0;
  friend bool operator==(const Catchup&, const Catchup&) = default;
};

// ---- admin frames (`twostep join` / `twostep leave`) ----

/// Asks the receiving node to drive a membership change through the log;
/// `id` correlates the ClientReply-style acknowledgement.
struct ConfigCommand {
  std::int64_t id = 0;
  rsm::ConfigChange change;
  friend bool operator==(const ConfigCommand&, const ConfigCommand&) = default;
};

// ---- field declarations of every wire record ----

template <class F> void fields(F& f, core::ProposeMsg& m) { f(m.v); }
template <class F> void fields(F& f, core::OneAMsg& m) { f(m.b); }
template <class F> void fields(F& f, core::OneBMsg& m) {
  f(m.b, m.vbal, m.val, m.proposer, m.decided, m.initial);
}
template <class F> void fields(F& f, core::TwoAMsg& m) { f(m.b, m.v); }
template <class F> void fields(F& f, core::TwoBMsg& m) { f(m.b, m.v); }
template <class F> void fields(F& f, core::DecideMsg& m) { f(m.v); }

template <class F> void fields(F& f, rsm::SlotMsg& m) { f(m.slot, nonneg(m.cfg), m.inner); }
template <class F> void fields(F& f, rsm::BatchContentMsg& m) { f(m.cmd, m.payloads); }
template <class F> void fields(F& f, rsm::BatchFetchMsg& m) { f(m.cmd); }
template <class F> void fields(F& f, rsm::ConfigChange& c) {
  f(byte_enum(c.op, rsm::ConfigChange::Op::kRemove), nonneg(c.replica), c.host, c.port);
}
template <class F> void fields(F& f, rsm::ConfigChangeMsg& m) { f(m.cmd, m.change); }
template <class F> void fields(F& f, rsm::ConfigFetchMsg& m) { f(m.cmd); }

template <class F> void fields(F& f, fastpaxos::FastProposeMsg& m) { f(m.v); }
template <class F> void fields(F& f, fastpaxos::PrepareMsg& m) { f(m.b); }
template <class F> void fields(F& f, fastpaxos::PromiseMsg& m) {
  f(m.b, m.vbal, m.vval, m.initial);
}
template <class F> void fields(F& f, fastpaxos::AcceptMsg& m) { f(m.b, m.v); }
template <class F> void fields(F& f, fastpaxos::AcceptedMsg& m) { f(m.b, m.v); }

// An instance id with a negative part names no instance: nonneg rejects it,
// as the subject of a message and as a dependency alike.
template <class F> void fields(F& f, epaxos::InstanceId& id) {
  f(nonneg(id.replica), nonneg(id.index));
}
template <class F> void fields(F& f, epaxos::Command& c) { f(c.key, c.payload); }
template <class F> void fields(F& f, epaxos::PreAcceptMsg& m) {
  f(m.instance, m.ballot, m.cmd, m.deps, m.seq);
}
template <class F> void fields(F& f, epaxos::PreAcceptReplyMsg& m) {
  f(m.instance, m.ballot, m.deps, m.seq, m.changed);
}
template <class F> void fields(F& f, epaxos::AcceptMsg& m) {
  f(m.instance, m.ballot, m.cmd, m.deps, m.seq);
}
template <class F> void fields(F& f, epaxos::AcceptReplyMsg& m) { f(m.instance, m.ballot); }
template <class F> void fields(F& f, epaxos::CommitMsg& m) { f(m.instance, m.cmd, m.deps, m.seq); }
template <class F> void fields(F& f, epaxos::PrepareMsg& m) { f(m.instance, m.ballot); }
template <class F> void fields(F& f, epaxos::PrepareReplyMsg& m) {
  f(m.instance, m.ballot, byte_enum(m.status, epaxos::Status::kExecuted), m.cmd, m.deps, m.seq);
}

template <class F> void fields(F& f, obs::TraceContext& t) {
  f(t.trace_id, t.parent_span, t.origin_us);
}
template <class F> void fields(F& f, ClientRequest& m) {
  f(m.id, m.payload, m.client_id, if_active(m.trace));
}
template <class F> void fields(F& f, ClientReply& m) { f(m.id, m.value, m.slot, m.ok); }
template <class F> void fields(F& f, TracedFrame& m) { f(m.inner_kind, m.trace, Rest{m.inner}); }
template <class F> void fields(F& f, StatsRequest& m) { f(m.id); }
template <class F> void fields(F& f, StatsReply& m) { f(m.id, m.json); }
template <class F> void fields(F& f, SnapshotOffer& m) { f(nonneg(m.floor), nonneg(m.bytes)); }
template <class F> void fields(F& f, SnapshotRequest& m) { f(nonneg(m.floor), nonneg(m.offset)); }
template <class F> void fields(F& f, SnapshotChunk& m) {
  f(nonneg(m.floor), nonneg(m.offset), nonneg(m.total_bytes), m.crc, m.data);
}
template <class F> void fields(F& f, Heartbeat& m) { f(nonneg(m.from), nonneg(m.version)); }
template <class F> void fields(F& f, Handover& m) { f(nonneg(m.from), nonneg(m.version)); }
template <class F> void fields(F& f, Catchup& m) { f(nonneg(m.from), nonneg(m.applied)); }
template <class F> void fields(F& f, ConfigCommand& m) { f(nonneg(m.id), m.change); }

/// A wrapped frame always carries a real frame kind and an active trace.
inline bool valid(Check, const TracedFrame& m) { return m.inner_kind != 0 && m.trace.active(); }

/// A chunk must lie inside the payload it claims to be part of (offset and
/// total are already known non-negative, so the difference cannot overflow).
inline bool valid(Check, const SnapshotChunk& m) {
  return m.offset <= m.total_bytes &&
         m.data.size() <= static_cast<std::uint64_t>(m.total_bytes - m.offset);
}

// ---- the public entry points: one encoder and one total decoder per frame ----

using Bytes = std::span<const std::uint8_t>;

inline std::vector<std::uint8_t> encode(const core::Message& m) { return to_bytes(m); }
inline std::optional<core::Message> decode(Bytes b) { return from_bytes<core::Message>(b); }

inline std::vector<std::uint8_t> encode(const rsm::SlotMsg& m) { return to_bytes(m); }
inline std::optional<rsm::SlotMsg> decode_slot(Bytes b) { return from_bytes<rsm::SlotMsg>(b); }

/// The kBatch and kConfig frames carry the RSM's sidecars, each in its own
/// tag space over a slice of rsm::Msg (precondition: `m` holds one of them;
/// slot traffic travels in kSlot frames).
std::vector<std::uint8_t> encode_batch(const rsm::Msg& m);
std::optional<rsm::Msg> decode_batch(Bytes b);
std::vector<std::uint8_t> encode_config(const rsm::Msg& m);
std::optional<rsm::Msg> decode_config(Bytes b);

inline std::vector<std::uint8_t> encode(const fastpaxos::Message& m) { return to_bytes(m); }
inline std::optional<fastpaxos::Message> decode_fastpaxos(Bytes b) {
  return from_bytes<fastpaxos::Message>(b);
}

inline std::vector<std::uint8_t> encode(const epaxos::Message& m) { return to_bytes(m); }
inline std::optional<epaxos::Message> decode_epaxos(Bytes b) {
  return from_bytes<epaxos::Message>(b);
}

inline std::vector<std::uint8_t> encode(const ClientRequest& m) { return to_bytes(m); }
inline std::optional<ClientRequest> decode_client_request(Bytes b) {
  return from_bytes<ClientRequest>(b);
}

inline std::vector<std::uint8_t> encode(const ClientReply& m) { return to_bytes(m); }
inline std::optional<ClientReply> decode_client_reply(Bytes b) {
  return from_bytes<ClientReply>(b);
}

inline std::vector<std::uint8_t> encode(const TracedFrame& m) { return to_bytes(m); }
inline std::optional<TracedFrame> decode_traced(Bytes b) { return from_bytes<TracedFrame>(b); }

inline std::vector<std::uint8_t> encode(const StatsRequest& m) { return to_bytes(m); }
inline std::optional<StatsRequest> decode_stats_request(Bytes b) {
  return from_bytes<StatsRequest>(b);
}

inline std::vector<std::uint8_t> encode(const StatsReply& m) { return to_bytes(m); }
inline std::optional<StatsReply> decode_stats_reply(Bytes b) { return from_bytes<StatsReply>(b); }

inline std::vector<std::uint8_t> encode(const SnapshotOffer& m) { return to_bytes(m); }
inline std::optional<SnapshotOffer> decode_snapshot_offer(Bytes b) {
  return from_bytes<SnapshotOffer>(b);
}

inline std::vector<std::uint8_t> encode(const SnapshotRequest& m) { return to_bytes(m); }
inline std::optional<SnapshotRequest> decode_snapshot_request(Bytes b) {
  return from_bytes<SnapshotRequest>(b);
}

inline std::vector<std::uint8_t> encode(const SnapshotChunk& m) { return to_bytes(m); }
inline std::optional<SnapshotChunk> decode_snapshot_chunk(Bytes b) {
  return from_bytes<SnapshotChunk>(b);
}

inline std::vector<std::uint8_t> encode(const Heartbeat& m) { return to_bytes(m); }
inline std::optional<Heartbeat> decode_heartbeat(Bytes b) { return from_bytes<Heartbeat>(b); }

inline std::vector<std::uint8_t> encode(const Handover& m) { return to_bytes(m); }
inline std::optional<Handover> decode_handover(Bytes b) { return from_bytes<Handover>(b); }

inline std::vector<std::uint8_t> encode(const Catchup& m) { return to_bytes(m); }
inline std::optional<Catchup> decode_catchup(Bytes b) { return from_bytes<Catchup>(b); }

inline std::vector<std::uint8_t> encode(const ConfigCommand& m) { return to_bytes(m); }
inline std::optional<ConfigCommand> decode_config_command(Bytes b) {
  return from_bytes<ConfigCommand>(b);
}

}  // namespace twostep::codec
