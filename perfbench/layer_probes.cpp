// Standalone layer probes for the traced run: each layer timed alone,
// through its public functions, with no cluster around it.
//
//   codec       encode/decode of every frame kind the live workloads send
//   storage     Wal::append + sync (a write, fsync off) of a slot-sized record
//   transport   EventLoop timer lateness (200 us schedule_after) and
//               cross-thread post -> run latency
//   core        select_value on a slow-path 1B quorum
//   rsm         one slot of the n=3 RSM through DirectDrive, no sockets
//
// Every probe reports the median of several rounds.
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "codec/codec.hpp"
#include "core/selection.hpp"
#include "modelcheck/direct_drive.hpp"
#include "perfbench.hpp"
#include "rsm/rsm.hpp"
#include "storage/wal.hpp"
#include "transport/event_loop.hpp"

namespace perfbench {
namespace {

using twostep::consensus::ProcessId;
using twostep::consensus::SystemConfig;
using twostep::consensus::Value;

constexpr int kRounds = 7;
volatile std::size_t g_sink = 0;  ///< keeps timed results observable

/// Median over rounds of the mean ns per call of `fn` (called `iters` times).
template <typename Fn>
double ns_per_call(int iters, Fn&& fn) {
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    const std::int64_t t0 = mono_ns();
    for (int i = 0; i < iters; ++i) fn(i);
    rounds.push_back(static_cast<double>(mono_ns() - t0) / iters);
  }
  return median(rounds);
}

template <typename Msg, typename Encode, typename Decode>
void probe_codec(Outcome& out, const std::string& kind, const Msg& msg, Encode encode,
                 Decode decode) {
  constexpr int kIters = 20'000;
  out.set("codec.encode_ns." + kind,
          ns_per_call(kIters, [&](int) { g_sink = g_sink + encode(msg).size(); }), "ns");
  const std::vector<std::uint8_t> bytes = encode(msg);
  out.set("codec.decode_ns." + kind, ns_per_call(kIters, [&](int) {
            g_sink = g_sink + (decode(std::span<const std::uint8_t>(bytes)) ? 1 : 0);
          }),
          "ns");
}

void probe_codecs(Outcome& out) {
  namespace codec = twostep::codec;
  namespace core = twostep::core;
  namespace rsm = twostep::rsm;
  const std::int64_t cmd = (std::int64_t{1} << 40) | 123'456'789;
  auto slot_enc = [](const rsm::SlotMsg& m) { return codec::encode(m); };
  auto slot_dec = [](std::span<const std::uint8_t> b) { return codec::decode_slot(b); };
  probe_codec(out, "client_request", codec::ClientRequest{4711, 123'456'789, 987'654'321, {}},
              [](const codec::ClientRequest& m) { return codec::encode(m); },
              [](std::span<const std::uint8_t> b) { return codec::decode_client_request(b); });
  probe_codec(out, "client_reply", codec::ClientReply{4711, cmd, 2'000, true},
              [](const codec::ClientReply& m) { return codec::encode(m); },
              [](std::span<const std::uint8_t> b) { return codec::decode_client_reply(b); });
  probe_codec(out, "propose", rsm::SlotMsg{2'000, 0, core::ProposeMsg{Value{cmd}}}, slot_enc,
              slot_dec);
  probe_codec(out, "vote_2b", rsm::SlotMsg{2'000, 0, core::TwoBMsg{0, Value{cmd}}}, slot_enc,
              slot_dec);
  probe_codec(out, "decide", rsm::SlotMsg{2'000, 0, core::DecideMsg{Value{cmd}}}, slot_enc,
              slot_dec);
  rsm::BatchContentMsg batch;
  batch.cmd = (std::int64_t{1} << 39) | 77;
  for (int i = 0; i < 32; ++i) batch.payloads.push_back(123'456'789 + i);
  probe_codec(out, "batch_content", rsm::Msg{batch},
              [](const rsm::Msg& m) { return codec::encode_batch(m); },
              [](std::span<const std::uint8_t> b) { return codec::decode_batch(b); });
}

void probe_storage(Outcome& out, const std::string& scratch) {
  // 24 bytes: the size of an RSM slot record (slot + acceptor tuple).
  const std::string dir = scratch + "/wal-probe-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  {
    twostep::storage::WalOptions options;
    options.fsync = false;
    twostep::storage::Wal wal(dir, options);
    const std::vector<std::uint8_t> record(24, 0x5a);
    out.set("storage.append_us", ns_per_call(2'000, [&](int) {
              wal.append(record);
              wal.sync();
            }) / 1e3,
            "us");
  }
  std::filesystem::remove_all(dir, ec);
}

void probe_event_loop(Outcome& out) {
  twostep::transport::EventLoop loop;
  std::thread thread([&] { loop.run(); });
  // Timer lateness: each firing arms the next 200 us timer.
  std::vector<double> late;
  std::promise<void> timers_done;
  constexpr int kTimerSamples = 300;
  std::function<void()> arm = [&] {
    const std::int64_t due = loop.now_us() + 200;
    loop.schedule_after(200, [&, due] {
      late.push_back(static_cast<double>(loop.now_us() - due));
      if (static_cast<int>(late.size()) < kTimerSamples) {
        arm();
      } else {
        timers_done.set_value();
      }
    });
  };
  loop.post(arm);
  timers_done.get_future().wait();
  out.set("transport.timer_late_us", median(late), "us");

  // post -> run: the loop idles in epoll_wait between samples.
  std::vector<double> wake;
  for (int i = 0; i < 2'000; ++i) {
    std::promise<void> ran;
    const std::int64_t t0 = mono_ns();
    std::int64_t t1 = 0;
    loop.post([&] {
      t1 = mono_ns();
      ran.set_value();
    });
    ran.get_future().wait();
    wake.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  out.set("transport.post_wake_us", median(wake), "us");
  loop.request_stop();
  thread.join();
}

void probe_select_value(Outcome& out) {
  // A slow-path 1B quorum at n=3, e=1, f=1: two fast votes for different
  // values, so selection walks the threshold branches.
  twostep::core::SelectionInput in;
  in.config = SystemConfig{3, 1, 1};
  in.own_initial = Value{3};
  in.peers.push_back({0, 0, Value{1}, 0, Value{}, Value{1}});
  in.peers.push_back({1, 0, Value{2}, 1, Value{}, Value{2}});
  out.set("core.select_value_ns", ns_per_call(20'000, [&](int) {
            g_sink = g_sink + static_cast<std::size_t>(twostep::core::select_value(in).value.get());
          }),
          "ns");
}

void probe_rsm_slot(Outcome& out) {
  using Drive = twostep::modelcheck::DirectDrive<twostep::rsm::RsmProcess>;
  const SystemConfig cfg{3, 1, 1};
  constexpr int kSlots = 200;
  // A fresh drive per round: undecided-slot timers pile up in a drive.
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    Drive drive(cfg, [cfg](twostep::consensus::Env<twostep::rsm::Msg>& env, ProcessId) {
      twostep::rsm::Options o;
      o.delta = 100'000;
      o.leader_of = [] { return ProcessId{0}; };
      return std::make_unique<twostep::rsm::RsmProcess>(env, cfg, o);
    });
    drive.start_all();
    const std::int64_t t0 = mono_ns();
    for (int i = 1; i <= kSlots; ++i) {
      drive.process(0).submit(i);
      drive.deliver_all();
    }
    rounds.push_back(static_cast<double>(mono_ns() - t0) / kSlots / 1e3);
  }
  out.set("rsm.slot_us", median(rounds), "us");
}

}  // namespace

void probe_layers(Outcome& out, const std::string& scratch) {
  probe_codecs(out);
  probe_storage(out, scratch);
  probe_event_loop(out);
  probe_select_value(out);
  probe_rsm_slot(out);
}

}  // namespace perfbench
