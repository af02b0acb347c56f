// Transport layer: wire framing, the epoll event loop, and framed TCP
// connections with reconnect over loopback.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <initializer_list>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "transport/chaos.hpp"
#include "transport/event_loop.hpp"
#include "transport/tcp.hpp"
#include "transport/wire.hpp"

namespace twostep {
namespace {

using transport::Frame;
using transport::FrameKind;
using transport::FrameParser;

std::vector<std::uint8_t> bytes(std::initializer_list<int> xs) {
  std::vector<std::uint8_t> out;
  for (int x : xs) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

// ---- framing --------------------------------------------------------------

TEST(TransportWire, RoundTripsSingleFrame) {
  const auto payload = bytes({1, 2, 3, 4, 5});
  const auto frame = transport::make_frame(FrameKind::kCore, payload);
  ASSERT_EQ(frame.size(), transport::kHeaderSize + payload.size());

  FrameParser parser;
  ASSERT_TRUE(parser.feed(frame));
  const auto parsed = parser.next();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, FrameKind::kCore);
  EXPECT_EQ(parsed->payload, payload);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_FALSE(parser.failed());
}

TEST(TransportWire, ReassemblesFromSingleByteFeeds) {
  std::vector<std::uint8_t> stream;
  transport::append_frame(stream, FrameKind::kHello, transport::encode_hello(3));
  transport::append_frame(stream, FrameKind::kClientRequest, bytes({42}));
  transport::append_frame(stream, FrameKind::kClientReply, {});  // empty payload

  FrameParser parser;
  std::vector<Frame> frames;
  for (const std::uint8_t b : stream) {
    ASSERT_TRUE(parser.feed({&b, 1}));
    while (auto f = parser.next()) frames.push_back(std::move(*f));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].kind, FrameKind::kHello);
  EXPECT_EQ(transport::decode_hello(frames[0].payload), 3);
  EXPECT_EQ(frames[1].kind, FrameKind::kClientRequest);
  EXPECT_EQ(frames[1].payload, bytes({42}));
  EXPECT_EQ(frames[2].kind, FrameKind::kClientReply);
  EXPECT_TRUE(frames[2].payload.empty());
}

TEST(TransportWire, RejectsBadMagic) {
  auto frame = transport::make_frame(FrameKind::kCore, bytes({1}));
  frame[0] = 'X';
  FrameParser parser;
  EXPECT_FALSE(parser.feed(frame));
  EXPECT_TRUE(parser.failed());
  EXPECT_FALSE(parser.next().has_value());
  // Sticky: even valid follow-up data is refused.
  EXPECT_FALSE(parser.feed(transport::make_frame(FrameKind::kCore, bytes({1}))));
}

TEST(TransportWire, RejectsUnknownVersion) {
  auto frame = transport::make_frame(FrameKind::kCore, bytes({1}));
  frame[2] = 9;
  FrameParser parser;
  EXPECT_FALSE(parser.feed(frame));
  EXPECT_TRUE(parser.failed());
}

TEST(TransportWire, RejectsUnknownFrameKind) {
  auto frame = transport::make_frame(FrameKind::kCore, bytes({1}));
  frame[3] = 0x7F;
  FrameParser parser;
  EXPECT_FALSE(parser.feed(frame));
  EXPECT_TRUE(parser.failed());
}

TEST(TransportWire, RejectsOversizePayloadLength) {
  std::vector<std::uint8_t> header = {'T', 'S', transport::kWireVersion,
                                      static_cast<std::uint8_t>(FrameKind::kCore),
                                      0xFF, 0xFF, 0xFF, 0x7F};
  FrameParser parser;
  EXPECT_FALSE(parser.feed(header));
  EXPECT_TRUE(parser.failed());
}

TEST(TransportWire, DetectsGarbageBetweenFrames) {
  std::vector<std::uint8_t> stream;
  transport::append_frame(stream, FrameKind::kCore, bytes({1}));
  stream.push_back(0xEE);  // junk where the next header should start
  stream.push_back(0xEE);
  for (std::size_t i = 0; i < transport::kHeaderSize; ++i) stream.push_back(0);

  FrameParser parser;
  parser.feed(stream);
  const auto first = parser.next();
  ASSERT_TRUE(first.has_value());  // the valid frame still comes out
  EXPECT_TRUE(parser.failed());    // then the stream is poisoned
  EXPECT_FALSE(parser.next().has_value());
}

TEST(TransportWire, HelloRejectsMalformedPayloads) {
  EXPECT_FALSE(transport::decode_hello(bytes({})).has_value());
  EXPECT_FALSE(transport::decode_hello(bytes({0x80})).has_value());  // truncated varint
  EXPECT_FALSE(transport::decode_hello(bytes({2, 7})).has_value());  // trailing byte
  // Negative ids are not valid process ids.
  EXPECT_FALSE(transport::decode_hello(transport::encode_hello(-1)).has_value());
  EXPECT_EQ(transport::decode_hello(transport::encode_hello(0)), 0);
  EXPECT_EQ(transport::decode_hello(transport::encode_hello(41)), 41);
}

// ---- event loop -----------------------------------------------------------

TEST(TransportLoop, RunsTimersInDeadlineOrder) {
  transport::EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(3'000, [&] { order.push_back(3); });
  loop.schedule_after(1'000, [&] { order.push_back(1); });
  const std::uint64_t cancelled = loop.schedule_after(2'000, [&] { order.push_back(2); });
  loop.schedule_after(4'000, [&] {
    order.push_back(4);
    loop.request_stop();
  });
  EXPECT_TRUE(loop.cancel_timer(cancelled));
  EXPECT_FALSE(loop.cancel_timer(cancelled));  // already cancelled
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
}

TEST(TransportLoop, PostFromAnotherThreadWakesTheLoop) {
  transport::EventLoop loop;
  std::atomic<int> ran{0};
  std::thread poster([&] {
    for (int i = 0; i < 100; ++i)
      loop.post([&] {
        if (ran.fetch_add(1) + 1 == 100) loop.request_stop();
      });
  });
  loop.run();
  poster.join();
  EXPECT_EQ(ran.load(), 100);
}

TEST(TransportLoop, TimerScheduledFromTimerFires) {
  transport::EventLoop loop;
  int fired = 0;
  loop.schedule_after(0, [&] {
    ++fired;
    loop.schedule_after(0, [&] {
      ++fired;
      loop.request_stop();
    });
  });
  loop.run();
  EXPECT_EQ(fired, 2);
}

// ---- TCP over loopback ----------------------------------------------------

/// Accepts one inbound connection on `loop` and records its frames.
struct FrameSink {
  explicit FrameSink(transport::EventLoop& loop, transport::Endpoint at = {"127.0.0.1", 0})
      : loop(loop), ep(std::move(at)) {
    listen_fd = transport::bind_listener(ep);
    loop.add_fd(listen_fd, EPOLLIN, [this](std::uint32_t) { accept_one(); });
  }
  ~FrameSink() {
    if (listen_fd >= 0) ::close(listen_fd);
  }

  void accept_one() {
    const int cfd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) return;
    conn = std::make_shared<transport::Connection>(loop, cfd, nullptr);
    conn->start([this](Frame&& f) { frames.push_back(std::move(f)); },
                [this] { closed = true; });
  }

  transport::EventLoop& loop;
  transport::Endpoint ep;
  int listen_fd = -1;
  std::shared_ptr<transport::Connection> conn;
  std::vector<Frame> frames;  // loop-thread only
  bool closed = false;
};

TEST(TransportTcp, PeerLinkDeliversHelloThenFrames) {
  transport::EventLoop loop;
  FrameSink sink(loop);
  transport::TransportStats stats;
  transport::PeerLink link(loop, /*self=*/7, /*peer=*/0, sink.ep, &stats);
  link.start();
  link.send_frame(FrameKind::kCore, bytes({10, 11}));
  link.send_frame(FrameKind::kCore, bytes({12}));

  loop.schedule_after(2'000'000, [&] { loop.request_stop(); });  // safety net
  // Poll from inside the loop until all three frames arrived.
  auto check = std::make_shared<std::function<void()>>();
  *check = [&, check] {
    if (sink.frames.size() >= 3)
      loop.request_stop();
    else
      loop.schedule_after(1'000, *check);
  };
  loop.post(*check);
  loop.run();
  *check = nullptr;  // break the self-referencing capture cycle

  ASSERT_EQ(sink.frames.size(), 3u);
  EXPECT_EQ(sink.frames[0].kind, FrameKind::kHello);
  EXPECT_EQ(transport::decode_hello(sink.frames[0].payload), 7);
  EXPECT_EQ(sink.frames[1].payload, bytes({10, 11}));
  EXPECT_EQ(sink.frames[2].payload, bytes({12}));
  EXPECT_TRUE(link.connected());
  link.shutdown();
  EXPECT_FALSE(link.connected());
  EXPECT_GE(stats.frames_sent.load(), 3u);
  EXPECT_EQ(stats.reconnects.load(), 0u);
}

TEST(TransportTcp, PeerLinkQueuesWhileServerIsDownThenReconnects) {
  transport::EventLoop loop;
  transport::TransportStats stats;

  // Reserve a port, then close the listener: the link must back off and
  // queue its frames until a server appears on that port.
  transport::Endpoint ep{"127.0.0.1", 0};
  const int tmp_fd = transport::bind_listener(ep);
  ::close(tmp_fd);

  transport::PeerLink link(loop, /*self=*/1, /*peer=*/0, ep, &stats);
  link.start();
  link.send_frame(FrameKind::kCore, bytes({1}));
  link.send_frame(FrameKind::kCore, bytes({2}));

  std::unique_ptr<FrameSink> sink;
  // Bring the server up after the link has failed at least once.
  loop.schedule_after(50'000, [&] { sink = std::make_unique<FrameSink>(loop, ep); });
  loop.schedule_after(5'000'000, [&] { loop.request_stop(); });  // safety net
  auto check = std::make_shared<std::function<void()>>();
  *check = [&, check] {
    if (sink && sink->frames.size() >= 3)
      loop.request_stop();
    else
      loop.schedule_after(5'000, *check);
  };
  loop.post(*check);
  loop.run();
  *check = nullptr;  // break the self-referencing capture cycle

  ASSERT_TRUE(sink);
  ASSERT_EQ(sink->frames.size(), 3u);
  EXPECT_EQ(sink->frames[0].kind, FrameKind::kHello);
  EXPECT_EQ(transport::decode_hello(sink->frames[0].payload), 1);
  EXPECT_EQ(sink->frames[1].payload, bytes({1}));
  EXPECT_EQ(sink->frames[2].payload, bytes({2}));
  link.shutdown();
}

TEST(TransportTcp, AcceptedSocketsDisableNagle) {
  // Regression guard for the N3 latency audit: the Connection ctor must set
  // TCP_NODELAY on every fd it adopts — dialed AND accepted.  An accepted
  // server-side socket that kept Nagle on would add up to 40 ms of delayed-
  // ACK interaction to every reply, invisible in throughput tests.
  transport::EventLoop loop;
  FrameSink sink(loop);
  transport::TransportStats stats;
  transport::PeerLink link(loop, /*self=*/3, /*peer=*/0, sink.ep, &stats);
  link.start();
  link.send_frame(FrameKind::kCore, bytes({1}));
  loop.schedule_after(2'000'000, [&] { loop.request_stop(); });  // safety net
  auto check = std::make_shared<std::function<void()>>();
  *check = [&, check] {
    if (sink.conn)
      loop.request_stop();
    else
      loop.schedule_after(1'000, *check);
  };
  loop.post(*check);
  loop.run();
  *check = nullptr;
  ASSERT_TRUE(sink.conn) << "no inbound connection accepted";
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(sink.conn->fd(), IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
  EXPECT_EQ(nodelay, 1) << "accepted socket still has Nagle enabled";
  link.shutdown();
}

TEST(TransportLoop, CancelledTimersDoNotInflateTheEpollTimeout) {
  // A cancelled NEAR timer must not hide a FAR live one: cancellation
  // removes the timer at once, so the hint reflects the far one.  At 1 h
  // the hint (3.6e9 µs) is also past INT_MAX, so it must not overflow.
  transport::EventLoop loop;
  const std::uint64_t near = loop.schedule_after(5'000, [] {});
  loop.schedule_after(3'600'000'000, [] {});  // 1 h, effectively "far"
  EXPECT_TRUE(loop.cancel_timer(near));
  const std::int64_t hint = loop.next_timeout_hint_us();
  EXPECT_GT(hint, 3'500'000'000) << "cancelled timer still drives the timeout";
  EXPECT_LE(hint, 3'600'000'000);
}

TEST(TransportLoop, AllTimersCancelledMeansBlockingWait) {
  transport::EventLoop loop;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(loop.schedule_after(1'000 + i, [] {}));
  for (const std::uint64_t id : ids) EXPECT_TRUE(loop.cancel_timer(id));
  EXPECT_EQ(loop.next_timeout_hint_us(), -1) << "no armed timer must block indefinitely";
}

TEST(TransportLoop, SubMillisecondTimeoutIsNotRoundedUp) {
  // The wait until a 250 µs timer is at most 250 µs, not a whole ms.
  transport::EventLoop loop;
  loop.schedule_after(250, [] {});
  const std::int64_t hint = loop.next_timeout_hint_us();
  EXPECT_GT(hint, 0);
  EXPECT_LE(hint, 250);
}

TEST(TransportLoop, SubMillisecondTimersFireInDeadlineOrderAndNeverEarly) {
  transport::EventLoop loop;
  std::vector<std::int64_t> delays;
  std::vector<std::int64_t> early;
  const std::int64_t armed_at = loop.now_us();
  for (const std::int64_t delay : {700, 100, 400, 250, 550}) {
    loop.schedule_after(delay, [&, delay] {
      delays.push_back(delay);
      if (loop.now_us() < armed_at + delay) early.push_back(delay);
    });
  }
  loop.schedule_after(900, [&] { loop.request_stop(); });
  loop.run();
  EXPECT_EQ(delays, (std::vector<std::int64_t>{100, 250, 400, 550, 700}));
  EXPECT_TRUE(early.empty()) << "a timer fired before its deadline";
}

// ---- directed-link blackholes (chaos) -------------------------------------

TEST(ChaosBlackhole, DropsExactlyTheConfiguredDirectionAndWindow) {
  transport::ChaosConfig config;
  config.blackholes.push_back({/*from=*/0, /*to=*/1, /*since_us=*/100, /*heal_us=*/200});
  transport::ChaosInjector at_sender(config, /*self=*/0);
  // Inside the window, 0 -> 1 is dead; 0 -> 2 is untouched.
  EXPECT_TRUE(at_sender.decide(150, 1).dropped());
  EXPECT_FALSE(at_sender.decide(150, 2).dropped());
  // Outside the window the link is healthy in both temporal directions.
  EXPECT_FALSE(at_sender.decide(99, 1).dropped());
  EXPECT_FALSE(at_sender.decide(200, 1).dropped());
  // The reverse direction lives in 1's injector and is NOT configured:
  // asymmetric by construction, unlike a partition.
  transport::ChaosInjector at_receiver(config, /*self=*/1);
  EXPECT_FALSE(at_receiver.decide(150, 0).dropped());
}

TEST(ChaosBlackhole, NegativeHealNeverHeals) {
  transport::ChaosConfig config;
  config.blackholes.push_back({/*from=*/2, /*to=*/0, /*since_us=*/0, /*heal_us=*/-1});
  EXPECT_TRUE(config.enabled());
  transport::ChaosInjector inj(config, /*self=*/2);
  EXPECT_TRUE(inj.decide(0, 0).dropped());
  EXPECT_TRUE(inj.decide(10'000'000, 0).dropped());
  EXPECT_FALSE(inj.decide(10'000'000, 1).dropped());
}

}  // namespace
}  // namespace twostep
