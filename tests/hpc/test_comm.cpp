#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>

#include "hpc/comm.hpp"

namespace bda::hpc {
namespace {

Buffer make_buffer(std::initializer_list<std::uint8_t> bytes) {
  return Buffer(bytes);
}

TEST(Comm, PointToPointDelivers) {
  CommWorld world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, make_buffer({1, 2, 3}));
    } else {
      const Buffer b = comm.recv(0, 7);
      ASSERT_EQ(b.size(), 3u);
      EXPECT_EQ(b[0], 1);
      EXPECT_EQ(b[2], 3);
    }
  });
}

TEST(Comm, TagsKeepMessagesSeparate) {
  CommWorld world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, make_buffer({10}));
      comm.send(1, 2, make_buffer({20}));
    } else {
      // Receive in the opposite order of sending.
      const Buffer b2 = comm.recv(0, 2);
      const Buffer b1 = comm.recv(0, 1);
      EXPECT_EQ(b2[0], 20);
      EXPECT_EQ(b1[0], 10);
    }
  });
}

TEST(Comm, FifoPerSourceAndTag) {
  CommWorld world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (std::uint8_t n = 0; n < 10; ++n) comm.send(1, 0, {n});
    } else {
      for (std::uint8_t n = 0; n < 10; ++n) {
        const Buffer b = comm.recv(0, 0);
        EXPECT_EQ(b[0], n);
      }
    }
  });
}

TEST(Comm, RingPassesTokenAround) {
  const int n = 5;
  CommWorld world(n);
  world.run([n](Comm& comm) {
    const int next = (comm.rank() + 1) % n;
    const int prev = (comm.rank() + n - 1) % n;
    if (comm.rank() == 0) {
      comm.send(next, 0, make_buffer({1}));
      const Buffer b = comm.recv(prev, 0);
      EXPECT_EQ(b[0], std::uint8_t(n));
    } else {
      Buffer b = comm.recv(prev, 0);
      b[0] += 1;
      comm.send(next, 0, b);
    }
  });
}

TEST(Comm, InvalidRankThrows) {
  CommWorld world(2);
  EXPECT_THROW(world.run([](Comm& comm) {
                 if (comm.rank() == 0) comm.send(5, 0, {1});
                 // rank 1 exits immediately
               }),
               std::out_of_range);
}

TEST(CommWorld, ZeroRanksRejected) {
  EXPECT_THROW(CommWorld(0), std::invalid_argument);
}

TEST(Comm, ExceptionInRankPropagates) {
  CommWorld world(3);
  EXPECT_THROW(world.run([](Comm& comm) {
                 if (comm.rank() == 1)
                   throw std::runtime_error("rank 1 failed");
               }),
               std::runtime_error);
}

// Point-to-point stress: many back-to-back ring rounds, the halo-exchange
// pattern of a cycle.  Under TSan this exercises real interleavings in the
// mailbox handoff; the assertions catch a message delivered to the wrong
// (source, tag) key or out of order.
TEST(Comm, PointToPointRingStress) {
  constexpr int kRanks = 4;
  constexpr int kRounds = 200;
  CommWorld world(kRanks);
  world.run([](Comm& comm) {
    const int next = (comm.rank() + 1) % kRanks;
    const int prev = (comm.rank() + kRanks - 1) % kRanks;
    for (int round = 0; round < kRounds; ++round) {
      comm.send(next, round, {std::uint8_t(comm.rank()),
                              std::uint8_t(round % 251)});
      const Buffer got = comm.recv(prev, round);
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got[0], std::uint8_t(prev));
      EXPECT_EQ(got[1], std::uint8_t(round % 251));
    }
  });
}

// A rank that throws mid-shuffle must not strand its peers: ranks blocked
// in recv on a message the failed rank will never send throw too, and run()
// rethrows the first error instead of hanging.
TEST(Comm, ThrowingRankAbortsBlockedReceivers) {
  constexpr int kRanks = 4;
  CommWorld world(kRanks);
  std::promise<std::string> done;
  auto result = done.get_future();
  std::thread runner([&world, &done] {
    try {
      world.run([](Comm& comm) {
        if (comm.rank() == 0) {
          for (int r = 1; r < kRanks; ++r) (void)comm.recv(r, 0);  // ready
          comm.send(1, 1, {1});  // first half of the shuffle...
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("rank 0 failed");  // ...never the rest
        }
        comm.send(0, 0, {});
        if (comm.rank() == 1) (void)comm.recv(0, 1);
        (void)comm.recv(0, 2);
      });
      done.set_value("no error");
    } catch (const std::exception& e) {
      done.set_value(e.what());
    }
  });
  if (result.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    // The ranks can never be joined: report and end the process.
    ADD_FAILURE() << "CommWorld::run hung after a rank threw";
    std::fflush(stdout);
    std::_Exit(1);
  }
  runner.join();
  EXPECT_EQ(result.get(), "rank 0 failed");

  // The failed run left no stale messages behind: the world runs again.
  world.run([](Comm& comm) {
    const int next = (comm.rank() + 1) % kRanks;
    const int prev = (comm.rank() + kRanks - 1) % kRanks;
    comm.send(next, 2, {std::uint8_t(comm.rank())});
    EXPECT_EQ(comm.recv(prev, 2), Buffer{std::uint8_t(prev)});
  });
}

TEST(Comm, PeakMailboxDepthTracksQueuedSends) {
  // The all-sends-before-recvs pattern exchange_halo and the sharded
  // shuffle rely on is only deadlock-free because send() never blocks (the
  // capacity contract documented in comm.hpp).  The high-water mark makes
  // the queueing observable: post k sends before any recv and the peak must
  // reach k.
  constexpr int kRanks = 2;
  constexpr int kMsgs = 16;
  CommWorld world(kRanks);
  EXPECT_EQ(world.peak_mailbox_depth(), 0u);
  world.run([](Comm& comm) {
    const int peer = 1 - comm.rank();
    for (int t = 0; t < kMsgs; ++t)
      comm.send(peer, t, {std::uint8_t(t), std::uint8_t(comm.rank())});
    // Handshake: the peer's "done" is sent after all its data messages, so
    // once it arrives this mailbox holds all kMsgs of them.
    comm.send(peer, kMsgs, {});
    (void)comm.recv(peer, kMsgs);
    for (int t = 0; t < kMsgs; ++t) {
      const Buffer got = comm.recv(peer, t);
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got[0], std::uint8_t(t));
      EXPECT_EQ(got[1], std::uint8_t(peer));
    }
  });
  EXPECT_GE(world.peak_mailbox_depth(), std::size_t(kMsgs));
}

}  // namespace
}  // namespace bda::hpc
