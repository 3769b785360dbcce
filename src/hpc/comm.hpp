// Message-passing substrate (MPI-style, thread-backed).
//
// The operational SCALE-LETKF is one MPI executable over 426,624 cores; the
// paper's I/O innovation replaced SCALE<->LETKF file exchange with "MPI data
// transfer with RAM copy and node-to-node network communications".  This
// module provides the same programming model at laptop scale: a CommWorld
// spawns N ranks as threads, each holding a Comm endpoint with tagged
// point-to-point send/recv.  Message delivery is by value (buffers copied),
// matching MPI semantics.  There are deliberately no collectives: every
// cross-rank combine in the tree is a point-to-point exchange folded in
// rank order, which is what keeps sharded runs bitwise equal to serial.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "util/annotations.hpp"

namespace bda::hpc {

using Buffer = std::vector<std::uint8_t>;

class CommWorld;

/// Per-rank endpoint.  Valid only inside CommWorld::run.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Tagged send (copies the buffer into the destination mailbox).
  ///
  /// Capacity contract: mailboxes are UNBOUNDED, so send() enqueues and
  /// returns without ever blocking on the receiver — MPI_Bsend semantics
  /// with an infinite buffer, not a rendezvous.  Callers are allowed to
  /// post all their sends before any recv (exchange_halo and the sharded
  /// shuffle do exactly that); with bounded mailboxes that pattern would
  /// deadlock.  Anything that adds backpressure here must first convert
  /// those call sites to posted/nonblocking receives.  The cost of the
  /// contract is memory: CommWorld::peak_mailbox_depth() exposes the
  /// high-water mark so tests and benches can see how deep the queues
  /// actually get.
  void send(int dest, int tag, const Buffer& data);
  /// Blocking tagged receive from a specific source.  Throws
  /// std::runtime_error instead of waiting forever once another rank of
  /// the world has thrown (see CommWorld::run).
  Buffer recv(int source, int tag);

 private:
  friend class CommWorld;
  Comm(CommWorld* world, int rank) : world_(world), rank_(rank) {}
  CommWorld* world_;
  int rank_;
};

/// Owns the mailboxes and runs a function on every rank.
class CommWorld {
 public:
  explicit CommWorld(int n_ranks);

  int size() const { return n_ranks_; }

  /// Run `fn(comm)` on every rank concurrently; returns when all finish.
  /// Exceptions thrown by any rank are rethrown (first one wins).  The
  /// first exception aborts the world: every recv blocked on a message the
  /// failed rank will never send throws, so the peers unwind and run()
  /// joins instead of hanging.  Messages still queued when a run fails are
  /// discarded, so the world can be run again.
  void run(const std::function<void(Comm&)>& fn);

  /// High-water mark of messages queued in any single mailbox since
  /// construction (the observable side of the unbounded-capacity contract
  /// on Comm::send).  Takes each mailbox lock briefly; meant for tests and
  /// end-of-run reporting, not the hot path.
  std::size_t peak_mailbox_depth();

 private:
  friend class Comm;
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv BDA_CV_OF(mu);  ///< queue-nonempty predicate
    // Keyed by (source, tag); FIFO per key.
    std::map<std::pair<int, int>, std::vector<Buffer>> queues
        BDA_GUARDED_BY(mu);
    std::size_t depth BDA_GUARDED_BY(mu) = 0;       ///< messages queued now
    std::size_t peak_depth BDA_GUARDED_BY(mu) = 0;  ///< high-water mark
  };
  void deliver(int dest, int source, int tag, const Buffer& data);
  Buffer take(int self, int source, int tag);
  /// Set the abort flag and wake every blocked take().
  void abort();

  int n_ranks_;
  std::vector<Mailbox> boxes_;
  /// Set by run() when a rank throws; read by take() under a mailbox lock
  /// (abort() locks each mailbox before notifying, so no wakeup is lost).
  std::atomic<bool> aborted_{false};
};

}  // namespace bda::hpc
