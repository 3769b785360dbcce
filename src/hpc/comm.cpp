#include "hpc/comm.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>

namespace bda::hpc {

CommWorld::CommWorld(int n_ranks)
    : n_ranks_(n_ranks), boxes_(static_cast<std::size_t>(n_ranks)) {
  if (n_ranks <= 0) throw std::invalid_argument("CommWorld: n_ranks <= 0");
}

void CommWorld::run(const std::function<void(Comm&)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n_ranks_));
  std::mutex err_mu;
  std::exception_ptr first_error;

  for (int r = 0; r < n_ranks_; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(this, r);
      try {
        fn(comm);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!first_error) return;
  // Every rank has joined: reset the world for the next run.
  for (auto& box : boxes_) {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queues.clear();
    box.depth = 0;
  }
  aborted_.store(false);
  std::rethrow_exception(first_error);
}

void CommWorld::abort() {
  aborted_.store(true);
  for (auto& box : boxes_) {
    // Taking the lock orders the flag before any waiter's next predicate
    // check: a take() either sees the flag or is already waiting.
    { std::lock_guard<std::mutex> lock(box.mu); }
    box.cv.notify_all();
  }
}

void CommWorld::deliver(int dest, int source, int tag, const Buffer& data) {
  auto& box = boxes_[static_cast<std::size_t>(dest)];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queues[{source, tag}].push_back(data);
    ++box.depth;
    box.peak_depth = std::max(box.peak_depth, box.depth);
  }
  box.cv.notify_all();
}

std::size_t CommWorld::peak_mailbox_depth() {
  std::size_t peak = 0;
  for (auto& box : boxes_) {
    std::lock_guard<std::mutex> lock(box.mu);
    peak = std::max(peak, box.peak_depth);
  }
  return peak;
}

Buffer CommWorld::take(int self, int source, int tag) {
  auto& box = boxes_[static_cast<std::size_t>(self)];
  std::unique_lock<std::mutex> lock(box.mu);
  const auto key = std::make_pair(source, tag);
  box.cv.wait(lock, [&] {
    const auto it = box.queues.find(key);
    return aborted_.load() || (it != box.queues.end() && !it->second.empty());
  });
  if (aborted_.load())
    throw std::runtime_error("Comm::recv: another rank failed");
  auto& q = box.queues[key];
  Buffer out = std::move(q.front());
  q.erase(q.begin());
  --box.depth;
  return out;
}

int Comm::size() const { return world_->size(); }

void Comm::send(int dest, int tag, const Buffer& data) {
  if (dest < 0 || dest >= world_->size())
    throw std::out_of_range("Comm::send: bad destination rank");
  world_->deliver(dest, rank_, tag, data);
}

Buffer Comm::recv(int source, int tag) {
  if (source < 0 || source >= world_->size())
    throw std::out_of_range("Comm::recv: bad source rank");
  return world_->take(rank_, source, tag);
}

}  // namespace bda::hpc
