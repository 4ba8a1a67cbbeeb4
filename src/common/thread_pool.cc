#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace most {

ThreadPool::ThreadPool(size_t worker_count) {
  workers_.reserve(worker_count);
  for (size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!shutting_down_) {
      queue_.push_back(std::move(task));
      cv_.notify_one();
      return;
    }
  }
  // Shut down: degrade to inline execution rather than dropping the task.
  task();
}

void ThreadPool::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutting_down_) {
      // Already shut down (or shutting down concurrently): nothing to join
      // from this call; the first caller joins.
      return;
    }
    shutting_down_ = true;
    cv_.notify_all();
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting_down_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  size_t threads = pool != nullptr ? pool->thread_count() : 1;
  if (threads <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Chunked dynamic scheduling: helpers and the caller race on an atomic
  // next-chunk cursor. The chunk size targets several chunks per thread so
  // uneven per-index cost (one shard may hold the heavier refreshes)
  // rebalances dynamically, and is capped so a very large n cannot
  // degenerate into one oversized chunk per thread — with only
  // n / (threads * 4) a 100k-object fan-out handed each worker one
  // ~6k-index chunk and the slowest straggler gated the whole batch.
  struct Shared {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t n = 0;
    size_t chunk = 1;
    const std::function<void(size_t)>* fn = nullptr;
  };
  auto shared = std::make_shared<Shared>();
  shared->n = n;
  constexpr size_t kMaxChunk = 1024;
  shared->chunk =
      std::clamp<size_t>(n / (threads * 8), 1, kMaxChunk);
  shared->fn = &fn;

  auto drain = [](const std::shared_ptr<Shared>& s) {
    while (true) {
      size_t begin = s->next.fetch_add(s->chunk);
      if (begin >= s->n) return;
      size_t end = std::min(s->n, begin + s->chunk);
      for (size_t i = begin; i < end; ++i) (*s->fn)(i);
      size_t finished = s->done.fetch_add(end - begin) + (end - begin);
      if (finished == s->n) {
        std::unique_lock<std::mutex> lock(s->mu);
        s->cv.notify_all();
      }
    }
  };

  size_t helpers = std::min(threads - 1, (n + shared->chunk - 1) /
                                             shared->chunk);
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([shared, drain] { drain(shared); });
  }
  drain(shared);
  std::unique_lock<std::mutex> lock(shared->mu);
  shared->cv.wait(lock, [&] { return shared->done.load() == shared->n; });
}

}  // namespace most
