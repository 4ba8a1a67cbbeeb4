#ifndef MOST_COMMON_THREAD_POOL_H_
#define MOST_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace most {

/// A fixed pool of worker threads draining one FIFO task queue. No work
/// stealing, no priorities: the sharded engine only needs flat fan-out
/// over its shards (drain, refresh, scatter, gather), and a single locked
/// deque keeps the shutdown and exception semantics easy to reason about.
/// It is the engine's one source of parallelism (docs/sharding.md); query
/// evaluation itself runs serially on whichever thread calls it.
///
/// Tasks must not throw; MOST code reports failures through Status, and a
/// task that needs to surface an error should capture a slot to write it
/// to (ParallelFor does exactly that). A throwing task terminates the
/// process, same as an exception escaping std::thread.
class ThreadPool {
 public:
  /// Spawns `worker_count` workers (the sharded engine passes its shard
  /// count, always at least 2).
  explicit ThreadPool(size_t worker_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task. After Shutdown() the task runs inline on the calling
  /// thread instead (so late submitters still make progress).
  void Submit(std::function<void()> task);

  /// Drains the queue and joins all workers. Idempotent; also called by the
  /// destructor. Tasks already queued are executed before workers exit.
  void Shutdown();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool shutting_down_ = false;
};

/// Runs fn(i) for every i in [0, n), partitioned into chunks executed by
/// `pool`'s workers *and* the calling thread. Blocks until every index has
/// been processed. With pool == nullptr (or n small) the loop runs serially
/// on the caller, in strict index order 0..n-1 (a one-shard engine has no
/// pool at all).
///
/// Safe to call from inside a pool task (nested parallelism): the caller
/// thread always participates in chunk execution, so progress never depends
/// on a free worker. fn must not throw.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace most

#endif  // MOST_COMMON_THREAD_POOL_H_
