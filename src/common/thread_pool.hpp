// A small fixed-size thread pool for data-parallel loops.
//
// ShardedEngine runs its shards on it.  The shard count is fixed, so
// static chunking is enough: `parallel_for(count, fn)` splits [0, count)
// into `size()` contiguous chunks and runs `fn(begin, end, slot)` once per
// non-empty chunk.  The calling thread executes slot 0
// itself, so a pool of size N uses exactly N threads per invocation and a
// pool of size 1 degenerates to a plain loop on the caller — the exact
// serial code path, no worker threads at all.
//
// Slots are stable: chunk `s` always covers the same index range for the
// same `count`, whichever OS thread picks it up.  Callers that accumulate
// into per-slot storage and reduce over slots therefore get results that
// are independent of thread scheduling.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gridlb {

class ThreadPool {
 public:
  /// A chunk body: fn(begin, end, slot) with begin < end and
  /// 0 <= slot < size().
  using ChunkFn = std::function<void(int begin, int end, int slot)>;

  /// Creates a pool that runs `threads` chunks per parallel_for (the
  /// caller plus `threads - 1` workers).  `threads` must be >= 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return threads_; }

  /// Runs `fn` over [0, count) in `size()` static contiguous chunks and
  /// blocks until every chunk has finished.  The first exception thrown by
  /// any chunk is rethrown on the calling thread (remaining chunks still
  /// run to completion).  Not reentrant: a pool must not be re-entered
  /// from inside a chunk, and only one thread may dispatch at a time.
  void parallel_for(int count, const ChunkFn& fn);

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static int hardware_threads();

 private:
  void worker_loop(int slot);
  void run_chunk(int count, int slot);

  const int threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;  ///< signals workers: new job / stop
  std::condition_variable done_cv_;   ///< signals caller: all chunks done
  const ChunkFn* job_ = nullptr;      ///< current job (valid while pending)
  int count_ = 0;                     ///< current job's index range
  std::uint64_t generation_ = 0;      ///< bumped once per dispatch
  int pending_ = 0;                   ///< worker chunks not yet finished
  std::exception_ptr first_error_;    ///< first chunk exception, if any
  bool stop_ = false;
};

}  // namespace gridlb
