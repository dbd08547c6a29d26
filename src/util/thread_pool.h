// ThreadPool: a small fixed-size worker pool for intra-query parallelism.
//
// Ownership: a ThreadPool owns its worker threads and its task queue, and
// nothing else — submitted closures must keep whatever they touch alive.
// The pool is created with a fixed worker count, joins every worker in the
// destructor, and is shared by reference: PartitionedCrackerColumn borrows
// a pool (it never owns one) so that one pool can serve many columns
// without oversubscribing the machine. Destroying a pool while another
// thread still calls Submit/ParallelFor on it is a caller bug.
//
// Usage:
//   ThreadPool pool(3);                       // 3 workers
//   pool.ParallelFor(8, [&](std::size_t i) {  // caller participates too,
//     ProcessPartition(i);                    // so 4 threads share 8 tasks
//   });                                       // returns when all 8 are done
//
// ParallelFor is deadlock-free by construction: the calling thread drains
// iterations alongside the workers, so the loop completes even when every
// worker is busy with other submissions (including nested ParallelFor
// calls from inside a worker). Closures must not throw — an escaping
// exception terminates the process, which matches the AIDX_CHECK policy
// used throughout this code base.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/macros.h"

namespace aidx {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers. Zero is valid: Submit still queues (tasks
  /// run only via ParallelFor's caller participation or never), and
  /// ParallelFor degrades to an inline loop.
  explicit ThreadPool(std::size_t num_threads);

  /// Joins all workers; queued tasks that never started are dropped.
  ~ThreadPool();

  AIDX_DISALLOW_COPY_AND_ASSIGN(ThreadPool);

  /// Stops accepting work, joins every worker, and destroys queued tasks
  /// that never started (their closures are destroyed, which releases any
  /// RAII tickets they carry — see the partitioned column's background
  /// merges). Idempotent; the destructor calls it. After Shutdown,
  /// TrySubmit returns false, num_threads() is 0, and ParallelFor degrades
  /// to an inline loop, so a stopped pool can safely outlive the columns
  /// borrowing it.
  void Shutdown();

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task for some worker. Fire-and-forget: there is no handle,
  /// so tasks needing completion signalling should use ParallelFor or carry
  /// their own latch.
  void Submit(std::function<void()> task);

  /// Like Submit, but returns false instead of CHECK-failing when the pool
  /// is already stopping. Background maintenance (the partitioned column's
  /// merge tasks) races pool shutdown by design and must degrade to "did
  /// not run" rather than crash.
  bool TrySubmit(std::function<void()> task);

  /// Runs fn(0), ..., fn(n-1) across the workers and the calling thread;
  /// returns when all n iterations have finished. Iterations are claimed
  /// from a shared counter, so uneven per-iteration costs balance
  /// automatically. `fn` may be invoked concurrently from several threads.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace aidx
