// Fixed-size thread pool that runs served requests.
//
// The execution model (see docs/performance.md, "Threads"): the serving
// daemons submit each request to the pool, and a request's compute runs
// serially on the worker that picked it up. No kernel splits its work
// across threads, so no result depends on the thread count.
//
// The global pool size comes from SetGlobalThreadCount() (the --threads
// flag) or the MIVID_THREADS environment variable; the default is the
// hardware concurrency.

#ifndef MIVID_COMMON_THREAD_POOL_H_
#define MIVID_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mivid {

/// A fixed-size pool of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains the queue (all submitted tasks run) and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task to run on some worker. Safe to call from worker
  /// threads: the task is queued, never run inline. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// True when the calling thread is one of this process's pool workers.
  static bool InWorkerThread();

  /// Index of the calling pool worker in [0, num_threads), or -1 when the
  /// caller is not a pool worker (e.g. the main thread). Stable for the
  /// lifetime of the worker; used by logging prefixes and trace exports.
  static int CurrentWorkerIndex();

 private:
  void WorkerLoop(int worker_index);

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// Number of hardware threads (>= 1).
int HardwareThreads();

/// Sets the global pool size. `n <= 0` restores the default
/// (MIVID_THREADS if set, else hardware concurrency). Rebuilds the pool
/// on next use; not safe to call while the pool runs tasks.
void SetGlobalThreadCount(int n);

/// The request pool size (>= 1; at 1 GlobalPool() builds no pool).
int GlobalThreadCount();

/// Lazily constructed process-wide pool sized to GlobalThreadCount().
/// Returns nullptr when the effective thread count is 1.
ThreadPool* GlobalPool();

}  // namespace mivid

#endif  // MIVID_COMMON_THREAD_POOL_H_
