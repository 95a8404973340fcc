#include "common/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

namespace mivid {

namespace {

thread_local int tls_worker_index = -1;

/// Thread count requested via SetGlobalThreadCount (0 = default).
std::atomic<int> g_requested_threads{0};

int DefaultThreadCount() {
  if (const char* env = std::getenv("MIVID_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  return HardwareThreads();
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop(int worker_index) {
  tls_worker_index = worker_index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

bool ThreadPool::InWorkerThread() { return tls_worker_index >= 0; }

int ThreadPool::CurrentWorkerIndex() { return tls_worker_index; }

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;   // guarded by g_pool_mu
int g_pool_size = 0;                  // size g_pool was built with

}  // namespace

void SetGlobalThreadCount(int n) {
  g_requested_threads.store(n > 0 ? n : 0, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(g_pool_mu);
  if (g_pool && g_pool_size != GlobalThreadCount()) {
    g_pool.reset();  // rebuilt lazily at the new size
    g_pool_size = 0;
  }
}

int GlobalThreadCount() {
  const int requested = g_requested_threads.load(std::memory_order_relaxed);
  return requested >= 1 ? requested : DefaultThreadCount();
}

ThreadPool* GlobalPool() {
  const int count = GlobalThreadCount();
  if (count <= 1) return nullptr;
  std::unique_lock<std::mutex> lock(g_pool_mu);
  if (!g_pool || g_pool_size != count) {
    g_pool.reset();  // join old workers before spawning the new pool
    g_pool = std::make_unique<ThreadPool>(count);
    g_pool_size = count;
  }
  return g_pool.get();
}

}  // namespace mivid
