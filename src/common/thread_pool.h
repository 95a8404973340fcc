// Served requests run on the connection thread that read them (see
// serve/server.h), and every computation is serial on its calling thread,
// so the process has no thread pool and no thread-count setting.
//
// This header survives only for e2ebench/harness/main.cc, which includes
// it and calls SetGlobalThreadCount(1). The benchmark tree is changed
// only together with the benchmark itself; delete this header when that
// call goes.

#ifndef MIVID_COMMON_THREAD_POOL_H_
#define MIVID_COMMON_THREAD_POOL_H_

namespace mivid {

/// Does nothing: there is no pool to size.
inline void SetGlobalThreadCount(int) {}

}  // namespace mivid

#endif  // MIVID_COMMON_THREAD_POOL_H_
