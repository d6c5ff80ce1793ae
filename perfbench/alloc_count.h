#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

/// Calls to the global operator new made so far by the calling thread.
uint64_t ThreadAllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
