#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// The traced replay: one pass of a workload's schedule on one thread,
// calling each layer's public functions directly in the order a dialited
// worker does, with a timer (or an allocation count) around every call.

#include <cstdint>
#include <map>
#include <string>

#include "workload.h"

namespace perfbench {

/// Totals of one timed call site, e.g. "discovery.tus" or "table.csv_write".
/// The layer is the part of the name before the first dot.
struct CallTotals {
  uint64_t calls = 0;
  double ns = 0;        ///< traced pass: wall time inside the calls
  uint64_t allocs = 0;  ///< untraced pass: operator new calls inside them
};

struct ReplayResult {
  std::map<std::string, CallTotals> sites;
  /// Summed wall time of the program's own spans in the traced pass, by
  /// span name (align.signatures, integrate.fd.fixpoint, ...).
  std::map<std::string, double> span_ns;
  double untraced_ns = 0;  ///< pass wall time without timers
  double traced_ns = 0;    ///< pass wall time with timers
  /// The traced pass's wall time and count of data-plane requests alone
  /// (the requests the server's server.request.* timers cover).
  double data_plane_ns = 0;
  size_t data_plane_requests = 0;
  double open_s = 0;       ///< LakeService::Open of the traced pass
  size_t mismatches = 0;   ///< replies that differ from the expected ones
};

/// Replays one pass of `schedule` twice, side by side — untraced
/// (allocation counts) and traced (timers) — each against its own
/// LakeService over `snapshot_path` with an ObservabilityContext installed,
/// as dialited runs, and checks every reply.
bool RunReplay(const Schedule& schedule, const std::string& snapshot_path,
               ReplayResult* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
