#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The benchmark's inputs: the seeded lake snapshot, the request schedule of
// each workload, and the expected reply of every distinct request. All of
// it is derived from --seed alone; the server only ever sees the generated
// HTTP requests.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Op { kDiscover, kAlign, kIntegrate, kScrape, kReload };
constexpr size_t kNumOps = 5;
const char* OpName(Op op);
inline bool IsDataPlane(Op op) {
  return op == Op::kDiscover || op == Op::kAlign || op == Op::kIntegrate;
}

/// The discovery algorithms the workloads query, cheapest first.
extern const char* const kAlgorithms[6];
constexpr size_t kNumAlgorithms = 6;

/// One distinct HTTP request: its wire bytes and what its reply must be.
struct Request {
  Op op = Op::kDiscover;
  size_t algorithm = 0;         ///< index into kAlgorithms (discover only)
  int body = -1;                ///< index into Schedule::bodies, -1 = none
  std::vector<std::string> tables;  ///< lake tables named in ?tables=
  std::string target;           ///< request target, e.g. "/discover?..."
  std::string wire;             ///< the serialized request

  // Expected reply, filled by ComputeExpected before the timed phase.
  std::string hits_json;  ///< discover: the reply's `"hits":[...]}` tail
  uint64_t digest = 0;    ///< align: cluster digest; integrate: row digest
  size_t rows = 0;        ///< integrate: data rows in the reply
};

/// A unit is what one client sends back to back: one request, or the
/// three requests of a demo session (discover, align, integrate).
struct Unit {
  std::vector<size_t> requests;  ///< indexes into Schedule::requests
};

/// One pass of a workload. Clients replay whole passes until the run's
/// time is up, so every pass sends exactly the same requests.
struct Schedule {
  std::string workload;
  /// A pass's wall time on the reference box (4 cores), which sizes a run:
  /// a run sends as many whole passes as fit in --seconds there.
  double pass_seconds = 1;
  std::vector<std::string> bodies;  ///< CSV query tables (not in the lake)
  std::vector<Request> requests;    ///< distinct requests
  std::vector<Unit> units;          ///< one pass, in send order
};

/// The lake every workload runs against, saved as a snapshot.
struct LakeFixture {
  std::string snapshot_path;
  /// Lake table names per domain (generation order).
  std::vector<std::vector<std::string>> domain_tables;
  double build_indexes_s = 0;  ///< Dialite::BuildIndexes
  double save_s = 0;           ///< Dialite::SaveSnapshot
};

/// Generates the 1056-table lake (96 fragments per domain, the same lake
/// for every --seed), builds every index and saves the snapshot to
/// `snapshot_path`. Returns false with a message on failure.
bool BuildLakeFixture(const std::string& snapshot_path, LakeFixture* out,
                      std::string* error);

/// The names BENCHMARK.json lists.
bool IsWorkload(std::string_view name);

/// Builds one pass of `workload` from `seed`, computes the expected reply
/// of every distinct request on a second facade over the same snapshot
/// (exhaustive discovery, Dialite::AlignAndIntegrate), and serializes the
/// wire bytes. Uses up to `threads` threads for the expected replies.
bool MakeSchedule(const std::string& workload, uint64_t seed,
                  const LakeFixture& lake, size_t threads, Schedule* out,
                  std::string* error);

/// Checks one reply body against the request's expectation.
bool VerifyReply(const Request& req, int status, std::string_view body);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
