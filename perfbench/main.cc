// served_bench: the served-path benchmark of dialited.
//
//   served_bench --workload <discover_zipf|integrate_fd|session_mixed>
//                --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// Builds the seeded lake snapshot, starts an in-process DialiteServer the
// way tools/dialited ships it (ObservabilityContext installed), and sends
// the workload's seeded schedule over loopback from closed-loop keep-alive
// clients for S seconds, checking every reply. --trace 1 then replays one
// pass of the schedule on one thread through each layer's public calls
// (replay.h) for the per-layer numbers. Every metric is printed by name
// with its unit; the last line of stdout is one JSON object. The exit code
// is non-zero when any reply fails its check. See README.md.

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "json_lite.h"
#include "obs/observability.h"
#include "replay.h"
#include "server/server.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Workers plus client connections stay within a 4-core box. Each
// keep-alive client holds one worker for its connection's lifetime, so
// there are never more clients than workers.
constexpr size_t kWorkers = 2;
constexpr size_t kClients = 2;
// setup_s is the median of this many server starts.
constexpr size_t kSetupRepeats = 5;
// scrape_p50_ms is the median of this many GET /metrics after the run.
constexpr size_t kPostScrapes = 41;
// Threads that compute the expected replies before the timed phase.
constexpr size_t kExpectThreads = 4;
// The band replay.served_ratio must stay in; outside it the report warns
// that the replay and the server do different work per request.
constexpr double kMinServedRatio = 0.67;
constexpr double kMaxServedRatio = 1.5;
// A run sends at least this many data-plane requests, so latency_p99_ms
// always has at least 10 samples beyond it.
constexpr size_t kMinDataPlaneSamples = 1000;
// The algorithms that run the tiered cascade (and publish its counters).
const char* const kCascadeAlgorithms[] = {"josie", "lsh_ensemble", "santos",
                                          "tus"};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// A minimal HTTP/1.1 keep-alive client over a blocking loopback socket.
/// It shares no code with the server, so its cost stays the same whatever
/// the server's HTTP layer does.
class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(uint16_t port) {
    Close();
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    buf_.clear();
    return true;
  }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  bool connected() const { return fd_ >= 0; }

  /// One request on the open connection, connecting first if needed. The
  /// server closes keep-alive connections that sat idle (between passes,
  /// say); when the peer closed before sending any reply byte the request
  /// was never read, so it is sent once more on a fresh connection, as
  /// HTTP clients do. Any other transport error counts as a failure.
  bool Send(uint16_t port, std::string_view wire, int* status,
            std::string* body) {
    if (!connected() && !Connect(port)) return false;
    if (RoundTrip(wire, status, body)) return true;
    return closed_before_reply_ && Connect(port) &&
           RoundTrip(wire, status, body);
  }

  /// Sends `wire` and reads one response; false on a transport error (the
  /// connection is closed then, and the next call must reconnect).
  bool RoundTrip(std::string_view wire, int* status, std::string* body) {
    closed_before_reply_ = false;
    if (fd_ < 0) return false;
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n =
          send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        closed_before_reply_ = true;
        return Fail();
      }
      sent += static_cast<size_t>(n);
    }
    size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!ReadMore()) {
        closed_before_reply_ = buf_.empty();
        return Fail();
      }
    }
    const size_t sp = buf_.find(' ');
    if (sp == std::string::npos || sp + 4 > head_end) return Fail();
    *status = std::atoi(buf_.c_str() + sp + 1);
    size_t length = 0;
    std::string head = buf_.substr(0, head_end);
    std::transform(head.begin(), head.end(), head.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    const size_t cl = head.find("content-length:");
    if (cl != std::string::npos) {
      length = std::strtoull(head.c_str() + cl + 15, nullptr, 10);
    }
    const size_t total = head_end + 4 + length;
    while (buf_.size() < total) {
      if (!ReadMore()) return Fail();
    }
    body->assign(buf_, head_end + 4, length);
    buf_.erase(0, total);
    if (head.find("connection: close") != std::string::npos) Close();
    return true;
  }

 private:
  bool ReadMore() {
    char chunk[64 * 1024];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }
  bool Fail() {
    Close();
    return false;
  }

  int fd_ = -1;
  std::string buf_;
  bool closed_before_reply_ = false;
};

/// Latencies of one operation, in milliseconds, with the pass each
/// request belonged to.
struct Samples {
  std::vector<double> ms;
  std::vector<size_t> pass;

  void Add(double v, size_t p) {
    ms.push_back(v);
    pass.push_back(p);
  }
  void Append(const Samples& o) {
    ms.insert(ms.end(), o.ms.begin(), o.ms.end());
    pass.insert(pass.end(), o.pass.begin(), o.pass.end());
  }

  /// Nearest-rank quantile.
  double Quantile(double q) const {
    if (ms.empty()) return 0;
    std::vector<double> sorted = ms;
    std::sort(sorted.begin(), sorted.end());
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
  }
  /// Samples strictly beyond the q-quantile's rank.
  size_t Beyond(double q) const {
    const double above = static_cast<double>(ms.size()) * (1.0 - q);
    return static_cast<size_t>(std::floor(above + 1e-9));
  }
  double Mean() const {
    double s = 0;
    for (double v : ms) s += v;
    return ms.empty() ? 0 : s / static_cast<double>(ms.size());
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The work counters the benchmark gates exactly, per schedule pass.
std::vector<std::string> ExactCounterNames() {
  std::vector<std::string> names;
  for (const char* a : kCascadeAlgorithms) {
    for (const char* c : {"candidates_total", "pruned_stage0", "scored_exact"}) {
      names.push_back(std::string("discover.") + a + ".cascade." + c);
    }
  }
  for (const char* n :
       {"align.pair_evals", "integrate.fd.merges",
        "integrate.fd.fixpoint_iterations", "integrate.fd.output_rows",
        "server.http.2xx", "server.http.4xx", "server.http.5xx",
        "server.admission.rejected"}) {
    names.push_back(n);
  }
  return names;
}

std::map<std::string, uint64_t> Counters(const JsonValue& doc) {
  std::map<std::string, uint64_t> out;
  if (const JsonValue* c = doc.Find("counters")) {
    for (const auto& [name, v] : c->members) out[name] = v.AsU64();
  }
  return out;
}

/// (count, sum) of one histogram of a /metrics document.
std::pair<uint64_t, uint64_t> Histogram(const JsonValue& doc,
                                        const std::string& name) {
  const JsonValue* h = doc.Find("histograms");
  const JsonValue* one = h != nullptr ? h->Find(name) : nullptr;
  if (one == nullptr) return {0, 0};
  const JsonValue* count = one->Find("count");
  const JsonValue* sum = one->Find("sum");
  return {count ? count->AsU64() : 0, sum ? sum->AsU64() : 0};
}

size_t CountSpans(const JsonValue& span) {
  size_t n = 1;
  if (const JsonValue* children = span.Find("children")) {
    for (const JsonValue& c : children->items) n += CountSpans(c);
  }
  return n;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench-run";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a->seconds = std::stod(value);
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--workdir") {
      a->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && IsWorkload(a->workload) && a->seconds > 0;
}

/// One metric line of the report, and the JSON value it contributes.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-44s %16.6f %-7s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }
  /// The metrics named in `keep` (all when empty) as a JSON object.
  std::string Json(const std::vector<std::string>& keep = {}) const {
    std::string out;
    char buf[64];
    for (const Metric& m : metrics_) {
      if (!keep.empty() &&
          std::find(keep.begin(), keep.end(), m.name) == keep.end()) {
        continue;
      }
      std::snprintf(buf, sizeof(buf), "%.12g", m.value);
      if (!out.empty()) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    return "{" + out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// The end-to-end metrics BENCHMARK.json lists; the report also prints
// others. Every per-layer metric is listed there.
const std::vector<std::string> kEndToEnd = {
    "setup_s",      "throughput_rps", "latency_p50_ms",
    "latency_p99_ms", "serve_rss_mb"};
/// Everything the served phase measures.
struct Served {
  std::vector<double> setup_s;
  Samples ops[kNumOps];
  Samples data_plane;
  Samples post_scrapes;
  size_t attempted = 0;
  size_t failed = 0;
  size_t passes = 0;
  std::vector<double> pass_s;  // wall time of each pass
  double elapsed_s = 0;
  double client_cpu_s = 0;
  double process_cpu_s = 0;
  double slowest_ms = 0;
  std::string slowest;
  double peak_rss_mb = 0;
  std::map<std::string, uint64_t> counters_delta;  // timed phase
  double handler_ms = 0;  // mean server.request.* time of data-plane requests
  size_t metrics_bytes = 0;
  size_t metrics_bytes_before = 0;
  size_t spans_retained = 0;
};

/// The timed phase's request stream: a fixed number of passes of the
/// schedule, handed out unit by unit to whichever client is free. Operator
/// units (scrapes, reloads) always go to client 0, as from one operator:
/// a reload then always runs on the same server worker, so the memory of
/// the epochs it swaps stays in one allocator arena and the peak RSS does
/// not depend on which client happened to be free.
class Stream {
 public:
  Stream(const Schedule& sched, size_t passes)
      : n_(sched.units.size()), stop_at_(n_ * passes) {
    for (const Unit& u : sched.units) {
      operator_unit_.push_back(
          !IsDataPlane(sched.requests[u.requests.front()].op));
    }
  }

  /// The next unit for `client` to send and its pass, or false once the
  /// run is over.
  bool Take(size_t client, size_t* unit, size_t* pass) {
    std::lock_guard<std::mutex> lock(mu_);
    if (client == 0 && !deferred_.empty()) {
      std::tie(*unit, *pass) = deferred_.front();
      deferred_.pop_front();
      return true;
    }
    while (next_ < stop_at_) {
      if (next_ % n_ == 0) pass_starts_.push_back(Clock::now());
      *unit = next_ % n_;
      *pass = next_++ / n_;
      if (client == 0 || !operator_unit_[*unit]) return true;
      deferred_.emplace_back(*unit, *pass);
    }
    return false;
  }

  /// When each pass handed out its first unit (read after the run).
  const std::vector<Clock::time_point>& pass_starts() const {
    return pass_starts_;
  }

  std::atomic<size_t> clients_done{0};

 private:
  const size_t n_;
  const size_t stop_at_;
  std::vector<bool> operator_unit_;
  std::mutex mu_;
  size_t next_ = 0;
  std::deque<std::pair<size_t, size_t>> deferred_;  // for client 0
  std::vector<Clock::time_point> pass_starts_;
};

/// Passes in a run: as many as take `seconds` on the reference box, and
/// enough for kMinDataPlaneSamples. The count is fixed for a given
/// --seconds, so request counts and work counters repeat exactly; a faster
/// program finishes the run sooner.
size_t RunPasses(const Schedule& sched, double seconds) {
  size_t per_pass = 0;
  for (const Unit& u : sched.units) {
    for (size_t id : u.requests) per_pass += IsDataPlane(sched.requests[id].op);
  }
  const size_t by_time = static_cast<size_t>(
      std::max(1.0, std::round(seconds / sched.pass_seconds)));
  const size_t by_samples =
      (kMinDataPlaneSamples + per_pass - 1) / std::max<size_t>(1, per_pass);
  return std::max(by_time, by_samples);
}

struct ClientResult {
  Samples ops[kNumOps];
  size_t attempted = 0;
  size_t failed = 0;
  double cpu_s = 0;
  std::vector<std::string> failures;  // the first few, for the report
  double slowest_ms = 0;
  std::string slowest;  // target of the slowest reply
};

void ClientLoop(size_t client, const Schedule& sched, uint16_t port,
                Stream* stream, ClientResult* out) {
  const double cpu0 = ThreadCpuSeconds();
  Client conn;
  std::string body;
  size_t u = 0, pass = 0;
  while (stream->Take(client, &u, &pass)) {
    for (size_t id : sched.units[u].requests) {
      const Request& req = sched.requests[id];
      int status = 0;
      ++out->attempted;
      const Clock::time_point t0 = Clock::now();
      const bool ok = conn.Send(port, req.wire, &status, &body);
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      if (!ok || !VerifyReply(req, status, body)) {
        ++out->failed;
        if (out->failures.size() < 5) {
          out->failures.push_back(
              req.target + (ok ? " answered " + std::to_string(status) +
                                     " with an unexpected reply"
                               : std::string(" failed in transport")));
        }
        continue;
      }
      out->ops[static_cast<size_t>(req.op)].Add(ms, pass);
      if (ms > out->slowest_ms) {
        out->slowest_ms = ms;
        out->slowest = req.target;
      }
    }
  }
  out->cpu_s = ThreadCpuSeconds() - cpu0;
  ++stream->clients_done;
}

bool WaitForStatus(uint16_t port) {
  const std::string wire =
      "GET /status HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  for (int attempt = 0; attempt < 10000; ++attempt) {
    Client c;
    int status = 0;
    std::string body;
    if (c.Connect(port) && c.RoundTrip(wire, &status, &body) && status == 200) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

bool RunServed(const Schedule& sched, const std::string& snapshot,
               double seconds, Served* out, std::string* error) {
  dialite::ServerOptions options;  // dialited's defaults ...
  options.port = 0;                // ... on a kernel-assigned port
  options.num_workers = kWorkers;

  // setup_s: Start (snapshot mmap + index restore) to the first 200 on
  // /status, several times; the last server stays up for the timed phase.
  // The fixture's freed memory goes back first, so the starts see a heap
  // more like a fresh dialited process's than one shaped by the fixture.
  std::unique_ptr<dialite::ObservabilityContext> obs;
  std::unique_ptr<dialite::DialiteServer> server;
  malloc_trim(0);
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    server.reset();
    obs = std::make_unique<dialite::ObservabilityContext>();
    server = std::make_unique<dialite::DialiteServer>(options, obs.get());
    const Clock::time_point t0 = Clock::now();
    dialite::Status st = server->Start(snapshot);
    if (!st.ok() || !WaitForStatus(server->port())) {
      *error = "server start: " + st.ToString();
      return false;
    }
    out->setup_s.push_back(Seconds(Clock::now() - t0));
  }
  const uint16_t port = server->port();
  const std::vector<std::string> exact = ExactCounterNames();

  JsonValue before;
  const std::string before_json = obs->ToJson();
  out->metrics_bytes_before = before_json.size();
  if (!ParseJson(before_json, &before)) {
    *error = "unreadable metrics document";
    return false;
  }
  malloc_trim(0);

  out->passes = RunPasses(sched, seconds);
  Stream stream(sched, out->passes);
  std::vector<ClientResult> results(kClients);
  std::vector<std::thread> clients;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(ClientLoop, c, std::cref(sched), port, &stream,
                         &results[c]);
  }
  // Sample the RSS while the clients run: the peak of the timed phase only.
  out->peak_rss_mb = RssMb();
  while (stream.clients_done < kClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    out->peak_rss_mb = std::max(out->peak_rss_mb, RssMb());
  }
  for (std::thread& t : clients) t.join();
  out->elapsed_s = Seconds(Clock::now() - start);
  const std::vector<Clock::time_point>& starts = stream.pass_starts();
  for (size_t i = 0; i + 1 < starts.size(); ++i) {
    out->pass_s.push_back(Seconds(starts[i + 1] - starts[i]));
  }
  out->pass_s.push_back(out->elapsed_s - Seconds(starts.back() - start));
  out->process_cpu_s = ProcessCpuSeconds() - cpu0;

  for (const ClientResult& r : results) {
    for (size_t op = 0; op < kNumOps; ++op) out->ops[op].Append(r.ops[op]);
    out->attempted += r.attempted;
    out->failed += r.failed;
    out->client_cpu_s += r.cpu_s;
    if (r.slowest_ms > out->slowest_ms) {
      out->slowest_ms = r.slowest_ms;
      out->slowest = r.slowest;
    }
    for (const std::string& f : r.failures) {
      std::fprintf(stderr, "served_bench: FAILED %s\n", f.c_str());
    }
  }
  for (Op op : {Op::kDiscover, Op::kAlign, Op::kIntegrate}) {
    out->data_plane.Append(out->ops[static_cast<size_t>(op)]);
  }

  // After the run: the first scrape supplies the counters, every scrape
  // is timed.
  const std::string scrape =
      "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  Client conn;
  JsonValue after;
  std::string body;  // reused, so the client does not fault in new pages
  for (size_t i = 0; i < kPostScrapes; ++i) {
    int status = 0;
    ++out->attempted;
    const Clock::time_point t0 = Clock::now();
    const bool ok = conn.Send(port, scrape, &status, &body) && status == 200;
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (!ok || (i == 0 && !ParseJson(body, &after))) {
      ++out->failed;
      continue;
    }
    out->post_scrapes.Add(ms, 0);
    if (i == 0) out->metrics_bytes = body.size();
    // Spaced out, so one slow spell of the machine does not set them all.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  conn.Close();
  server->Shutdown();

  const std::map<std::string, uint64_t> c0 = Counters(before);
  const std::map<std::string, uint64_t> c1 = Counters(after);
  for (const std::string& name : exact) {
    const uint64_t a = c0.count(name) ? c0.at(name) : 0;
    const uint64_t b = c1.count(name) ? c1.at(name) : 0;
    out->counters_delta[name] = b - a;
  }
  uint64_t n = 0, sum_ns = 0;
  for (const char* ep : {"discover", "align", "integrate"}) {
    const std::string h = std::string("server.request.") + ep + ".ns";
    const auto [n0, s0] = Histogram(before, h);
    const auto [n1, s1] = Histogram(after, h);
    n += n1 - n0;
    sum_ns += s1 - s0;
  }
  out->handler_ms = n > 0 ? static_cast<double>(sum_ns) / static_cast<double>(n) / 1e6 : 0;
  if (const JsonValue* spans = after.Find("spans")) {
    for (const JsonValue& s : spans->items) out->spans_retained += CountSpans(s);
  }
  return true;
}

void AddLatency(Report* r, const std::string& name, const Samples& s, double q) {
  char note[96];
  std::snprintf(note, sizeof(note), "n=%zu, %zu beyond%s", s.ms.size(),
                s.Beyond(q), s.Beyond(q) < 10 ? " (fewer than 10!)" : "");
  r->Add(name, s.Quantile(q), "ms", note);
}

/// The highest of p99, p95 and p90 with at least 10 samples beyond it,
/// named after the percentile it is.
void AddTail(Report* r, const std::string& prefix, const Samples& s) {
  for (const auto& [q, tag] : {std::pair{0.99, "p99"}, std::pair{0.95, "p95"},
                               std::pair{0.90, "p90"}}) {
    if (s.Beyond(q) >= 10) {
      AddLatency(r, prefix + "_" + tag + "_ms", s, q);
      return;
    }
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: served_bench --workload discover_zipf|integrate_fd|"
                 "session_mixed --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR]\n");
    return 2;
  }
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(args.workdir) /
                       (args.workload + "-" + std::to_string(getpid()));
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "served_bench: cannot create %s\n", dir.c_str());
    return 1;
  }
  struct Cleanup {
    fs::path p;
    ~Cleanup() {
      std::error_code e;
      fs::remove_all(p, e);
    }
  } cleanup{dir};

  std::string error;
  const Clock::time_point t_setup = Clock::now();
  LakeFixture lake;
  Schedule sched;
  if (!BuildLakeFixture((dir / "lake.dialsnap").string(), &lake, &error) ||
      !MakeSchedule(args.workload, args.seed, lake, kExpectThreads, &sched,
                    &error)) {
    std::fprintf(stderr, "served_bench: %s\n", error.c_str());
    return 1;
  }
  size_t pass_requests = 0;
  for (const Unit& u : sched.units) pass_requests += u.requests.size();
  std::printf("served_bench %s seed=%llu: %zu requests per pass (%zu distinct), "
              "fixture %.1fs\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              pass_requests, sched.requests.size(),
              Seconds(Clock::now() - t_setup));

  Served served;
  if (!RunServed(sched, lake.snapshot_path, args.seconds, &served, &error)) {
    std::fprintf(stderr, "served_bench: %s\n", error.c_str());
    return 1;
  }
  ReplayResult replay;
  if (args.trace && !RunReplay(sched, lake.snapshot_path, &replay, &error)) {
    std::fprintf(stderr, "served_bench: %s\n", error.c_str());
    return 1;
  }

  // ------------------------------------------------------------ end to end
  Report report;
  const double passes = static_cast<double>(served.passes);
  const size_t data_ok = served.data_plane.ms.size();
  report.Add("setup_s", Median(served.setup_s), "s",
             "median of " + std::to_string(served.setup_s.size()) + " starts");
  // Throughput and p50 are medians over the passes, which all send the
  // same requests, so a slow spell of the machine moves one pass, not the
  // figure. The p99 needs the whole run's samples.
  std::vector<double> pass_rps, pass_p50;
  for (size_t p = 0; p < served.pass_s.size(); ++p) {
    Samples in_pass;
    for (size_t i = 0; i < served.data_plane.ms.size(); ++i) {
      if (served.data_plane.pass[i] == p) in_pass.Add(served.data_plane.ms[i], p);
    }
    pass_rps.push_back(static_cast<double>(in_pass.ms.size()) / served.pass_s[p]);
    pass_p50.push_back(in_pass.Quantile(0.50));
  }
  report.Add("throughput_rps", Median(pass_rps), "1/s",
             "median of " + std::to_string(pass_rps.size()) + " passes; " +
                 std::to_string(data_ok) + " ok data-plane requests");
  report.Add("latency_p50_ms", Median(pass_p50), "ms",
             "median of the passes' p50; n=" +
                 std::to_string(served.data_plane.ms.size()));
  AddLatency(&report, "latency_p99_ms", served.data_plane, 0.99);
  for (Op op : {Op::kDiscover, Op::kAlign, Op::kIntegrate}) {
    const Samples& s = served.ops[static_cast<size_t>(op)];
    if (s.ms.empty()) continue;
    AddLatency(&report, std::string(OpName(op)) + "_p50_ms", s, 0.50);
    AddTail(&report, OpName(op), s);
  }
  AddLatency(&report, "scrape_p50_ms", served.post_scrapes, 0.50);
  for (Op op : {Op::kScrape, Op::kReload}) {
    const Samples& s = served.ops[static_cast<size_t>(op)];
    if (s.ms.empty()) continue;
    AddLatency(&report, std::string("in_run_") + OpName(op) + "_p50_ms", s, 0.50);
  }
  report.Add("error_rate",
             static_cast<double>(served.failed) /
                 static_cast<double>(std::max<size_t>(1, served.attempted)),
             "ratio", std::to_string(served.failed) + " of " +
                          std::to_string(served.attempted));
  report.Add("serve_rss_mb", served.peak_rss_mb, "MB", "peak, timed phase");
  report.Add("elapsed_s", served.elapsed_s, "s",
             std::to_string(served.passes) + " passes");

  // ------------------------------------------------------------- per layer
  const std::map<std::string, uint64_t>& cd = served.counters_delta;
  auto per_pass = [&](const std::string& counter) {
    return static_cast<double>(cd.at(counter)) / passes;
  };
  auto site = [&](const std::string& name) -> const CallTotals& {
    static const CallTotals kNone;
    auto it = replay.sites.find(name);
    return it != replay.sites.end() ? it->second : kNone;
  };
  auto per_call_us = [&](const std::string& name) {
    const CallTotals& t = site(name);
    return t.calls > 0 ? t.ns / 1e3 / static_cast<double>(t.calls) : 0.0;
  };
  auto span_per_call_us = [&](const std::string& span, const std::string& s) {
    const CallTotals& t = site(s);
    auto it = replay.span_ns.find(span);
    const double ns = it != replay.span_ns.end() ? it->second : 0.0;
    return t.calls > 0 ? ns / 1e3 / static_cast<double>(t.calls) : 0.0;
  };
  Report layers;
  layers.Add("server.http_parse_us", per_call_us("server.http_parse"), "us");
  layers.Add("server.serialize_us", per_call_us("server.serialize"), "us");
  layers.Add("server.handler_ms", served.handler_ms, "ms",
             "mean server.request.* time, data plane");
  layers.Add("server.wait_ms", served.data_plane.Mean() - served.handler_ms,
             "ms", "client latency minus handler time");
  layers.Add("server.http_2xx", per_pass("server.http.2xx"), "count", "per pass");
  layers.Add("server.http_4xx", per_pass("server.http.4xx"), "count", "per pass");
  layers.Add("server.http_5xx", per_pass("server.http.5xx"), "count", "per pass");
  layers.Add("server.admission_rejected", per_pass("server.admission.rejected"),
             "count", "per pass");
  layers.Add("table.csv_parse_us", per_call_us("table.csv_parse"), "us");
  layers.Add("table.csv_write_us", per_call_us("table.csv_write"), "us");
  for (const char* a : kAlgorithms) {
    layers.Add(std::string("discovery.") + a + ".search_us",
               per_call_us(std::string("discovery.") + a), "us");
  }
  for (const char* a : kCascadeAlgorithms) {
    const std::string p = std::string("discover.") + a + ".cascade.";
    const std::string m = std::string("discovery.") + a + ".";
    const double total = per_pass(p + "candidates_total");
    const double scored = per_pass(p + "scored_exact");
    layers.Add(m + "candidates_total", total, "count", "per pass");
    layers.Add(m + "pruned_stage0", per_pass(p + "pruned_stage0"), "count",
               "per pass");
    layers.Add(m + "scored_exact", scored, "count", "per pass");
    layers.Add(m + "scored_ratio", total > 0 ? scored / total : 0, "ratio",
               "scored exactly / candidates");
  }
  layers.Add("align.align_us", per_call_us("align.align"), "us");
  layers.Add("align.signatures_us", span_per_call_us("align.signatures", "align.align"), "us");
  layers.Add("align.similarity_matrix_us",
             span_per_call_us("align.similarity_matrix", "align.align"), "us");
  layers.Add("align.cluster_us", span_per_call_us("align.cluster", "align.align"), "us");
  layers.Add("align.pair_evals", per_pass("align.pair_evals"), "count", "per pass");
  layers.Add("integrate.fd_us", per_call_us("integrate.fd"), "us");
  layers.Add("integrate.fd.fixpoint_us",
             span_per_call_us("integrate.fd.fixpoint", "integrate.fd"), "us");
  layers.Add("integrate.fd.subsumption_us",
             span_per_call_us("integrate.fd.subsumption", "integrate.fd"), "us");
  const double merges = per_pass("integrate.fd.merges");
  const double out_rows = per_pass("integrate.fd.output_rows");
  layers.Add("integrate.fd.merges", merges, "count", "per pass");
  layers.Add("integrate.fd.fixpoint_iterations",
             per_pass("integrate.fd.fixpoint_iterations"), "count", "per pass");
  layers.Add("integrate.fd.output_rows", out_rows, "count", "per pass");
  layers.Add("integrate.fd.output_per_merge", merges > 0 ? out_rows / merges : 0,
             "ratio", "output rows / merges");
  layers.Add("snapshot.open_s", replay.open_s, "s", "LakeService::Open, replay");
  layers.Add("snapshot.reload_ms", per_call_us("snapshot.reload") / 1e3, "ms");
  layers.Add("snapshot.save_s", lake.save_s, "s", "fixture");
  layers.Add("core.build_indexes_s", lake.build_indexes_s, "s", "fixture");
  const double timed_requests =
      static_cast<double>(served.attempted - kPostScrapes);
  layers.Add("obs.metrics_bytes", static_cast<double>(served.metrics_bytes),
             "bytes", "/metrics after the run");
  layers.Add("obs.spans_retained", static_cast<double>(served.spans_retained),
             "count", "after the run");
  layers.Add("obs.bytes_per_request",
             (static_cast<double>(served.metrics_bytes) -
              static_cast<double>(served.metrics_bytes_before)) /
                 std::max(1.0, timed_requests),
             "bytes", "/metrics growth per request");

  // Layer self times: the replay's call sites are disjoint, so a layer's
  // self time is the sum of its sites. snapshot.open runs before the pass,
  // so it counts toward the snapshot layer but not toward the coverage.
  double covered_ns = 0;
  for (const char* layer : {"server", "table", "discovery", "align",
                            "integrate", "snapshot", "obs"}) {
    const std::string prefix = std::string(layer) + ".";
    double ns = 0;
    uint64_t calls = 0, allocs = 0;
    for (const auto& [name, t] : replay.sites) {
      if (name.compare(0, prefix.size(), prefix) != 0) continue;
      calls += t.calls;
      allocs += t.allocs;
      ns += t.ns;
      if (name != "snapshot.open") covered_ns += t.ns;
    }
    layers.Add(prefix + "self_ms", ns / 1e6, "ms", "replay, one pass");
    layers.Add(prefix + "calls", static_cast<double>(calls), "count",
               "replay, one pass");
    layers.Add(prefix + "allocs",
               calls > 0 ? static_cast<double>(allocs) / static_cast<double>(calls) : 0,
               "count", "operator new per call");
  }
  layers.Add("replay.wall_ms", replay.traced_ns / 1e6, "ms", "traced pass");
  layers.Add("replay.coverage_pct",
             replay.traced_ns > 0 ? 100.0 * covered_ns / replay.traced_ns : 0,
             "%", "layer self time / replay wall");
  // The coverage only covers the replay. This cross-check compares the
  // replay with the server itself: work the server's handlers do that the
  // replay leaves out raises the served handler time above the replay's
  // time per request.
  const double replay_request_ms =
      replay.data_plane_requests > 0
          ? replay.data_plane_ns / 1e6 / static_cast<double>(replay.data_plane_requests)
          : 0;
  const double served_ratio =
      replay_request_ms > 0 ? served.handler_ms / replay_request_ms : 0;
  layers.Add("replay.served_ratio", served_ratio, "ratio",
             "served server.handler_ms / replay time per data-plane request");
  layers.Add("replay.tracing_overhead_pct",
             replay.untraced_ns > 0
                 ? 100.0 * (replay.traced_ns - replay.untraced_ns) / replay.untraced_ns
                 : 0,
             "%", "traced vs untraced pass");
  const double client_share =
      served.client_cpu_s / (served.elapsed_s * static_cast<double>(kClients));
  layers.Add("client.cpu_pct", 100.0 * client_share, "%",
             "client CPU / (clients x elapsed)");

  std::printf("end to end (%s, %zu workers, %zu closed-loop clients):\n",
              args.workload.c_str(), kWorkers, kClients);
  report.Print();
  std::printf("server starts (s):");
  for (double t : served.setup_s) std::printf(" %.3f", t);
  std::printf("\n");
  std::printf("pass times (s):");
  for (double p : served.pass_s) std::printf(" %.3f", p);
  std::printf("\n");
  std::printf("slowest reply %.3f ms: %s\n", served.slowest_ms,
              served.slowest.c_str());
  std::printf("client cpu %.3fs of %.3fs process cpu over %.3fs\n",
              served.client_cpu_s, served.process_cpu_s, served.elapsed_s);
  if (client_share > 0.5) {
    std::printf("WARNING: clients were busy %.0f%% of the run: the load "
                "generator, not the server, may be the bottleneck\n",
                100 * client_share);
  }
  std::string counters_json;
  for (const auto& [name, v] : cd) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", static_cast<double>(v) / passes);
    counters_json += (counters_json.empty() ? "\"" : ", \"") + name + "\": " + buf;
  }
  std::printf("exact counters per pass: {%s}\n", counters_json.c_str());
  if (args.trace) {
    std::printf("per layer (replay of one pass on one thread):\n");
    layers.Print();
    if (served_ratio < kMinServedRatio || served_ratio > kMaxServedRatio) {
      std::printf("WARNING: the server's handlers took %.2fx the replay's "
                  "time per request: the replay may leave out work the "
                  "server does\n",
                  served_ratio);
    }
    if (replay.mismatches > 0) {
      std::printf("replay: %zu replies differ from the expected ones\n",
                  replay.mismatches);
    }
  }

  const bool correct = served.failed == 0 && replay.mismatches == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", served.attempted,
              served.failed + replay.mismatches,
              args.trace ? layers.Json().c_str()
                         : report.Json(kEndToEnd).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
