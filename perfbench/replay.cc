#include "replay.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <vector>

#include "align/alite_matcher.h"
#include "alloc_count.h"
#include "common/cancel.h"
#include "integrate/full_disjunction.h"
#include "json_lite.h"
#include "obs/json.h"
#include "obs/observability.h"
#include "server/http.h"
#include "server/service.h"
#include "table/csv.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using dialite::HttpRequest;
using dialite::HttpResponse;
using dialite::Result;
using dialite::Status;
using dialite::Table;

// The call sites the replay times, one per public layer function. The
// layer of a site is its name up to the first dot.
enum Site : size_t {
  kHttpParse,   // ParseHttpRequest
  kSerialize,   // reply body JSON + SerializeHttpResponse
  kCsvParse,    // CsvReader::Parse on the request body
  kCsvWrite,    // CsvWriter::ToString on the integrated table
  kDiscover0,   // Dialite::Discover, one site per kAlgorithms entry
  kAlign = kDiscover0 + kNumAlgorithms,  // AliteMatcher::Align
  kFd,          // FullDisjunction::Integrate
  kScrape,      // ObservabilityContext::ToJson (GET /metrics)
  kRecord,      // the server's per-request ObsTimer and status counter
  kReload,      // LakeService::Reload
  kOpen,        // LakeService::Open, before the pass starts
  kNumSites
};

std::string SiteName(size_t s) {
  switch (s) {
    case kHttpParse: return "server.http_parse";
    case kSerialize: return "server.serialize";
    case kCsvParse: return "table.csv_parse";
    case kCsvWrite: return "table.csv_write";
    case kAlign: return "align.align";
    case kFd: return "integrate.fd";
    case kScrape: return "obs.scrape";
    case kRecord: return "obs.record";
    case kReload: return "snapshot.reload";
    case kOpen: return "snapshot.open";
    default: return std::string("discovery.") + kAlgorithms[s - kDiscover0];
  }
}

/// "server.request.discover" from "/discover", as the server names its
/// per-endpoint timers.
std::string EndpointMetricName(const std::string& path) {
  std::string name = "server.request.";
  if (path.size() <= 1) return name + "root";
  for (size_t i = 1; i < path.size(); ++i) {
    name += path[i] == '/' ? '.' : path[i];
  }
  return name;
}

void AppendClustersJson(const dialite::Alignment& alignment, std::string* out) {
  *out += "{\"epoch\":1,\"matcher\":\"alite_holistic\",\"clusters\":[";
  for (size_t id = 0; id < alignment.num_clusters(); ++id) {
    if (id > 0) *out += ",";
    *out += "{\"name\":";
    dialite::AppendJsonString(out, alignment.IdName(id));
    *out += ",\"columns\":[";
    const std::vector<dialite::ColumnRef>& members = alignment.cluster(id);
    for (size_t i = 0; i < members.size(); ++i) {
      if (i > 0) *out += ",";
      *out += "{\"table\":";
      dialite::AppendJsonString(out, members[i].table);
      *out += ",\"column\":" + std::to_string(members[i].column) + "}";
    }
    *out += "]}";
  }
  *out += "]}";
}

void SumSpans(const JsonValue& span, std::map<std::string, double>* out) {
  const JsonValue* name = span.Find("name");
  const JsonValue* wall = span.Find("wall_ns");
  if (name != nullptr && wall != nullptr) {
    (*out)[name->text] += static_cast<double>(wall->AsU64());
  }
  if (const JsonValue* children = span.Find("children")) {
    for (const JsonValue& c : children->items) SumSpans(c, out);
  }
}

class Pass {
 public:
  Pass(const Schedule& schedule, bool traced)
      : schedule_(schedule), traced_(traced) {
    matcher_.set_observability(&obs_);
    fd_.set_observability(&obs_);
  }

 private:
  static double Ns(Clock::duration d) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  }

  /// Runs fn as one call of `site`: timed on the traced pass, its
  /// allocations counted on the untraced one.
  template <typename F>
  auto Call(size_t site, F&& fn) {
    CallTotals& t = totals_[site];
    ++t.calls;
    const uint64_t allocs0 = traced_ ? 0 : ThreadAllocCount();
    const Clock::time_point t0 = traced_ ? Clock::now() : Clock::time_point();
    auto result = fn();
    if (traced_) {
      t.ns += Ns(Clock::now() - t0);
    } else {
      t.allocs += ThreadAllocCount() - allocs0;
    }
    return result;
  }

 public:
  bool Open(const std::string& snapshot_path, std::string* error) {
    Status opened = Call(kOpen, [&] { return service_.Open(snapshot_path); });
    if (!opened.ok()) *error = "replay open: " + opened.ToString();
    return opened.ok();
  }

  /// Handles every request of `unit`, adding their time to the pass wall
  /// time, then checks the replies (the check is the benchmark's own work
  /// and stays out of the wall time).
  void RunUnit(const Unit& unit) {
    for (size_t id : unit.requests) {
      const Request& r = schedule_.requests[id];
      const Clock::time_point t0 = Clock::now();
      const bool ok = Handle(r);
      const double ns = Ns(Clock::now() - t0);
      wall_ns_ += ns;
      if (IsDataPlane(r.op)) {
        data_plane_ns_ += ns;
        ++data_plane_requests_;
      }
      if (!ok || !VerifyReply(r, reply_.status, reply_.body)) ++mismatches_;
    }
  }

  const std::array<CallTotals, kNumSites>& totals() const { return totals_; }
  double wall_ns() const { return wall_ns_; }
  double data_plane_ns() const { return data_plane_ns_; }
  size_t data_plane_requests() const { return data_plane_requests_; }
  size_t mismatches() const { return mismatches_; }
  std::string MetricsJson() const { return obs_.ToJson(); }

 private:
  /// One request, as DialiteServer::ServeConnection and its handlers
  /// process it; the reply is left in reply_.
  bool Handle(const Request& r) {
    HttpRequest req;
    size_t consumed = 0;
    Status parsed = Call(kHttpParse, [&] {
      return dialite::ParseHttpRequest(r.wire, kMaxBodyBytes, &req, &consumed);
    });
    if (!parsed.ok()) return false;
    std::optional<dialite::ObsTimer> timer;
    timer.emplace(&obs_, EndpointMetricName(req.path));
    dialite::CancelToken cancel;
    cancel.SetDeadlineAfter(std::chrono::milliseconds(kDeadlineMs));
    std::shared_ptr<const dialite::Epoch> epoch = service_.current();

    HttpResponse resp;
    std::optional<Table> body;
    if (!req.body.empty()) {
      Result<Table> t = Call(kCsvParse, [&] {
        return dialite::CsvReader::Parse(req.body, req.Param("name", "query"));
      });
      if (t.ok()) body = std::move(*t);
    }
    std::optional<dialite::Alignment> alignment;
    std::vector<dialite::DiscoveryHit> hits;
    bool ok = r.op == Op::kScrape || r.op == Op::kReload || body.has_value() ||
              r.body < 0;
    if (ok && r.op == Op::kDiscover) {
      dialite::DiscoveryQuery q;
      q.table = &*body;
      q.cancel = &cancel;
      q.k = static_cast<size_t>(std::stoull(req.Param("k", "10")));
      q.query_column = static_cast<size_t>(std::stoull(req.Param("column", "0")));
      const std::string algorithm = req.Param("algorithm", "santos");
      Result<std::vector<dialite::DiscoveryHit>> found =
          Call(kDiscover0 + r.algorithm, [&] {
            return epoch->system->dialite->Discover(q, algorithm);
          });
      ok = found.ok();
      if (ok) hits = std::move(*found);
    } else if (ok && (r.op == Op::kAlign || r.op == Op::kIntegrate)) {
      std::vector<const Table*> tables;
      if (body) tables.push_back(&*body);
      for (const std::string& name : r.tables) {
        const Table* t = epoch->system->lake->Get(name);
        ok = ok && t != nullptr;
        tables.push_back(t);
      }
      Result<dialite::Alignment> aligned = Call(kAlign, [&] {
        return ok ? matcher_.Align(tables, &cancel)
                  : Result<dialite::Alignment>(Status::NotFound("table"));
      });
      ok = aligned.ok();
      if (ok) {
        Result<Table> integrated =
            Call(kFd, [&] { return fd_.Integrate(tables, *aligned, &cancel); });
        ok = integrated.ok();
        if (ok && r.op == Op::kIntegrate) {
          resp.content_type = "text/csv";
          resp.body = Call(kCsvWrite, [&] {
            return dialite::CsvWriter::ToString(*integrated);
          });
        }
        if (ok) alignment = std::move(*aligned);
      }
    } else if (ok && r.op == Op::kScrape) {
      resp.body = Call(kScrape, [&] { return obs_.ToJson(); });
    } else if (ok && r.op == Op::kReload) {
      Status st = Call(kReload, [&] { return service_.Reload(""); });
      ok = st.ok();
    }

    std::string wire = Call(kSerialize, [&] {
      if (r.op == Op::kDiscover) {
        resp.body = "{\"epoch\":" + std::to_string(epoch->id) +
                    ",\"algorithm\":\"" + kAlgorithms[r.algorithm] +
                    "\",\"hits\":[";
        for (size_t i = 0; i < hits.size(); ++i) {
          if (i > 0) resp.body += ",";
          resp.body += "{\"table\":";
          dialite::AppendJsonString(&resp.body, hits[i].table_name);
          resp.body +=
              ",\"score\":" + dialite::FormatJsonDouble(hits[i].score) + "}";
        }
        resp.body += "]}";
      } else if (r.op == Op::kAlign && alignment) {
        AppendClustersJson(*alignment, &resp.body);
      } else if (r.op == Op::kReload) {
        resp.body = "{\"reloaded\":true,\"epoch\":" +
                    std::to_string(service_.current()->id) + "}";
      }
      return dialite::SerializeHttpResponse(resp);
    });
    Call(kRecord, [&] {
      timer.reset();
      dialite::ObsAdd(&obs_, "server.http.2xx");
      return 0;
    });
    reply_ = std::move(resp);
    return ok;
  }

  // The limits dialited runs with by default (ServerOptions).
  static constexpr size_t kMaxBodyBytes = 8u << 20;
  static constexpr uint64_t kDeadlineMs = 30'000;

  const Schedule& schedule_;
  const bool traced_;
  dialite::ObservabilityContext obs_;
  dialite::LakeService service_{&obs_};
  dialite::AliteMatcher matcher_;
  dialite::FullDisjunction fd_;
  std::array<CallTotals, kNumSites> totals_{};
  HttpResponse reply_;
  double wall_ns_ = 0;
  double data_plane_ns_ = 0;
  size_t data_plane_requests_ = 0;
  size_t mismatches_ = 0;
};

}  // namespace

bool RunReplay(const Schedule& schedule, const std::string& snapshot_path,
               ReplayResult* out, std::string* error) {
  // The passes run side by side, unit by unit, alternating which goes
  // first, so a slow spell of the machine hits both alike and the gap
  // between them is the cost of the timers.
  Pass untraced(schedule, /*traced=*/false);
  Pass traced(schedule, /*traced=*/true);
  if (!untraced.Open(snapshot_path, error) || !traced.Open(snapshot_path, error)) {
    return false;
  }
  for (size_t i = 0; i < schedule.units.size(); ++i) {
    Pass& first = i % 2 == 0 ? untraced : traced;
    Pass& second = i % 2 == 0 ? traced : untraced;
    first.RunUnit(schedule.units[i]);
    second.RunUnit(schedule.units[i]);
  }

  for (size_t s = 0; s < kNumSites; ++s) {
    CallTotals t = traced.totals()[s];
    t.allocs = untraced.totals()[s].allocs;
    out->sites[SiteName(s)] = t;
  }
  out->untraced_ns = untraced.wall_ns();
  out->traced_ns = traced.wall_ns();
  out->data_plane_ns = traced.data_plane_ns();
  out->data_plane_requests = traced.data_plane_requests();
  out->open_s = traced.totals()[kOpen].ns / 1e9;
  out->mismatches = untraced.mismatches() + traced.mismatches();

  JsonValue doc;
  if (!ParseJson(traced.MetricsJson(), &doc)) {
    *error = "replay: unreadable metrics document";
    return false;
  }
  if (const JsonValue* spans = doc.Find("spans")) {
    for (const JsonValue& root : spans->items) SumSpans(root, &out->span_ns);
  }
  return true;
}

}  // namespace perfbench
