#include "workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "core/dialite.h"
#include "json_lite.h"
#include "lake/lake_generator.h"
#include "obs/json.h"
#include "table/csv.h"

namespace perfbench {

using dialite::Dialite;
using dialite::Result;
using dialite::Status;
using dialite::Table;

const char* const kAlgorithms[6] = {"josie",  "lsh_ensemble", "santos",
                                    "cocoa",  "starmie",      "tus"};

namespace {

// The traffic shape below (algorithm mix, Zipf exponent, top hits per
// session, scrape and reload spacing) is assumed, not measured: there is
// no recorded dialited traffic to derive it from. README.md ("Assumed
// traffic") lists each assumption and what it decides.
//
// Request mix of the discovery workloads, in per-mille of requests, in
// kAlgorithms order. The shares fall as the per-request cost rises (josie
// is the cheapest, tus the dearest), so josie, lsh_ensemble and santos
// (three quarters of the requests) set the median latency, while cocoa,
// starmie and tus (a quarter of the requests, about five sixths of the
// discovery time) set the tail and the throughput. The rarest algorithm
// still gets 75 requests a pass.
constexpr size_t kAlgorithmPerMille[kNumAlgorithms] = {300, 250, 200,
                                                       120, 80,  50};

// discover_zipf: requests per pass, distinct query tables (fragments of a
// held-out lake) and the Zipf exponent of their popularity (s = 1, the
// textbook shape of popularity; assumed).
constexpr size_t kZipfPassRequests = 1500;
constexpr double kZipfPassSeconds = 1.6;
constexpr double kZipfExponent = 1.0;
constexpr size_t kHeldOutFragments = 24;  // per domain: 264 query tables

// integrate_fd: every (domain, set size) pair appears this many times per
// pass. Sets are capped at 3 tables: on lakes of this shape one full
// disjunction over world_cities fragments takes up to a second for 2-3
// tables, 8 s for 4 and past the 30 s request deadline for 5.
constexpr size_t kFdSetsPerStratum = 46;
constexpr double kFdPassSeconds = 7.0;
constexpr size_t kFdMinSet = 2;
constexpr size_t kFdMaxSet = 3;

// session_mixed: sessions per pass (distinct query tables), top hits that
// join the query in /align and /integrate, and the operator traffic (all
// three assumed: a user who joins the best two hits, an operator who
// scrapes now and then and reloads once). The
// pass is kept at 120 sessions: larger draws from the held-out lake
// contain sessions whose full disjunction takes 20 s and more, close to
// dialited's 30 s request deadline, so runs would fail at random.
constexpr size_t kSessionsPerPass = 120;
constexpr double kSessionPassSeconds = 1.8;
constexpr size_t kSessionTopHits = 2;
constexpr size_t kScrapeEverySessions = 40;
constexpr size_t kReloadAtSession = 60;

constexpr size_t kTopK = 10;

// The lake is a fixed dataset, the one BENCH_lake_scale.json measures
// (seed 3); --seed varies the traffic. The cost of full disjunction over
// world_cities fragments swings several-fold between generator seeds, so a
// lake per --seed would make the benchmark measure the lake, not the code.
constexpr uint64_t kLakeSeed = 3;

uint64_t Fnv1a(uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 14695981039346656037ull;

// Canonical digests shared by the expected replies and the checks.

/// Integrate replies: header plus the sorted data records of the CSV, so
/// row order does not matter. `rows` receives the data record count.
uint64_t CsvRowsDigest(std::string_view csv, size_t* rows) {
  std::vector<std::string_view> records;
  bool quoted = false;
  size_t start = 0;
  for (size_t i = 0; i < csv.size(); ++i) {
    const char c = csv[i];
    if (c == '"') quoted = !quoted;
    if (c == '\n' && !quoted) {
      records.push_back(csv.substr(start, i - start));
      start = i + 1;
    }
  }
  if (start < csv.size()) records.push_back(csv.substr(start));
  uint64_t h = kFnvBasis;
  if (records.empty()) {
    *rows = 0;
    return h;
  }
  h = Fnv1a(h, records[0]);
  std::sort(records.begin() + 1, records.end());
  for (size_t i = 1; i < records.size(); ++i) {
    h = Fnv1a(h, "\n");
    h = Fnv1a(h, records[i]);
  }
  *rows = records.size() - 1;
  return h;
}

/// Align replies: the sorted set of clusters, each the sorted set of its
/// (table, column) members; cluster names are not part of it.
uint64_t ClusterDigest(std::vector<std::vector<std::string>> clusters) {
  std::vector<std::string> keys;
  for (std::vector<std::string>& members : clusters) {
    std::sort(members.begin(), members.end());
    std::string key;
    for (const std::string& m : members) key += m + '\x1e';
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  uint64_t h = kFnvBasis;
  for (const std::string& k : keys) h = Fnv1a(Fnv1a(h, k), "\x1d");
  return h;
}

std::string Wire(const std::string& method, const std::string& target,
                 const std::string& body) {
  std::string w = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (method == "POST") {
    w += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  w += "\r\n";
  w += body;
  return w;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ',';
    out += n;
  }
  return out;
}

/// Algorithm indexes for `n` requests in the fixed per-mille mix, shuffled.
std::vector<size_t> AlgorithmMix(size_t n, dialite::Rng* rng) {
  std::vector<size_t> mix;
  for (size_t a = 0; a < kNumAlgorithms; ++a) {
    const size_t count = (n * kAlgorithmPerMille[a] + 500) / 1000;
    mix.insert(mix.end(), count, a);
  }
  mix.resize(n, 0);
  rng->Shuffle(&mix);
  return mix;
}

/// CSV bodies of a held-out lake: same generator, another seed, so no body
/// is a lake table. Like the lake, it is the same for every --seed.
std::vector<std::string> HeldOutBodies() {
  dialite::LakeGeneratorParams params;
  params.fragments_per_domain = kHeldOutFragments;
  params.header_noise = 0.5;
  params.seed = kLakeSeed ^ 0x9e3779b97f4a7c15ull;
  dialite::SyntheticLakeGenerator::Output out =
      dialite::SyntheticLakeGenerator(params).Generate();
  std::vector<std::string> bodies;
  for (const std::string& name : out.lake.table_names()) {
    bodies.push_back(dialite::CsvWriter::ToString(*out.lake.Get(name)));
  }
  return bodies;
}

size_t AddRequest(Schedule* s, Request r) {
  s->requests.push_back(std::move(r));
  return s->requests.size() - 1;
}

Request DiscoverRequest(size_t body, size_t algorithm) {
  Request r;
  r.op = Op::kDiscover;
  r.algorithm = algorithm;
  r.body = static_cast<int>(body);
  r.target = std::string("/discover?algorithm=") + kAlgorithms[algorithm] +
             "&k=" + std::to_string(kTopK) + "&column=0";
  return r;
}

Request AlignRequest(Op op, int body, std::vector<std::string> tables) {
  Request r;
  r.op = op;
  r.body = body;
  r.target = op == Op::kAlign ? "/align?tables=" : "/integrate?op=alite_fd&tables=";
  r.target += JoinNames(tables);
  r.tables = std::move(tables);
  return r;
}

void BuildDiscoverZipf(uint64_t seed, Schedule* s) {
  // Like the lake, the popularity of the query tables is fixed: which
  // table is hot, and how often each table is asked for in a pass (its
  // Zipf share of the pass, rounded). --seed draws which algorithm each
  // request uses and the order of the requests.
  s->bodies = HeldOutBodies();
  const size_t n = s->bodies.size();
  dialite::Rng pool(kLakeSeed);
  const std::vector<size_t> by_rank = pool.SampleIndices(n, n);
  std::vector<double> weight(n);
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    total += weight[r];
  }
  // Largest-remainder rounding of the shares to kZipfPassRequests.
  std::vector<size_t> count(n);
  std::vector<std::pair<double, size_t>> remainder;
  size_t assigned = 0;
  for (size_t r = 0; r < n; ++r) {
    const double exact = weight[r] / total * kZipfPassRequests;
    count[r] = static_cast<size_t>(exact);
    assigned += count[r];
    remainder.emplace_back(exact - static_cast<double>(count[r]), r);
  }
  std::sort(remainder.rbegin(), remainder.rend());
  for (size_t i = 0; assigned < kZipfPassRequests; ++i, ++assigned) {
    ++count[remainder[i].second];
  }
  std::vector<size_t> tables;
  for (size_t r = 0; r < n; ++r) tables.insert(tables.end(), count[r], by_rank[r]);

  dialite::Rng rng(seed * 0x2545f4914f6cdd1dull + 1);
  rng.Shuffle(&tables);
  const std::vector<size_t> algos = AlgorithmMix(kZipfPassRequests, &rng);
  std::map<std::pair<size_t, size_t>, size_t> distinct;
  for (size_t i = 0; i < kZipfPassRequests; ++i) {
    const auto key = std::make_pair(tables[i], algos[i]);
    auto it = distinct.find(key);
    if (it == distinct.end()) {
      it = distinct
               .emplace(key, AddRequest(s, DiscoverRequest(key.first,
                                                           key.second)))
               .first;
    }
    s->units.push_back(Unit{{it->second}});
  }
}

void BuildIntegrateFd(uint64_t seed, const LakeFixture& lake, Schedule* s) {
  // The sets are the same for every --seed, which only orders them: their
  // cost is so heavy-tailed (see kFdMaxSet) that a seeded draw of sets
  // would make each run measure which rare blow-ups it drew.
  dialite::Rng pool(kLakeSeed);
  for (const std::vector<std::string>& frags : lake.domain_tables) {
    for (size_t size = kFdMinSet; size <= kFdMaxSet; ++size) {
      for (size_t rep = 0; rep < kFdSetsPerStratum; ++rep) {
        std::vector<std::string> tables;
        for (size_t i : pool.SampleIndices(frags.size(), size)) {
          tables.push_back(frags[i]);
        }
        s->units.push_back(Unit{{AddRequest(
            s, AlignRequest(Op::kIntegrate, -1, std::move(tables)))}});
      }
    }
  }
  dialite::Rng order(seed * 0x9e3779b97f4a7c15ull + 2);
  order.Shuffle(&s->units);
}

/// First half of session_mixed: the discover request of every session.
/// The align/integrate requests need the expected hits, so they are added
/// by FinishSessions once those are known.
void BuildSessionDiscovers(uint64_t seed, Schedule* s) {
  // As in integrate_fd, the sessions are the same for every --seed, which
  // only orders them: /align and /integrate run full disjunction, whose
  // rare blow-ups (seconds for one 3-table set) would otherwise decide
  // each run.
  dialite::Rng pool(kLakeSeed);
  s->bodies = HeldOutBodies();
  const std::vector<size_t> picks =
      pool.SampleIndices(s->bodies.size(), kSessionsPerPass);
  const std::vector<size_t> algos = AlgorithmMix(kSessionsPerPass, &pool);
  std::vector<size_t> order(kSessionsPerPass);
  for (size_t i = 0; i < kSessionsPerPass; ++i) order[i] = i;
  dialite::Rng(seed * 0xd1342543de82ef95ull + 3).Shuffle(&order);
  for (size_t i : order) {
    s->units.push_back(
        Unit{{AddRequest(s, DiscoverRequest(picks[i], algos[i]))}});
  }
}

/// Top hit table names out of an expected `"hits":[...]}` tail.
std::vector<std::string> TopHits(const std::string& hits_json, size_t n) {
  JsonValue doc;
  std::vector<std::string> names;
  if (!ParseJson("{" + hits_json, &doc)) return names;
  const JsonValue* hits = doc.Find("hits");
  if (hits == nullptr) return names;
  for (const JsonValue& h : hits->items) {
    if (names.size() == n) break;
    if (const JsonValue* t = h.Find("table")) names.push_back(t->text);
  }
  return names;
}

void FinishSessions(Schedule* s) {
  std::vector<Unit> units;
  const size_t sessions = s->units.size();
  for (size_t i = 0; i < sessions; ++i) {
    Unit unit = s->units[i];
    const Request& disc = s->requests[unit.requests[0]];
    std::vector<std::string> hits = TopHits(disc.hits_json, kSessionTopHits);
    if (!hits.empty()) {
      const int body = disc.body;
      unit.requests.push_back(AddRequest(s, AlignRequest(Op::kAlign, body, hits)));
      unit.requests.push_back(
          AddRequest(s, AlignRequest(Op::kIntegrate, body, std::move(hits))));
    }
    units.push_back(std::move(unit));
    // Operator traffic at fixed request counts.
    if ((i + 1) % kScrapeEverySessions == 0) {
      Request r;
      r.op = Op::kScrape;
      r.target = "/metrics";
      units.push_back(Unit{{AddRequest(s, std::move(r))}});
    }
    if (i + 1 == kReloadAtSession) {
      Request r;
      r.op = Op::kReload;
      r.target = "/reload";
      units.push_back(Unit{{AddRequest(s, std::move(r))}});
    }
  }
  s->units = std::move(units);
}

/// Runs fn(i) for i in [begin, end) on `threads` threads.
void ParallelFor(size_t begin, size_t end, size_t threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{begin};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::max<size_t>(1, threads); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < end; i = next++) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

/// Fills the expectation of requests [begin, end) on the reference facade.
bool ExpectRange(Schedule* s, const Dialite& ref, size_t begin, size_t end,
                 size_t threads, std::string* error) {
  std::mutex mu;
  std::string first_error;
  ParallelFor(begin, end, threads, [&](size_t i) {
    Request& r = s->requests[i];
    std::optional<Table> body;
    std::string err;
    if (r.body >= 0) {
      Result<Table> t = dialite::CsvReader::Parse(
          s->bodies[static_cast<size_t>(r.body)], "query");
      if (t.ok()) {
        body = std::move(*t);
      } else {
        err = t.status().ToString();
      }
    }
    if (err.empty() && r.op == Op::kDiscover) {
      dialite::DiscoveryQuery q;
      q.table = &*body;
      q.query_column = 0;
      q.k = kTopK;
      Result<std::vector<dialite::DiscoveryHit>> hits =
          ref.Discover(q, kAlgorithms[r.algorithm]);
      if (hits.ok()) {
        r.hits_json = "\"hits\":[";
        for (size_t h = 0; h < hits->size(); ++h) {
          if (h > 0) r.hits_json += ",";
          r.hits_json += "{\"table\":";
          dialite::AppendJsonString(&r.hits_json, (*hits)[h].table_name);
          r.hits_json +=
              ",\"score\":" + dialite::FormatJsonDouble((*hits)[h].score) + "}";
        }
        r.hits_json += "]}";
      } else {
        err = hits.status().ToString();
      }
    } else if (err.empty() &&
               (r.op == Op::kAlign || r.op == Op::kIntegrate)) {
      std::vector<const Table*> tables;
      if (body) tables.push_back(&*body);
      for (const std::string& name : r.tables) {
        const Table* t = ref.lake().Get(name);
        if (t == nullptr) {
          err = "lake has no table " + name;
          break;
        }
        tables.push_back(t);
      }
      if (err.empty()) {
        Result<dialite::IntegrationResult> res =
            ref.AlignAndIntegrate(tables, "alite_fd", "alite_holistic");
        if (!res.ok()) {
          err = res.status().ToString();
        } else if (r.op == Op::kIntegrate) {
          r.digest = CsvRowsDigest(dialite::CsvWriter::ToString(res->table),
                                   &r.rows);
        } else {
          std::vector<std::vector<std::string>> clusters;
          for (size_t id = 0; id < res->alignment.num_clusters(); ++id) {
            std::vector<std::string> members;
            for (const dialite::ColumnRef& m : res->alignment.cluster(id)) {
              members.push_back(m.table + '\x1f' + std::to_string(m.column));
            }
            clusters.push_back(std::move(members));
          }
          r.digest = ClusterDigest(std::move(clusters));
        }
      }
    }
    if (!err.empty()) {
      std::lock_guard<std::mutex> lock(mu);
      if (first_error.empty()) first_error = r.target + ": " + err;
    }
  });
  if (!first_error.empty()) *error = "expected reply failed: " + first_error;
  return first_error.empty();
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kDiscover: return "discover";
    case Op::kAlign: return "align";
    case Op::kIntegrate: return "integrate";
    case Op::kScrape: return "scrape";
    case Op::kReload: return "reload";
  }
  return "?";
}

bool IsWorkload(std::string_view name) {
  return name == "discover_zipf" || name == "integrate_fd" ||
         name == "session_mixed";
}

bool BuildLakeFixture(const std::string& snapshot_path, LakeFixture* out,
                      std::string* error) {
  using Clock = std::chrono::steady_clock;
  dialite::LakeGeneratorParams params;
  params.fragments_per_domain = 96;
  params.header_noise = 0.5;
  params.seed = kLakeSeed;
  dialite::SyntheticLakeGenerator::Output gen =
      dialite::SyntheticLakeGenerator(params).Generate();
  for (const std::string& domain :
       dialite::SyntheticLakeGenerator::AvailableDomains()) {
    std::vector<std::string> tables = gen.truth.TablesOfDomain(domain);
    if (!tables.empty()) out->domain_tables.push_back(std::move(tables));
  }
  Dialite dialite(&gen.lake);
  Status st = dialite.RegisterDefaults();
  const Clock::time_point t0 = Clock::now();
  if (st.ok()) st = dialite.BuildIndexes();
  const Clock::time_point t1 = Clock::now();
  if (st.ok()) st = dialite.SaveSnapshot(snapshot_path);
  const Clock::time_point t2 = Clock::now();
  if (!st.ok()) {
    *error = "lake fixture: " + st.ToString();
    return false;
  }
  out->snapshot_path = snapshot_path;
  out->build_indexes_s = std::chrono::duration<double>(t1 - t0).count();
  out->save_s = std::chrono::duration<double>(t2 - t1).count();
  return true;
}

bool MakeSchedule(const std::string& workload, uint64_t seed,
                  const LakeFixture& lake, size_t threads, Schedule* out,
                  std::string* error) {
  out->workload = workload;
  if (workload == "discover_zipf") {
    BuildDiscoverZipf(seed, out);
    out->pass_seconds = kZipfPassSeconds;
  } else if (workload == "integrate_fd") {
    BuildIntegrateFd(seed, lake, out);
    out->pass_seconds = kFdPassSeconds;
  } else if (workload == "session_mixed") {
    BuildSessionDiscovers(seed, out);
    out->pass_seconds = kSessionPassSeconds;
  } else {
    *error = "unknown workload " + workload;
    return false;
  }

  // The reference: a second facade on the same snapshot that scores every
  // candidate, so the check does not depend on cascade pruning.
  Result<dialite::SnapshotSystem> ref =
      Dialite::OpenSnapshot(lake.snapshot_path);
  if (!ref.ok()) {
    *error = "reference open: " + ref.status().ToString();
    return false;
  }
  ref->dialite->set_search_mode(dialite::SearchMode::kExhaustive);
  size_t done = 0;
  if (!ExpectRange(out, *ref->dialite, 0, out->requests.size(), threads,
                   error)) {
    return false;
  }
  if (workload == "session_mixed") {
    done = out->requests.size();
    FinishSessions(out);
    if (!ExpectRange(out, *ref->dialite, done, out->requests.size(), threads,
                     error)) {
      return false;
    }
  }
  for (Request& r : out->requests) {
    const bool post = r.op != Op::kScrape;
    r.wire = Wire(post ? "POST" : "GET", r.target,
                  r.body >= 0 ? out->bodies[static_cast<size_t>(r.body)] : "");
  }
  return true;
}

bool VerifyReply(const Request& req, int status, std::string_view body) {
  if (status != 200) return false;
  switch (req.op) {
    case Op::kDiscover: {
      const size_t pos = body.find("\"hits\":");
      return pos != std::string_view::npos &&
             body.substr(pos) == req.hits_json;
    }
    case Op::kIntegrate: {
      size_t rows = 0;
      return CsvRowsDigest(body, &rows) == req.digest && rows == req.rows;
    }
    case Op::kAlign: {
      JsonValue doc;
      if (!ParseJson(body, &doc)) return false;
      const JsonValue* clusters = doc.Find("clusters");
      if (clusters == nullptr) return false;
      std::vector<std::vector<std::string>> got;
      for (const JsonValue& c : clusters->items) {
        const JsonValue* cols = c.Find("columns");
        if (cols == nullptr) return false;
        std::vector<std::string> members;
        for (const JsonValue& m : cols->items) {
          const JsonValue* t = m.Find("table");
          const JsonValue* col = m.Find("column");
          if (t == nullptr || col == nullptr) return false;
          members.push_back(t->text + '\x1f' + col->text);
        }
        got.push_back(std::move(members));
      }
      return ClusterDigest(std::move(got)) == req.digest;
    }
    case Op::kScrape:
      return body.size() > 2 && body.substr(0, 12) == "{\"counters\":" &&
             body.back() == '}';
    case Op::kReload:
      return body.find("\"reloaded\":true") != std::string_view::npos;
  }
  return false;
}

}  // namespace perfbench
