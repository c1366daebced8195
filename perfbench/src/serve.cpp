// serve-mixed: an in-process ServeServer on loopback, driven closed-loop by
// kClients connections, each waiting for its reply before sending the next
// request.  A seeded request sequence mixes hot revisits of a small primed
// cell set (answered by the hot LRU) with a fixed fraction of fresh-seed
// cells the server must simulate.  This is the only workload for the serve
// tier: hot LRU, coalescer and protocol.  Server jobs plus clients stay
// within four host threads.
//
// A measured window is a fixed, seeded request sequence per client sent to
// a freshly started server, so every window does the same work: the same
// fresh cells land in the server's result memo, and peak memory depends on
// the work alone, not on how fast the server got through it.  Windows
// repeat until --seconds are used up, and the metrics are their medians.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/serialize.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr unsigned kClients = 2;
constexpr unsigned kServerJobs = 2;
constexpr std::uint64_t kInstrs = 20'000;
constexpr std::uint64_t kWarmup = 5'000;
constexpr std::uint64_t kHotSeeds = 4;
/// One request in kFreshEvery is a fresh-seed cell.
constexpr std::uint64_t kFreshEvery = 20;
/// Requests each client sends in one window.
constexpr std::uint64_t kRequestsPerClient = 2'000;
constexpr const char* kPolicy = "mapg";
/// Fresh-cell seeds start here, far above the hot set's (seed * 100 + k).
constexpr std::uint64_t kFreshSeedBase = 1'000'000'000'000ULL;
const std::vector<std::string> kProfiles = {"mcf-like", "libquantum-like",
                                            "gcc-like", "povray-like"};

struct CellKey {
  std::string profile;
  std::uint64_t seed = 0;
  std::string id() const { return profile + "/s" + std::to_string(seed); }
};

mapg::serve::CellRequest to_request(const CellKey& k) {
  mapg::serve::CellRequest req;
  req.workload = k.profile;
  req.policy = kPolicy;
  req.config = {{"instructions", std::to_string(kInstrs)},
                {"warmup", std::to_string(kWarmup)},
                {"seed", std::to_string(k.seed)}};
  return req;
}

std::uint64_t direct_digest(const CellKey& k) {
  mapg::SimConfig cfg;
  cfg.instructions = kInstrs;
  cfg.warmup_instructions = kWarmup;
  cfg.run_seed = k.seed;
  return result_digest(
      mapg::Simulator(cfg).run(*mapg::find_profile(k.profile), kPolicy));
}

struct Sample {
  double ms = 0;
  bool fresh = false;
};

/// What the clients observed in one window.
struct Window {
  std::vector<Sample> samples;
  std::vector<std::pair<CellKey, std::uint64_t>> fresh;  ///< to verify
  std::uint64_t errors = 0, hot_mismatches = 0;
  double seconds = 0;
};

std::uint64_t response_digest(const std::optional<mapg::Json>& doc) {
  if (!doc || !doc->get("ok").as_bool()) return 0;
  return mapg::fnv1a64(doc->get("result").dump());
}

class Bench {
 public:
  explicit Bench(const RunArgs& args) : args_(args) {
    for (const std::string& p : kProfiles)
      for (std::uint64_t s = 0; s < kHotSeeds; ++s)
        hot_.push_back({p, args.seed * 100 + s});
  }

  /// Starts a fresh server, connects the clients, primes the hot set and
  /// rewinds the clients' request sequences; returns the primed responses'
  /// digests.
  std::vector<std::uint64_t> start() {
    stop();
    rngs_.clear();
    for (unsigned c = 0; c < kClients; ++c)
      rngs_.emplace_back(args_.seed * 1'000'003 + c + 1);
    fresh_count_.assign(kClients, 0);
    mapg::serve::ServerOptions opts;
    opts.exec.jobs = kServerJobs;
    opts.exec.use_disk_cache = false;
    server_ = std::make_unique<mapg::serve::ServeServer>(opts);
    std::string err;
    if (!server_->start(&err)) throw std::runtime_error("server: " + err);
    clients_.clear();
    for (unsigned c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<mapg::serve::ServeClient>());
      if (!clients_.back()->connect("127.0.0.1", server_->port(), &err))
        throw std::runtime_error("connect: " + err);
    }
    std::vector<std::uint64_t> primed;
    for (const CellKey& k : hot_)
      primed.push_back(
          response_digest(clients_[0]->cell(to_request(k), &err)));
    return primed;
  }

  void stop() {
    clients_.clear();
    if (server_) server_->stop();
    server_.reset();
  }

  const std::vector<CellKey>& hot() const { return hot_; }

  /// Closed-loop window of kRequestsPerClient requests per client; `traced`
  /// wraps each request in a span.  Client c draws its sequence from its
  /// own generator seeded by the run seed, and numbers its fresh seeds from
  /// its own counter, so the inputs depend on the seed alone.
  Window run_window(bool traced,
                    const std::vector<std::uint64_t>& hot_digests) {
    Window w;
    std::mutex mu;
    std::vector<std::thread> threads;
    const auto start = Clock::now();
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        std::mt19937_64& rng = rngs_[c];
        Window mine;
        mapg::serve::ServeClient& client = *clients_[c];
        for (std::uint64_t n = 0; n < kRequestsPerClient; ++n) {
          const bool fresh = rng() % kFreshEvery == 0;
          std::size_t hot_index = 0;
          CellKey key;
          if (fresh) {
            key = {kProfiles[rng() % kProfiles.size()],
                   kFreshSeedBase + args_.seed * 1'000'000'000ULL +
                       c * 100'000'000ULL + fresh_count_[c]++};
          } else {
            hot_index = rng() % hot_.size();
            key = hot_[hot_index];
          }
          std::string err;
          std::optional<mapg::Json> doc;
          const auto t0 = Clock::now();
          if (traced) {
            Span span("serve.request", key.id());
            doc = client.cell(to_request(key), &err);
          } else {
            doc = client.cell(to_request(key), &err);
          }
          mine.samples.push_back({1e3 * seconds_since(t0), fresh});
          const std::uint64_t d = response_digest(doc);
          if (d == 0)
            ++mine.errors;
          else if (fresh)
            mine.fresh.push_back({key, d});
          else if (d != hot_digests[hot_index])
            ++mine.hot_mismatches;
        }
        std::lock_guard<std::mutex> lk(mu);
        w.samples.insert(w.samples.end(), mine.samples.begin(),
                         mine.samples.end());
        w.fresh.insert(w.fresh.end(), mine.fresh.begin(), mine.fresh.end());
        w.errors += mine.errors;
        w.hot_mismatches += mine.hot_mismatches;
      });
    }
    for (std::thread& t : threads) t.join();
    w.seconds = seconds_since(start);
    return w;
  }

  mapg::Json stats() {
    std::string err;
    auto doc = clients_[0]->stats(&err);
    if (!doc) throw std::runtime_error("stats: " + err);
    return doc->get("serve");
  }

  ~Bench() { stop(); }

 private:
  const RunArgs& args_;
  std::vector<CellKey> hot_;
  std::unique_ptr<mapg::serve::ServeServer> server_;
  std::vector<std::unique_ptr<mapg::serve::ServeClient>> clients_;
  std::vector<std::mt19937_64> rngs_;
  std::vector<std::uint64_t> fresh_count_;
};

/// Each response is checked: hot ones inside the window against the direct
/// digests, fresh ones here against direct simulation of each key
/// (kClients threads, after the window, so the check never competes with
/// the timing).  Every window asks for the same fresh keys, so `direct`
/// memoizes their digests and only the first window simulates them.
void verify_window(const Window& w, Report& report,
                   std::map<std::string, std::uint64_t>& direct) {
  report.tally(0, w.errors, "serve request failed");
  const std::size_t n_hot = w.samples.size() - w.fresh.size() - w.errors;
  report.tally(n_hot - w.hot_mismatches, w.hot_mismatches,
               "hot response == direct result");
  std::vector<CellKey> todo;
  for (const auto& [key, d] : w.fresh)
    if (direct.count(key.id()) == 0) todo.push_back(key);
  std::vector<std::uint64_t> digests(todo.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kClients; ++t)
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < todo.size();)
        digests[i] = direct_digest(todo[i]);
    });
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < todo.size(); ++i)
    direct[todo[i].id()] = digests[i];
  std::size_t bad = 0;
  for (const auto& [key, d] : w.fresh)
    if (direct.at(key.id()) != d) ++bad;
  report.tally(w.fresh.size() - bad, bad, "fresh response == direct result");
}

std::vector<double> latencies(const Window& w, int which) {
  std::vector<double> out;
  for (const Sample& s : w.samples)
    if (which < 0 || s.fresh == (which == 1)) out.push_back(s.ms);
  return out;
}

}  // namespace

void run_serve_mixed(const RunArgs& args, Report& report) {
  Bench bench(args);

  // Set-up: start the server, connect, prime the hot set.
  std::vector<double> setup_s;
  std::vector<std::uint64_t> primed;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    primed = bench.start();
    setup_s.push_back(seconds_since(t0));
  }
  report.set("setup_s", median(setup_s), "s");

  // Gate: every primed response equals direct simulation of its key, and
  // the hot set is pinned for the default seed.
  std::string all;
  for (std::size_t i = 0; i < bench.hot().size(); ++i) {
    const std::uint64_t d = direct_digest(bench.hot()[i]);
    report.check(primed[i] == d,
                 "primed response == direct for " + bench.hot()[i].id());
    all += hex64(d);
  }
  check_pin(report, args, "serve-mixed/hot-set", mapg::fnv1a64(all));

  // One untraced window on a fresh server.  Its peak RSS covers the
  // server's start, the priming and the request sequence, from a
  // high-water mark restarted after the previous server is gone.
  std::map<std::string, std::uint64_t> direct;
  auto window = [&](double* peak_mb) {
    bench.stop();
    reset_peak_rss();
    report.check(bench.start() == primed, "primed responses repeat");
    Window w = bench.run_window(false, primed);
    *peak_mb = peak_rss_mb();
    return w;
  };

  const double cell_minstr = static_cast<double>(kInstrs + kWarmup) / 1e6;
  const auto start = Clock::now();
  if (!args.trace) {
    std::vector<double> peak, cold, warm, rate;
    do {
      double mb = 0;
      const Window w = window(&mb);
      verify_window(w, report, direct);
      peak.push_back(mb);
      cold.push_back(median(latencies(w, 1)));
      warm.push_back(median(latencies(w, 0)));
      rate.push_back(static_cast<double>(w.samples.size()) * cell_minstr /
                     w.seconds);
    } while (seconds_since(start) < args.seconds);
    report.set("peak_rss_mb", median(peak), "MB");
    report.set("cold_ms", median(cold), "ms");
    report.set("warm_ms", median(warm), "ms");
    report.set("sim_minstr_s", median(rate), "Minstr/s");
    return;
  }

  // Traced: untraced windows for the first half of the time, then traced
  // ones; the server-side histograms and tier counters cover each traced
  // window alone.
  std::vector<double> plain_s;
  do {
    double mb = 0;
    const Window w = window(&mb);
    verify_window(w, report, direct);
    plain_s.push_back(w.seconds);
  } while (seconds_since(start) < args.seconds / 2);

  tracing_begin();
  std::vector<double> traced_s, server_p50, server_p99, client_p50, client_p99;
  std::vector<double> transport_p50, job_p50, job_p99, qps, unattributed;
  std::map<std::string, std::vector<double>> tiers;
  do {
    report.check(bench.start() == primed, "primed responses repeat");
    const mapg::Json before = bench.stats();
    mapg::obs::MetricsRegistry::instance().reset_values();
    const Window w = bench.run_window(true, primed);
    const mapg::Json after = bench.stats();
    verify_window(w, report, direct);

    for (const char* key :
         {"hot_hits", "cache_hits", "replayed", "computed", "coalesced"})
      tiers[key].push_back(static_cast<double>(after.get(key).as_u64() -
                                               before.get(key).as_u64()));
    const mapg::obs::HistogramSnapshot server =
        obs_histogram("serve.request.wall_ns");
    const mapg::obs::HistogramSnapshot jobs = obs_histogram("exec.job.wall_ns");
    const std::vector<double> lat = latencies(w, -1);
    server_p50.push_back(hist_quantile(server, 0.50) / 1e6);
    server_p99.push_back(hist_quantile(server, 0.99) / 1e6);
    client_p50.push_back(quantile(lat, 0.50));
    client_p99.push_back(quantile(lat, 0.99));
    transport_p50.push_back(client_p50.back() - server_p50.back());
    job_p50.push_back(hist_quantile(jobs, 0.50) / 1e6);
    job_p99.push_back(hist_quantile(jobs, 0.99) / 1e6);
    qps.push_back(static_cast<double>(w.samples.size()) / w.seconds);
    traced_s.push_back(w.seconds);
    double client_ms = 0;
    for (double ms : lat) client_ms += ms;
    unattributed.push_back(1 - static_cast<double>(server.sum) / 1e6 /
                                   client_ms);
  } while (seconds_since(start) < args.seconds);
  finish_trace(args);

  report.set("serve.hit.hot", median(tiers["hot_hits"]), "count");
  report.set("serve.hit.cache", median(tiers["cache_hits"]), "count");
  report.set("serve.hit.replay", median(tiers["replayed"]), "count");
  report.set("serve.compute", median(tiers["computed"]), "count");
  report.set("serve.coalesced", median(tiers["coalesced"]), "count");
  report.set("serve.server_p50_ms", median(server_p50), "ms");
  report.set("serve.server_p99_ms", median(server_p99), "ms");
  report.set("serve.client_p50_ms", median(client_p50), "ms");
  report.set("serve.client_p99_ms", median(client_p99), "ms");
  report.set("serve.transport_p50_ms", median(transport_p50), "ms");
  report.set("exec.job.p50_ms", median(job_p50), "ms");
  report.set("exec.job.p99_ms", median(job_p99), "ms");
  report.set("serve.qps", median(qps), "1/s");
  report.set("obs.overhead_frac", median(traced_s) / median(plain_s) - 1,
             "fraction");
  report.set("unattributed_frac", median(unattributed), "fraction");
  std::vector<mapg::SimResult> hot_results;
  for (const CellKey& k : bench.hot()) {
    mapg::SimConfig cfg;
    cfg.instructions = kInstrs;
    cfg.warmup_instructions = kWarmup;
    cfg.run_seed = k.seed;
    hot_results.push_back(
        mapg::Simulator(cfg).run(*mapg::find_profile(k.profile), kPolicy));
  }
  set_model_counts(report, hot_results);
}

}  // namespace perfbench
