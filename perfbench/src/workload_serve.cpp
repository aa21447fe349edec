/// \file workload_serve.cpp
/// serve_drain: a generated 200-request spool drained on BG/P 4096 cores
/// — Spool::claim_pending → parse_request → CampaignServer::execute →
/// outcome_to_json + Spool::complete → report_to_json — with a 4 × 2
/// sharded plan cache spilling to a fresh directory every drain.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>

#include "replay.hpp"
#include "sample_stats.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/spool.hpp"
#include "util/rng.hpp"
#include "workload/configs.hpp"
#include "workload/machines.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace sv = nestwx::serve;
namespace cg = nestwx::campaign;

constexpr int kRequests = 200;
constexpr double kMeanGap = 30.0;
constexpr int kCores = 4096;

sv::ServeOptions serve_options(const std::string& spill_dir) {
  sv::ServeOptions options;
  options.threads = kThreads;
  options.queue_depth = 16;
  options.aging_rate = 0.01;
  options.cache.shards = 4;
  options.cache.shard_capacity = 2;
  options.cache.spill_dir = spill_dir;
  return options;
}

/// Scratch directories: every spool and spill directory is new, and none
/// is deleted before the run ends, so no drain pays for deleting (or
/// writing back) another drain's files.
class ScratchDirs {
 public:
  explicit ScratchDirs(std::string root) : root_(std::move(root)) {
    fs::remove_all(root_);
  }
  ~ScratchDirs() {
    std::error_code ignored;
    fs::remove_all(root_, ignored);
  }
  ScratchDirs(const ScratchDirs&) = delete;
  ScratchDirs& operator=(const ScratchDirs&) = delete;

  std::string next(const std::string& name) {
    const std::string path = root_ + "/" + name + "-" + std::to_string(count_++);
    fs::create_directories(path);
    return path;
  }

 private:
  std::string root_;
  int count_ = 0;
};

void fill_spool(const std::string& dir, const std::vector<sv::Request>& requests) {
  sv::Spool spool(dir);  // creates done/ and rejected/
  for (const auto& r : requests)
    sv::Spool::submit(dir, r.id, sv::to_json(r) + "\n");
}

struct Drain {
  double wall = 0.0;
  std::string report_json;
  sv::ServeReport report;
  std::size_t requests = 0;
  std::size_t failed = 0;  ///< parse rejects, failed retires, quarantines, timeouts
};

/// One claim → parse → execute → retire → report pass over `spool`.
Drain drain(sv::Spool& spool, sv::CampaignServer& server, Tracer* tracer) {
  Drain out;
  const double t0 = wall_now();
  MaybeScope drain_span(tracer, "serve.drain");
  std::vector<sv::ClaimedRequest> claimed;
  {
    MaybeScope span(tracer, "serve.claim");
    claimed = spool.claim_pending();
  }
  std::vector<sv::Request> requests;
  std::vector<const sv::ClaimedRequest*> sources;
  requests.reserve(claimed.size());
  for (std::size_t i = 0; i < claimed.size(); ++i) {
    MaybeScope span(tracer, "serve.parse", static_cast<std::int64_t>(i));
    try {
      requests.push_back(sv::parse_request(claimed[i].text, claimed[i].name));
      sources.push_back(&claimed[i]);
    } catch (const sv::RequestParseError& e) {
      spool.reject(claimed[i], e.what());
      ++out.failed;
    }
  }
  {
    MaybeScope span(tracer, "serve.execute");
    out.report = server.execute(requests);
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    MaybeScope span(tracer, "serve.retire", static_cast<std::int64_t>(i));
    try {
      spool.complete(*sources[i],
                     sv::outcome_to_json(out.report.outcomes[i]) + "\n");
    } catch (const sv::SpoolError&) {
      ++out.failed;
    }
  }
  {
    MaybeScope span(tracer, "serve.report_json");
    out.report_json =
        sv::report_to_json(out.report, server.machine(), server.options());
  }
  out.wall = wall_now() - t0;
  out.requests = claimed.size();
  for (const auto& o : out.report.outcomes)
    if (o.status == sv::OutcomeStatus::quarantined ||
        o.status == sv::OutcomeStatus::timed_out)
      ++out.failed;
  return out;
}

/// Replay every campaign `report` executed, in service order, through a
/// fresh sharded cache with the drain's options; returns the replay's
/// cache counters and adds the simulated ranks to `ranks`.
sv::ShardedCacheStats replay_campaigns(const sv::ServeReport& report,
                                       const nestwx::topo::MachineParams& machine,
                                       const nestwx::core::PerfModel& model,
                                       const sv::ServeOptions& options,
                                       Tracer& tracer, CheckLog& checks,
                                       double& ranks) {
  MaybeScope root(&tracer, "serve.replay");
  auto sharded = std::make_shared<sv::ShardedPlanCache>(options.cache);
  TimingPlanCache cache(sharded, tracer);
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < report.outcomes.size(); ++i)
    if (report.outcomes[i].executed) order.push_back(i);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return report.outcomes[a].start < report.outcomes[b].start;
  });
  for (const std::size_t index : order) {
    const sv::RequestOutcome& out = report.outcomes[index];
    const sv::Request& r = out.request;
    cg::CampaignOptions copt;
    copt.threads = options.threads;
    copt.sharing = r.sharing;
    copt.max_concurrent = r.max_concurrent;
    copt.use_plan_cache = true;
    copt.run = options.run;
    nestwx::util::Rng rng(r.seed);
    const auto configs = nestwx::workload::random_configs(rng, out.members);
    std::vector<cg::MemberSpec> members;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      cg::MemberSpec spec;
      spec.name = "m" + std::to_string(i);
      spec.config = configs[i];
      spec.iterations = r.iterations;
      spec.strategy = r.strategy;
      spec.allocator = r.allocator;
      spec.scheme = r.scheme;
      members.push_back(std::move(spec));
    }
    const cg::CampaignReport rep =
        replay_campaign(machine, model, cache, members, copt, tracer,
                        static_cast<std::int64_t>(index));
    checks.expect(rep.metrics.makespan == out.campaign.makespan &&
                      rep.metrics.cache_hits == out.campaign.cache_hits,
                  "replayed campaign of " + r.id + " differs from the drain's");
    for (const auto& member : rep.members) ranks += member.ranks;
  }
  return sharded->sharded_stats();
}

}  // namespace

WorkloadResult run_serve_drain(const RunConfig& config) {
  WorkloadResult result;
  CheckLog& checks = result.checks;
  const auto machine = nestwx::workload::bluegene_p(kCores);
  const auto requests = sv::generate_requests(config.seed, kRequests, kMeanGap);
  ScratchDirs dirs(config.work_dir + "/serve");

  std::shared_ptr<const nestwx::core::PerfModel> model;
  result.metrics["setup_s"] = median_setup_seconds([&] {
    model = fit_model(machine, nullptr);
    fill_spool(dirs.next("setup-spool"), requests);
  });

  // Golden probe: the configuration tests/golden/serve_report.json pins.
  // The golden was drained from the generated requests in memory; a spool
  // round trip would round their arrivals to the wire format's 12 digits.
  {
    const auto golden_machine = nestwx::workload::bluegene_l(64);
    sv::CampaignServer server(golden_machine, fit_model(golden_machine, nullptr),
                              serve_options(dirs.next("golden-spill")));
    const sv::ServeReport golden =
        server.execute(sv::generate_requests(7, kRequests, kMeanGap));
    checks.operations(golden.outcomes.size(), 0, "in the golden drain");
    checks.matches_file(
        config.source_root + "/tests/golden/serve_report.json",
        sv::report_to_json(golden, server.machine(), server.options()));
  }

  // One drain on a freshly filled spool and a fresh spill directory.
  auto one_drain = [&](Tracer* tracer) {
    const std::string spool_dir = dirs.next("spool");
    fill_spool(spool_dir, requests);
    sv::CampaignServer server(machine, model, serve_options(dirs.next("spill")));
    sv::Spool spool(spool_dir);
    Drain d = drain(spool, server, tracer);
    checks.operations(d.requests, d.failed, "in a drain");
    checks.expect(d.requests == static_cast<std::size_t>(kRequests),
                  "drain claimed " + std::to_string(d.requests) + " requests");
    checks.same_as_first("serve report", d.report_json);
    return d;
  };

  if (!config.trace) {
    const Measured measured =
        measure(config.seconds, [&] { return one_drain(nullptr).wall; });
    result.metrics["items_per_s"] = kRequests / measured.normalized_wall();
    result.metrics["peak_rss_mb"] = measured.peak_rss_mb;
    std::printf("serve_drain: %zu drains of %d requests, median %.4f s\n",
                measured.walls.size(), kRequests, median(measured.walls));
    return result;
  }

  // Traced: untraced drains (the reference wall) alternate with traced
  // drains, each followed by a replay of its campaigns.
  Tracer tracer;
  fit_model(machine, &tracer);
  double coalesced = 0.0, campaigns = 0.0, hit_ratio = 0.0;
  double spills = 0.0, reloads = 0.0, ranks = 0.0;
  const Paired paired = measure_paired(
      config.seconds, [&] { return one_drain(nullptr).wall; },
      [&] {
        Drain d = one_drain(&tracer);
        const sv::ShardedCacheStats& c = d.report.cache;
        const sv::ShardedCacheStats replayed =
            replay_campaigns(d.report, machine, *model,
                             serve_options(dirs.next("replay-spill")), tracer, checks,
                             ranks);
        checks.expect(replayed.total.hits == c.total.hits &&
                          replayed.total.misses == c.total.misses &&
                          replayed.spills == c.spills &&
                          replayed.reloads == c.reloads,
                      "replayed cache counters differ from the drain's");
        coalesced += static_cast<double>(d.report.metrics.coalesced) /
                     static_cast<double>(d.report.metrics.submitted);
        for (const auto& o : d.report.outcomes) campaigns += o.executed ? 1 : 0;
        hit_ratio += static_cast<double>(c.total.hits) /
                     static_cast<double>(c.total.hits + c.total.misses);
        spills += static_cast<double>(c.spills);
        reloads += static_cast<double>(c.reloads);
        return d.wall;
      });
  const double ops = static_cast<double>(paired.traced.size());
  result.spans = tracer.spans();
  const std::vector<Span>& spans = result.spans;

  std::map<std::string, double>& m = result.metrics;
  const auto total = [&](const char* name) {
    const auto d = durations_of(spans, name);
    return std::accumulate(d.begin(), d.end(), 0.0);
  };
  m["serve.claim_s"] = total("serve.claim") / ops;
  m["serve.parse_s"] = total("serve.parse") / ops;
  m["serve.admission_self_s"] =
      (total("serve.execute") - total("campaign.run")) / ops;
  m["serve.retire_s"] = total("serve.retire") / ops;
  m["serve.report_json_s"] = total("serve.report_json") / ops;
  m["serve.campaigns"] = campaigns / ops;
  m["serve.coalesced_ratio"] = coalesced / ops;
  add_campaign_layers(spans, ops, m);
  m["cache.lookups"] =
      static_cast<double>(durations_of(spans, "cache.lookup").size()) / ops;
  m["cache.hit_ratio"] = hit_ratio / ops;
  m["cache.spills"] = spills / ops;
  m["cache.reloads"] = reloads / ops;
  m["wrfsim.ranks_simulated"] = ranks / ops;
  m["core.fit_s"] = total("core.fit");
  m["wrfsim.profile_basis_s"] = total("wrfsim.profile_basis");

  std::map<std::string, double> layers;
  for (const char* name : {"serve.claim_s", "serve.parse_s",
                           "serve.admission_self_s", "serve.retire_s",
                           "serve.report_json_s", "campaign.run_self_s",
                           "campaign.share_machine_s", "cache.lookup_self_s",
                           "cache.trim_spill_s", "core.plan_s",
                           "wrfsim.simulate_s"})
    layers[name] = m[name];
  finish_trace(m, layers, median(paired.untraced),
               median(paired.traced) / median(paired.untraced) - 1.0,
               paired.cpu_busy);
  return result;
}

}  // namespace perfbench
