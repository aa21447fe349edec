/// \file workload_campaign.cpp
/// campaign_cold / campaign_warm / campaign_faulted: 48 distinct
/// workload::random_configs members on BG/P 16384 cores under time
/// sharing (every member on the full machine), one CampaignScheduler
/// cycle per repetition.
///
///  * cold    — an empty in-memory PlanCache: every member plans.
///  * warm    — the cache holds every member's plan (the state after a
///              cold cycle): every member hits, nothing plans.
///  * faulted — fault::run_with_faults from that warm state under eight
///              seeded node faults (see below): replans on degraded
///              sub-machines plus the serial recovery loop.

#include <cstdio>
#include <memory>

#include "campaign/campaign.hpp"
#include "fault/recovery.hpp"
#include "replay.hpp"
#include "sample_stats.hpp"
#include "util/rng.hpp"
#include "workload/configs.hpp"
#include "workload/machines.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace cg = nestwx::campaign;

constexpr int kMembers = 48;
constexpr int kCores = 16384;
constexpr int kFaults = 8;

std::vector<cg::MemberSpec> make_members(std::uint64_t seed) {
  nestwx::util::Rng rng(seed);
  const auto configs = nestwx::workload::random_configs(rng, kMembers);
  std::vector<cg::MemberSpec> members;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    cg::MemberSpec spec;
    spec.name = "m" + std::to_string(i);
    spec.config = configs[i];
    members.push_back(std::move(spec));
  }
  return members;
}

/// `json` without the lines that carry cache hit/miss information.
std::string strip_cache_fields(const std::string& json) {
  std::string out;
  std::size_t begin = 0;
  while (begin < json.size()) {
    std::size_t end = json.find('\n', begin);
    end = end == std::string::npos ? json.size() : end + 1;
    const std::string line = json.substr(begin, end - begin);
    if (line.find("\"cache_hit") == std::string::npos &&
        line.find("\"cache_misses\"") == std::string::npos &&
        line.find("\"single_flight_joins\"") == std::string::npos &&
        line.find("\"plan_cache\": {") == std::string::npos)
      out += line;
    begin = end;
  }
  return out;
}

const char* phase_name(CampaignPhase phase) {
  switch (phase) {
    case CampaignPhase::cold: return "campaign_cold";
    case CampaignPhase::warm: return "campaign_warm";
    case CampaignPhase::faulted: return "campaign_faulted";
  }
  return "?";
}

/// What one cycle produced.
struct Cycle {
  double wall = 0.0;
  std::string json;
  double hit_ratio = 0.0;
  double ranks = 0.0;
  int recoveries = 0;
};

}  // namespace

WorkloadResult run_campaign(const RunConfig& config, CampaignPhase phase) {
  WorkloadResult result;
  CheckLog& checks = result.checks;
  const auto machine = nestwx::workload::bluegene_p(kCores);
  const auto members = make_members(config.seed);
  cg::CampaignOptions options;
  options.threads = kThreads;
  options.sharing = cg::Sharing::time;

  std::shared_ptr<const nestwx::core::PerfModel> model;
  result.metrics["setup_s"] =
      median_setup_seconds([&] { model = fit_model(machine, nullptr); });

  // Reference cold cycle (untimed): its plans seed the warm state, its
  // makespan is the fault horizon, its report is what warm must match.
  cg::CampaignScheduler reference(machine, model);
  const cg::CampaignReport cold = reference.run(members, options);
  const std::string cold_json = cg::report_to_json(cold, machine, options);
  // Node faults only, in the two southern rows of the torus face, all in
  // the first eighth of the campaign: every seed degrades the machine to
  // the same 16×14 face early on, so nearly every later member is
  // replanned on it. The seed moves the faults; the amount of recovery
  // work, and with it the cycle time, does not hinge on where they land.
  nestwx::fault::FaultOptions faults;
  faults.plan = nestwx::fault::FaultPlan::random(
      config.seed, kFaults, cold.metrics.makespan / 8.0, machine.torus_x,
      /*face_y=*/2, /*link_fraction=*/0.0);

  // A fresh cache holding every member's plan: the post-cold state.
  auto warm_cache = [&] {
    auto cache = std::make_shared<cg::PlanCache>();
    for (const auto& member : cold.members) {
      const cg::PlanCacheBase::PlanPtr plan =
          reference.cache().peek(member.plan_key);
      cache->get_or_compute(member.plan_key, [&] { return *plan; });
    }
    return std::shared_ptr<cg::PlanCacheBase>(cache);
  };

  // One cycle; traced cycles replay the scheduler (cold, warm) or wrap
  // its cache (faulted) with spans.
  auto cycle = [&](Tracer* tracer, int rep) {
    std::shared_ptr<cg::PlanCacheBase> cache =
        phase == CampaignPhase::cold ? std::make_shared<cg::PlanCache>()
                                     : warm_cache();
    if (tracer != nullptr)
      cache = std::make_shared<TimingPlanCache>(cache, *tracer);
    Cycle c;
    const double t0 = wall_now();
    if (phase == CampaignPhase::faulted) {
      cg::CampaignScheduler scheduler(machine, model, cache);
      MaybeScope span(tracer, "fault.run", rep);
      if (tracer != nullptr) tracer->set_orphan_parent(span.id());
      const nestwx::fault::FaultCampaignReport report =
          nestwx::fault::run_with_faults(scheduler, members, options, faults);
      if (tracer != nullptr) tracer->set_orphan_parent(-1);
      c.wall = wall_now() - t0;
      c.json = nestwx::fault::report_to_json(report, machine, options, faults);
      c.hit_ratio = report.campaign.metrics.cache_hit_rate;
      c.recoveries = report.metrics.recoveries;
      return c;
    }
    cg::CampaignReport report;
    if (tracer != nullptr) {
      report = replay_campaign(machine, *model, *cache, members, options,
                               *tracer, rep);
    } else {
      cg::CampaignScheduler scheduler(machine, model, cache);
      report = scheduler.run(members, options);
    }
    c.wall = wall_now() - t0;
    c.json = cg::report_to_json(report, machine, options);
    c.hit_ratio = report.metrics.cache_hit_rate;
    for (const auto& member : report.members) c.ranks += member.ranks;
    return c;
  };

  auto checked_cycle = [&](Tracer* tracer, int rep) {
    Cycle c;
    try {
      c = cycle(tracer, rep);
    } catch (const std::exception& e) {
      checks.expect(false, std::string("cycle threw: ") + e.what());
      return c;
    }
    checks.operations(kMembers, 0, "members");
    // Traced replays must reproduce the scheduler's report byte for byte.
    checks.same_as_first("campaign report", c.json);
    if (phase == CampaignPhase::warm) {
      checks.expect(c.hit_ratio == 1.0, "warm cycle missed the plan cache");
      checks.expect(strip_cache_fields(c.json) == strip_cache_fields(cold_json),
                    "warm cycle differs from the cold one beyond cache flags");
    }
    return c;
  };

  if (!config.trace) {
    const Measured measured = measure(
        config.seconds, [&] { return checked_cycle(nullptr, 0).wall; });
    result.metrics["items_per_s"] = kMembers / measured.normalized_wall();
    result.metrics["peak_rss_mb"] = measured.peak_rss_mb;
    std::printf("%s: %zu cycles of %d members, median %.4f s\n",
                phase_name(phase), measured.walls.size(), kMembers,
                median(measured.walls));
    return result;
  }

  Tracer tracer;
  fit_model(machine, &tracer);
  double hit_ratio = 0.0, ranks = 0.0, recoveries = 0.0;
  int rep = 0;
  const Paired paired = measure_paired(
      config.seconds, [&] { return checked_cycle(nullptr, 0).wall; },
      [&] {
        const Cycle c = checked_cycle(&tracer, rep++);
        hit_ratio += c.hit_ratio;
        ranks += c.ranks;
        recoveries += c.recoveries;
        return c.wall;
      });
  const double ops = static_cast<double>(paired.traced.size());
  result.spans = tracer.spans();
  const std::vector<Span>& spans = result.spans;

  std::map<std::string, double>& m = result.metrics;
  add_campaign_layers(spans, ops, m);
  if (phase == CampaignPhase::faulted) m["campaign.members"] = kMembers;
  m["cache.lookups"] =
      static_cast<double>(durations_of(spans, "cache.lookup").size()) / ops;
  m["cache.hit_ratio"] = hit_ratio / ops;
  m["wrfsim.ranks_simulated"] = ranks / ops;
  m["fault.recoveries"] = recoveries / ops;
  if (phase == CampaignPhase::faulted) m["fault.replans"] = m["core.plan_calls"];
  m["core.fit_s"] = durations_of(spans, "core.fit").at(0);
  m["wrfsim.profile_basis_s"] = durations_of(spans, "wrfsim.profile_basis").at(0);

  std::map<std::string, double> layers;
  for (const char* name :
       {"campaign.run_self_s", "campaign.share_machine_s", "cache.lookup_self_s",
        "cache.trim_spill_s", "core.plan_s", "wrfsim.simulate_s",
        "fault.run_self_s"})
    layers[name] = m[name];
  finish_trace(m, layers, median(paired.untraced),
               median(paired.traced) / median(paired.untraced) - 1.0,
               paired.cpu_busy);
  return result;
}

}  // namespace perfbench
