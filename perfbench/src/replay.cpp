#include "replay.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "campaign/space_share.hpp"
#include "core/plan_key.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace cg = nestwx::campaign;

TimingPlanCache::TimingPlanCache(std::shared_ptr<cg::PlanCacheBase> inner,
                                 Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {
  NESTWX_REQUIRE(inner_ != nullptr, "timing cache needs a cache to wrap");
}

TimingPlanCache::PlanPtr TimingPlanCache::get_or_compute(
    std::uint64_t key, std::uint64_t stamp, const Compute& compute) {
  Tracer::Scope lookup(tracer_, "cache.lookup");
  return inner_->get_or_compute(key, stamp, [&] {
    Tracer::Scope plan(tracer_, "core.plan");
    return compute();
  });
}

TimingPlanCache::PlanPtr TimingPlanCache::peek(std::uint64_t key) const {
  return inner_->peek(key);
}

std::uint64_t TimingPlanCache::reserve_stamps(std::uint64_t n) {
  return inner_->reserve_stamps(n);
}

void TimingPlanCache::set_capacity(std::size_t capacity) {
  inner_->set_capacity(capacity);
}

std::size_t TimingPlanCache::trim() {
  Tracer::Scope span(tracer_, "cache.trim_spill");
  return inner_->trim();
}

cg::PlanCacheStats TimingPlanCache::stats() const { return inner_->stats(); }

void TimingPlanCache::clear() { inner_->clear(); }

namespace {

struct Job {
  int wave = 0;
  cg::SubMachine sub;
  double weight = 0.0;
  std::uint64_t key = 0;
  bool cache_hit = false;
};

}  // namespace

// Mirrors CampaignScheduler::run (src/campaign/campaign.cpp) step for
// step; the byte-equality check in the workloads catches any drift.
cg::CampaignReport replay_campaign(const nestwx::topo::MachineParams& machine,
                                   const nestwx::core::PerfModel& model,
                                   cg::PlanCacheBase& cache,
                                   std::span<const cg::MemberSpec> members,
                                   const cg::CampaignOptions& options,
                                   Tracer& tracer, std::int64_t op) {
  Tracer::Scope run_span(tracer, "campaign.run", op);
  const int n = static_cast<int>(members.size());

  const long long face_area =
      static_cast<long long>(machine.torus_x) * machine.torus_y;
  long long wave_cap = 1;
  if (options.sharing == cg::Sharing::space) {
    wave_cap = options.max_concurrent > 0
                   ? std::min<long long>(options.max_concurrent, face_area)
                   : face_area;
  }
  std::vector<std::vector<int>> waves;
  for (int i = 0; i < n; ++i) {
    if (waves.empty() ||
        static_cast<long long>(waves.back().size()) >= wave_cap)
      waves.emplace_back();
    waves.back().push_back(i);
  }

  std::vector<Job> jobs(members.size());
  {
    Tracer::Scope share_span(tracer, "campaign.share_machine", op);
    for (int w = 0; w < static_cast<int>(waves.size()); ++w) {
      std::vector<double> weights;
      weights.reserve(waves[w].size());
      for (int i : waves[w])
        weights.push_back(cg::predicted_run_weight(members[i].config, model,
                                                   members[i].iterations));
      std::vector<cg::SubMachine> subs;
      if (options.sharing == cg::Sharing::space) {
        subs = cg::share_machine(machine, weights);
      } else {
        cg::SubMachine whole;
        whole.rect =
            nestwx::procgrid::Rect{0, 0, machine.torus_x, machine.torus_y};
        whole.machine = machine;
        subs.assign(waves[w].size(), whole);
      }
      for (std::size_t j = 0; j < waves[w].size(); ++j) {
        Job& job = jobs[waves[w][j]];
        const cg::MemberSpec& spec = members[waves[w][j]];
        job.wave = w;
        job.sub = std::move(subs[j]);
        job.weight = weights[j];
        job.key = nestwx::core::plan_fingerprint(job.sub.machine, spec.config,
                                                 spec.strategy, spec.allocator,
                                                 spec.scheme);
      }
    }
  }

  std::size_t single_flight_joins = 0;
  if (options.use_plan_cache) {
    std::unordered_map<std::uint64_t, int> first_owner;
    for (int i = 0; i < n; ++i) {
      if (cache.peek(jobs[i].key) != nullptr) {
        jobs[i].cache_hit = true;
        continue;
      }
      auto [it, inserted] = first_owner.emplace(jobs[i].key, i);
      jobs[i].cache_hit = !inserted;
      if (!inserted) ++single_flight_joins;
    }
  }

  std::vector<cg::MemberResult> results(members.size());
  const std::uint64_t stamp_base =
      options.use_plan_cache
          ? cache.reserve_stamps(static_cast<std::uint64_t>(n))
          : 0;
  const int run_id = run_span.id();
  auto run_member = [&](int i) {
    Tracer::Scope member_span(tracer, "campaign.member", op, run_id);
    const cg::MemberSpec& spec = members[i];
    const Job& job = jobs[i];
    auto compute = [&] {
      return nestwx::core::plan_execution(job.sub.machine, spec.config, model,
                                          spec.strategy, spec.allocator,
                                          spec.scheme);
    };
    cg::PlanCache::PlanPtr plan;
    if (options.use_plan_cache) {
      plan = cache.get_or_compute(
          job.key, stamp_base + static_cast<std::uint64_t>(i), compute);
    } else {
      plan = std::make_shared<const nestwx::core::ExecutionPlan>(compute());
    }
    cg::MemberResult& out = results[i];
    out.name = spec.name;
    out.wave = job.wave;
    out.rect = job.sub.rect;
    out.ranks = job.sub.machine.total_ranks();
    out.weight = job.weight;
    out.plan_key = job.key;
    out.cache_hit = job.cache_hit;
    {
      Tracer::Scope simulate_span(tracer, "wrfsim.simulate", op);
      out.run = nestwx::wrfsim::simulate_run(job.sub.machine, spec.config,
                                             *plan, options.run);
    }
    out.run_seconds = out.run.total * spec.iterations;
  };
  if (options.threads == 1) {
    for (int i = 0; i < n; ++i) run_member(i);
  } else {
    nestwx::util::ThreadPool pool(options.threads);
    nestwx::util::parallel_for(pool, n, run_member);
  }

  double wave_start = 0.0;
  for (const auto& wave : waves) {
    double span = 0.0;
    for (int i : wave) {
      results[i].completion_seconds = wave_start + results[i].run_seconds;
      span = std::max(span, results[i].run_seconds);
    }
    wave_start += span;
  }

  cg::CampaignReport report;
  report.members = std::move(results);
  cg::CampaignMetrics& m = report.metrics;
  m.members = n;
  m.waves = static_cast<int>(waves.size());
  m.makespan = wave_start;
  m.throughput = m.makespan > 0.0 ? n / m.makespan : 0.0;
  std::vector<double> latencies;
  latencies.reserve(report.members.size());
  for (const auto& r : report.members)
    latencies.push_back(r.completion_seconds);
  m.latency_mean = nestwx::util::mean(latencies);
  m.latency_p50 = nestwx::util::percentile(latencies, 50.0);
  m.latency_p90 = nestwx::util::percentile(latencies, 90.0);
  m.latency_p99 = nestwx::util::percentile(latencies, 99.0);
  for (const auto& r : report.members) {
    if (r.cache_hit)
      ++m.cache_hits;
    else
      ++m.cache_misses;
  }
  m.cache_hit_rate =
      static_cast<double>(m.cache_hits) / (m.cache_hits + m.cache_misses);
  m.single_flight_joins = single_flight_joins;
  std::size_t widest_wave = 1;
  for (const auto& wave : waves)
    widest_wave = std::max(widest_wave, wave.size());
  m.threads_used = options.threads;
  m.member_thread_budget = std::max(
      1, options.threads /
             std::min(static_cast<int>(widest_wave), options.threads));
  if (options.use_plan_cache) cache.trim();
  report.cache = cache.stats();
  return report;
}

}  // namespace perfbench
