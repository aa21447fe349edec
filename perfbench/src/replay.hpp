#pragma once
/// \file replay.hpp
/// Traced replays of campaign execution through public functions only.
///
/// CampaignScheduler::run is one opaque call, so the traced mode replays
/// it step by step in the scheduler's own order — predicted weights and
/// share_machine per wave, plan_fingerprint, the plan cache (whose
/// compute runs plan_execution) and simulate_run per member on a fresh
/// 4-thread pool, then the quiescent trim — with a span around each call.
/// The replay builds the same CampaignReport the scheduler would, so the
/// benchmark can check it byte for byte against the real call's report.

#include <cstdint>
#include <memory>
#include <span>

#include "campaign/campaign.hpp"
#include "campaign/plan_cache.hpp"
#include "span_trace.hpp"

namespace perfbench {

/// A PlanCacheBase that forwards to a real cache and records a
/// "cache.lookup" span per get_or_compute (with "core.plan" around the
/// compute it runs on a miss) and a "cache.trim_spill" span per trim.
/// Hand it to the CampaignScheduler constructor that takes a cache to see
/// cache and planning time inside opaque library calls.
class TimingPlanCache : public nestwx::campaign::PlanCacheBase {
 public:
  TimingPlanCache(std::shared_ptr<nestwx::campaign::PlanCacheBase> inner,
                  Tracer& tracer);

  PlanPtr get_or_compute(std::uint64_t key, std::uint64_t stamp,
                         const Compute& compute) override;
  using nestwx::campaign::PlanCacheBase::get_or_compute;
  PlanPtr peek(std::uint64_t key) const override;
  std::uint64_t reserve_stamps(std::uint64_t n) override;
  void set_capacity(std::size_t capacity) override;
  std::size_t trim() override;
  nestwx::campaign::PlanCacheStats stats() const override;
  void clear() override;

 private:
  std::shared_ptr<nestwx::campaign::PlanCacheBase> inner_;
  Tracer& tracer_;
};

/// Replay CampaignScheduler::run(members, options) against `cache`, under
/// a "campaign.run" span (op = `op`) whose children are
/// "campaign.share_machine", one "campaign.member" per member (on pool
/// threads) holding the cache spans and "wrfsim.simulate", and the
/// cache's trim span. Returns the report CampaignScheduler::run would.
nestwx::campaign::CampaignReport replay_campaign(
    const nestwx::topo::MachineParams& machine,
    const nestwx::core::PerfModel& model, nestwx::campaign::PlanCacheBase& cache,
    std::span<const nestwx::campaign::MemberSpec> members,
    const nestwx::campaign::CampaignOptions& options, Tracer& tracer,
    std::int64_t op);

}  // namespace perfbench
