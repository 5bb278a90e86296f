#include "dfs/cluster/arrivals.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dfs::cluster {

ArrivalModel parse_arrival_model(const std::string& name) {
  if (name == "poisson") return ArrivalModel::kPoisson;
  if (name == "pareto") return ArrivalModel::kPareto;
  if (name == "diurnal") return ArrivalModel::kDiurnal;
  throw std::invalid_argument("unknown arrival model: " + name +
                              " (expected poisson | pareto | diurnal)");
}

const char* to_string(ArrivalModel model) {
  switch (model) {
    case ArrivalModel::kPoisson:
      return "poisson";
    case ArrivalModel::kPareto:
      return "pareto";
    case ArrivalModel::kDiurnal:
      return "diurnal";
  }
  return "?";
}

ArrivalProcess::ArrivalProcess(sim::Simulator& simulator,
                               mapreduce::Master& master,
                               const net::Topology& topology,
                               ArrivalOptions options, util::Seconds horizon,
                               util::Rng rng)
    : sim_(simulator),
      master_(master),
      topology_(topology),
      options_(options),
      horizon_(horizon),
      rng_(rng) {
  if (options_.mean_interarrival <= 0.0) {
    throw std::invalid_argument("mean_interarrival must be > 0");
  }
  if (options_.pareto_alpha <= 1.0) {
    throw std::invalid_argument("pareto_alpha must be > 1 (finite mean)");
  }
  if (options_.diurnal_amplitude < 0.0 || options_.diurnal_amplitude >= 1.0) {
    throw std::invalid_argument("diurnal_amplitude must be in [0, 1)");
  }
  if (!options_.tenants.empty()) {
    double total_share = 0.0;
    for (const TenantClass& cls : options_.tenants) {
      if (cls.arrival_share <= 0.0) {
        throw std::invalid_argument("tenant arrival_share must be > 0");
      }
      if (cls.job_scale <= 0.0) {
        throw std::invalid_argument("tenant job_scale must be > 0");
      }
      total_share += cls.arrival_share;
    }
    tenant_share_.reserve(options_.tenants.size());
    for (const TenantClass& cls : options_.tenants) {
      tenant_share_.push_back(cls.arrival_share / total_share);
    }
    tenant_issued_.assign(options_.tenants.size(), 0);
  }
}

void ArrivalProcess::start() { schedule_next(); }

util::Seconds ArrivalProcess::next_gap() {
  switch (options_.model) {
    case ArrivalModel::kPoisson:
      return rng_.exponential(options_.mean_interarrival);
    case ArrivalModel::kPareto: {
      // Pareto with mean = mean_interarrival: x_m = mean * (alpha-1)/alpha,
      // inverse CDF x_m * u^{-1/alpha} over u in (0, 1].
      const double alpha = options_.pareto_alpha;
      const double x_m =
          options_.mean_interarrival * (alpha - 1.0) / alpha;
      const double u = 1.0 - rng_.uniform(0.0, 1.0);  // (0, 1]
      return x_m * std::pow(u, -1.0 / alpha);
    }
    case ArrivalModel::kDiurnal: {
      // Candidate gaps at the peak rate; on_candidate() thins them down to
      // the instantaneous rate (Lewis-Shedler), so the accepted stream is an
      // exact inhomogeneous Poisson process.
      const double peak_rate = (1.0 + options_.diurnal_amplitude) /
                               options_.mean_interarrival;
      return rng_.exponential(1.0 / peak_rate);
    }
  }
  return options_.mean_interarrival;
}

void ArrivalProcess::schedule_next() {
  const util::Seconds at = sim_.now() + next_gap();
  // Strictly before the horizon: admission closes *at* the horizon, and a
  // candidate tying with that event would lose the FIFO tie-break.
  if (at >= horizon_) return;
  sim_.schedule_at(at, [this] { on_candidate(); });
}

void ArrivalProcess::on_candidate() {
  if (options_.model == ArrivalModel::kDiurnal) {
    const double base_rate = 1.0 / options_.mean_interarrival;
    const double rate =
        base_rate * (1.0 + options_.diurnal_amplitude *
                               std::sin(2.0 * M_PI * sim_.now() /
                                        options_.diurnal_period));
    const double peak_rate = base_rate * (1.0 + options_.diurnal_amplitude);
    if (rng_.uniform(0.0, 1.0) * peak_rate > rate) {
      schedule_next();  // thinned-out candidate
      return;
    }
  }
  submit_job();
  schedule_next();
}

int ArrivalProcess::next_tenant() {
  // Largest deficit first: class c is owed share_c * (jobs so far + 1) and
  // has been issued tenant_issued_[c]. Deterministic — no RNG draw — and
  // exact in proportion over any window; lowest class id breaks ties.
  const double target = static_cast<double>(submitted_) + 1.0;
  int best = 0;
  double best_deficit = 0.0;
  for (std::size_t c = 0; c < tenant_share_.size(); ++c) {
    const double deficit =
        tenant_share_[c] * target - static_cast<double>(tenant_issued_[c]);
    if (c == 0 || deficit > best_deficit) {
      best = static_cast<int>(c);
      best_deficit = deficit;
    }
  }
  ++tenant_issued_[static_cast<std::size_t>(best)];
  return best;
}

void ArrivalProcess::submit_job() {
  workload::SimJobOptions opts = options_.job;
  opts.submit_time = sim_.now();
  int tenant = 0;
  if (!options_.tenants.empty()) {
    tenant = next_tenant();
    const TenantClass& cls =
        options_.tenants[static_cast<std::size_t>(tenant)];
    if (cls.job_scale != 1.0) {
      // Scale the input in whole stripes so the layout stays legal.
      const double blocks =
          static_cast<double>(opts.num_blocks) * cls.job_scale;
      const int stripes = std::max(
          1, static_cast<int>(std::lround(blocks / opts.k)));
      opts.num_blocks = stripes * opts.k;
    }
  }
  mapreduce::JobInput job =
      workload::make_sim_job(next_job_id_++, opts, topology_, rng_);
  job.spec.tenant = tenant;
  master_.submit(job);
  ++submitted_;
}

}  // namespace dfs::cluster
