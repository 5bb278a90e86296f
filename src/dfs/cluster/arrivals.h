#pragma once

#include <string>
#include <vector>

#include "dfs/mapreduce/master.h"
#include "dfs/net/topology.h"
#include "dfs/sim/simulator.h"
#include "dfs/util/rng.h"
#include "dfs/workload/scenarios.h"

namespace dfs::cluster {

/// Inter-arrival law of the open-loop job stream.
enum class ArrivalModel {
  kPoisson,  ///< exponential gaps — the classic M/G/k queueing view
  kPareto,   ///< heavy-tailed gaps (bursty traffic; shape > 1 keeps the mean)
  kDiurnal,  ///< Poisson with a sinusoidal day/night rate modulation
};

/// Parses "poisson" / "pareto" / "diurnal"; throws std::invalid_argument.
ArrivalModel parse_arrival_model(const std::string& name);
const char* to_string(ArrivalModel model);

/// One tenant class of a multi-tenant job stream.
struct TenantClass {
  /// Relative share of the arrival stream this class submits (any positive
  /// scale; shares are normalized over the classes). Must be > 0.
  double arrival_share = 1.0;
  /// Multiplier on the template job's input size: the class's jobs carry
  /// round(num_blocks * job_scale) native blocks, rounded to whole stripes
  /// (a multiple of k, at least one stripe). Must be > 0.
  double job_scale = 1.0;
};

struct ArrivalOptions {
  ArrivalModel model = ArrivalModel::kPoisson;
  /// Mean gap between submissions (the diurnal modulation preserves this
  /// time-average over a full period).
  util::Seconds mean_interarrival = 60.0;
  /// Pareto shape; must be > 1 so the mean exists. Smaller = heavier tail.
  double pareto_alpha = 1.5;
  /// Diurnal rate: lambda(t) = base * (1 + amplitude * sin(2*pi*t/period)),
  /// amplitude in [0, 1).
  double diurnal_amplitude = 0.5;
  util::Seconds diurnal_period = 24.0 * 3600.0;
  /// Template of every submitted job. Each arrival gets a fresh randomly
  /// placed erasure-coded input file under these knobs.
  workload::SimJobOptions job;
  /// Tenant classes of the stream. Empty (the default) is the single-tenant
  /// stream: every job lands in class 0, no extra state, no extra RNG draws
  /// — byte-identical to the pre-tenant generator. With classes configured,
  /// each arrival is tagged by a largest-deficit weighted round-robin over
  /// `arrival_share` (deterministic, zero RNG draws) and sized by its
  /// class's `job_scale`.
  std::vector<TenantClass> tenants;
};

/// Open-loop arrival generator: submits jobs into the master's FIFO queue
/// at generated times *while the simulation runs* — the online counterpart
/// of workload::make_multi_job_workload's pre-built batch. The job stream
/// does not react to cluster state (open loop), which is what makes the
/// steady-state latency percentiles meaningful. Admission stops at
/// `horizon`; already-queued jobs still drain.
class ArrivalProcess {
 public:
  ArrivalProcess(sim::Simulator& simulator, mapreduce::Master& master,
                 const net::Topology& topology, ArrivalOptions options,
                 util::Seconds horizon, util::Rng rng);

  /// Arms the first arrival. Call after Master::start(), before
  /// Simulator::run(). The master must be in online mode.
  void start();

  int submitted() const { return submitted_; }

 private:
  void schedule_next();
  void on_candidate();
  /// One draw of the configured inter-arrival law (thinning candidates for
  /// the diurnal model, accepted gaps otherwise).
  util::Seconds next_gap();
  void submit_job();
  /// Tenant class of the next arrival: largest-deficit weighted round-robin
  /// over the classes' arrival shares (no RNG; lowest class id wins ties).
  int next_tenant();

  sim::Simulator& sim_;
  mapreduce::Master& master_;
  const net::Topology& topology_;
  ArrivalOptions options_;
  util::Seconds horizon_;
  util::Rng rng_;
  int submitted_ = 0;
  int next_job_id_ = 0;
  std::vector<double> tenant_share_;  ///< normalized arrival shares
  std::vector<long> tenant_issued_;   ///< jobs tagged per class so far
};

}  // namespace dfs::cluster
