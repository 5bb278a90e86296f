// Reproduces Figure 5 of the paper: the §IV-B closed-form analysis of
// locality-first (LF) vs degraded-first (DF) scheduling, as normalized
// MapReduce runtimes (over normal mode) for three parameter sweeps:
//   (a) erasure coding scheme (n,k)
//   (b) number of native blocks F
//   (c) rack download bandwidth W
//
// Paper reference points: reductions of 15-32% in (a), 25-28% in (b),
// 18-43% in (c); DF flat across (a); DF equal at 500 Mbps and 1 Gbps in (c).

#include <iostream>

#include "dfs/analysis/model.h"
#include "dfs/util/flags.h"
#include "dfs/util/table.h"

using namespace dfs;

namespace {

void add_row(util::Table& t, const std::string& label,
             const analysis::ModelParams& p) {
  t.add_row({label, util::Table::num(analysis::normalized_locality_first(p), 3),
             util::Table::num(analysis::normalized_degraded_first(p), 3),
             util::Table::pct(analysis::runtime_reduction_percent(p), 1)});
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagTable flags("fig5_analysis",
                        "Figure 5: closed-form LF vs DF analysis");
  if (const auto status = flags.parse(argc, argv)) return *status;
  std::cout << "Figure 5: numerical analysis, normalized runtimes "
               "(failure mode / normal mode)\n"
            << "Defaults: N=40 R=4 L=4 S=128MB W=1Gbps T=20s F=1440 "
               "(n,k)=(16,12)\n";

  util::print_section(std::cout, "Fig 5(a): vs erasure coding scheme");
  {
    util::Table t({"(n,k)", "LF", "DF", "DF reduction"});
    for (const auto& [n, k] :
         {std::pair{8, 6}, {12, 9}, {16, 12}, {20, 15}}) {
      analysis::ModelParams p;
      p.n = n;
      p.k = k;
      std::string label = "(";
      label += std::to_string(n) + "," + std::to_string(k) + ")";
      add_row(t, label, p);
    }
    std::cout << t << "Paper: DF cuts LF by 15%-32%, growing with k; DF flat.\n";
  }

  util::print_section(std::cout, "Fig 5(b): vs number of blocks F");
  {
    util::Table t({"F", "LF", "DF", "DF reduction"});
    for (const long f : {720L, 1440L, 2160L, 2880L}) {
      analysis::ModelParams p;
      p.num_blocks = f;
      add_row(t, std::to_string(f), p);
    }
    std::cout << t << "Paper: both normalized runtimes fall with F; "
                      "DF cuts LF by 25%-28%.\n";
  }

  util::print_section(std::cout, "Fig 5(c): vs rack download bandwidth W");
  {
    util::Table t({"W", "LF", "DF", "DF reduction"});
    for (const double mbps : {100.0, 200.0, 500.0, 1000.0}) {
      analysis::ModelParams p;
      p.rack_bandwidth = util::megabits_per_sec(mbps);
      add_row(t, util::Table::num(mbps, 0) + "Mbps", p);
    }
    std::cout << t << "Paper: DF identical at 500Mbps and 1Gbps (degraded "
                      "reads fit one round); reductions 18%-43%.\n";
  }
  return 0;
}
