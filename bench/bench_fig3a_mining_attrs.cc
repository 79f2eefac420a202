// Figure 3a: ARP mining runtime vs. number of attributes A (Crime dataset,
// D = 10k, psi = 4, theta = 0.5, lambda = 0.5, delta = 15, Delta = 15).
//
// Expected shape: runtime grows ~A^4 (the candidate count with psi = 4);
// NAIVE is orders of magnitude slower than the shared miners (the paper
// reports 18,000 s at A = 7 and omits the point); ARP-MINE <= SHARE-GRP,
// both beat CUBE with a margin that grows in A.
//
// NAIVE is run only for A <= kNaiveMaxAttrs to keep the harness runnable;
// set CAPE_BENCH_FULL=1 to extend the sweep to A = 11.

#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "datagen/crime.h"
#include "pattern/mining.h"

using namespace cape;         // NOLINT
using namespace cape::bench;  // NOLINT

int main(int argc, char** argv) {
  Banner("Figure 3a", "Mining runtime vs #attributes (Crime, D=10k) — NAIVE/CUBE/SHARE-GRP/ARP-MINE");

  const std::string json_path = ParseJsonPath(argc, argv);
  BenchJson json("fig3a_mining_attrs");

  const bool full = std::getenv("CAPE_BENCH_FULL") != nullptr;
  const int max_attrs = full ? 11 : 9;
  constexpr int kNaiveMaxAttrs = 5;
  json.AddConfig("dataset", "crime");
  json.AddConfig("num_rows", static_cast<int64_t>(10000));
  json.AddConfig("max_attrs", static_cast<int64_t>(max_attrs));

  std::printf("%-4s %12s %12s %12s %12s %10s\n", "A", "NAIVE(s)", "CUBE(s)",
              "SHARE-GRP(s)", "ARP-MINE(s)", "patterns");
  for (int attrs = 4; attrs <= max_attrs; ++attrs) {
    CrimeOptions data;
    data.num_rows = 10000;
    data.num_attrs = attrs;
    data.seed = 7;
    auto table = CheckResult(GenerateCrime(data), "GenerateCrime");
    const MiningConfig config = PaperMiningConfig();

    double naive_s = -1.0;
    if (attrs <= kNaiveMaxAttrs) {
      auto result = CheckResult(MakeNaiveMiner()->Mine(*table, config), "NAIVE");
      naive_s = result.profile.total_ns * 1e-9;
    }
    auto cube = CheckResult(MakeCubeMiner()->Mine(*table, config), "CUBE");
    auto share = CheckResult(MakeShareGrpMiner()->Mine(*table, config), "SHARE-GRP");
    auto arp = CheckResult(MakeArpMiner()->Mine(*table, config), "ARP-MINE");

    char naive_buf[32];
    if (naive_s >= 0) {
      std::snprintf(naive_buf, sizeof(naive_buf), "%.2f", naive_s);
    } else {
      std::snprintf(naive_buf, sizeof(naive_buf), "(omitted)");
    }
    std::printf("%-4d %12s %12.2f %12.2f %12.2f %10zu\n", attrs, naive_buf,
                cube.profile.total_ns * 1e-9, share.profile.total_ns * 1e-9,
                arp.profile.total_ns * 1e-9, arp.patterns.size());

    json.BeginResult();
    json.Add("num_attrs", static_cast<int64_t>(attrs));
    if (naive_s >= 0) json.Add("naive_s", naive_s);
    json.Add("cube_s", cube.profile.total_ns * 1e-9);
    json.Add("share_grp_s", share.profile.total_ns * 1e-9);
    json.Add("arp_mine_s", arp.profile.total_ns * 1e-9);
    json.Add("patterns", static_cast<int64_t>(arp.patterns.size()));
  }
  if (!full) {
    std::printf("\n(set CAPE_BENCH_FULL=1 to extend the sweep to A=11)\n");
  }
  if (!json_path.empty()) json.Write(json_path);
  return 0;
}
