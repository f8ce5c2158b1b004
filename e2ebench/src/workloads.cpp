#include "workloads.hpp"

#include <algorithm>
#include <cmath>

namespace e2e {

namespace {

int scaled(int peers, double scale) {
    return std::max(200, static_cast<int>(std::lround(peers * scale)));
}

// Shared head of every scenario. shards = 1 pins the single-queue engine
// (the simulation runs on one thread whatever NS_SIM_SHARDS says).
std::string head(std::uint64_t seed, int peers, double warmup_days, double window_days,
                 double downloads_per_month) {
    return "seed = " + std::to_string(seed) + "\npeers = " + std::to_string(peers) +
           "\nwarmup_days = " + std::to_string(warmup_days) +
           "\nwindow_days = " + std::to_string(window_days) +
           "\ndownloads_per_peer_per_month = " + std::to_string(downloads_per_month) +
           "\nshards = 1\n";
}

// Dense swarms: three times the 40k rung of the scale ladder over a short
// window. Many concurrent downloaders per object make the event heap and the
// flow solver's refill cascade the dominant cost.
void dense_swarms(std::uint64_t seed, double scale, Workload& w) {
    const int peers = scaled(120000, scale);
    w.ops.push_back({"dense", head(seed, peers, 0.25, 0.25, 6.0), peers});
}

// The bench_robustness chaos matrix, run in sequence: an undisturbed row, one
// row per fault class, three seeded campaigns, and the undisturbed row again
// to check the determinism contract. Row timing and targets follow
// bench_robustness (faults land mid-window of a 3+6-day run). Its 6000 peers
// are cut to 1000 so that a round takes about 10 s and five or six rounds fit
// in a run; every row still keeps delivery far above the 0.95 gate.
void chaos_matrix(std::uint64_t seed, double scale, Workload& w) {
    const int peers = scaled(1000, scale);
    const std::string base = head(seed, peers, 3.0, 6.0, 10.0);
    struct Row {
        const char* name;
        const char* fault;
        double ttr_bound_hours;
    };
    static const Row rows[] = {
        {"undisturbed", "", 0.0},
        {"edge_outage_region", "edge_outage at=6 duration=0.5 region=7", 12.0},
        {"edge_outage_all", "edge_outage at=6 duration=0.0833 region=all", 12.0},
        {"region_partition", "region_partition at=6 duration=0.5 region=7", 12.0},
        {"as_degradation", "as_degradation at=5 duration=2 asn=1703 latency_x=5 rate_x=0.2 loss=0.05",
         24.0},
        {"stun_blackout", "stun_blackout at=5 duration=2", 24.0},
        {"mass_churn", "mass_churn at=6 fraction=0.3", 24.0},
        {"cn_outage", "cn_outage at=6 duration=0.5 region=all", 12.0},
        {"dn_outage", "dn_outage at=6 duration=0.5 region=all", 12.0},
        {"flash_crowd", "flash_crowd at=6 fraction=0.2", 24.0},
    };
    for (const Row& r : rows) {
        OpSpec op{r.name, base, peers, true, r.ttr_bound_hours};
        if (r.fault[0] != '\0') op.scenario += std::string("fault = ") + r.fault + "\n";
        w.ops.push_back(op);
    }
    for (const int campaign_seed : {7, 11, 13}) {
        w.ops.push_back({"campaign_" + std::to_string(campaign_seed),
                         base + "campaign = seed=" + std::to_string(campaign_seed) +
                             " waves=3 mean_concurrent=2 start=4 spacing=1 duration=0.15 "
                             "fraction=0.15\n",
                         peers, true});
    }
    OpSpec twin = w.ops.front();
    twin.name = "undisturbed_repeat";
    twin.twin_of = 0;
    w.ops.push_back(twin);
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"dense_swarms", "chaos_matrix"};
    return names;
}

bool make_workload(const std::string& name, std::uint64_t seed, double peer_scale, Workload& out) {
    out = Workload{name, {}};
    if (name == "dense_swarms")
        dense_swarms(seed, peer_scale, out);
    else if (name == "chaos_matrix")
        chaos_matrix(seed, peer_scale, out);
    else
        return false;
    return true;
}

}  // namespace e2e
