// The benchmark's workloads: each is a fixed list of simulations ("operations")
// described as scenario text, so every stage starts from the public
// load_scenario() entry point exactly as `netsession_sim run` does.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// One simulation carried through simulate -> save -> load -> analyse.
struct OpSpec {
    std::string name;
    std::string scenario;   // scenario file text (core/scenario_io grammar)
    int peers = 0;
    bool chaos = false;     // recovery report + delivery gate
    double ttr_bound_hours = 0.0;  // > 0: a single-fault row whose recovery time is gated
    int twin_of = -1;       // index of an earlier op whose trace file must match byte for byte
};

struct Workload {
    std::string name;
    std::vector<OpSpec> ops;
};

/// Names accepted by make_workload, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds a workload for `seed`. `peer_scale` multiplies every population
/// (1.0 for measurement runs; the self-test shrinks to a few hundred peers).
/// Returns false for an unknown name.
bool make_workload(const std::string& name, std::uint64_t seed, double peer_scale, Workload& out);

}  // namespace e2e
