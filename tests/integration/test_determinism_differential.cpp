// Determinism suite: the repo's core contract — same seed and scenario ⇒
// byte-identical trace — checked for every shipped scenario preset, plus the
// independence of concurrently running Simulations.
//
//   - ScenarioDeterminism: every scenarios/*.ini runs twice at a truncated
//     horizon; the two saved traces must be byte-identical.
//   - ConcurrentSimulations: two truncated scenarios run at the same time on
//     two threads, each owning its Simulation; each saved trace must equal
//     the trace of a serial run. A Simulation touches no process-wide state,
//     which is what lets independent runs share the cores (tools/ci.sh runs
//     this under TSan).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario_io.hpp"
#include "core/simulation.hpp"
#include "trace/serialize.hpp"

namespace netsession {
namespace {

std::vector<std::string> list_scenarios() {
    std::vector<std::string> names;
    for (const auto& entry :
         std::filesystem::directory_iterator(std::string(NS_SOURCE_DIR) + "/scenarios"))
        if (entry.path().extension() == ".ini") names.push_back(entry.path().stem().string());
    std::sort(names.begin(), names.end());
    return names;
}

SimulationConfig load_truncated(const std::string& name) {
    const auto loaded =
        load_scenario(std::string(NS_SOURCE_DIR) + "/scenarios/" + name + ".ini");
    EXPECT_TRUE(loaded.ok()) << (loaded.ok() ? "" : loaded.error().message);
    SimulationConfig config = loaded.ok() ? loaded.value() : SimulationConfig{};
    // Truncated horizon: the suite's power comes from breadth (every
    // scenario, repeated), not from long windows.
    config.peers = std::min(config.peers, 300);
    config.as_graph.total_ases = std::min(config.as_graph.total_ases, 300);
    config.behavior.warmup = std::min(config.behavior.warmup, sim::days(0.3));
    config.behavior.window = std::min(config.behavior.window, sim::days(0.8));
    config.behavior.downloads_per_peer_per_month =
        std::max(config.behavior.downloads_per_peer_per_month, 30.0);
    return config;
}

/// Runs `config`, saves the trace as `netsession_sim run` does and returns
/// the file's bytes. `tag` keeps concurrent callers' files apart.
std::string run_and_save(const SimulationConfig& config, const std::string& tag) {
    Simulation sim(config);
    sim.run();
    trace::Dataset dataset;
    dataset.log = sim.trace();
    sim.geodb().for_each(
        [&](net::IpAddr ip, const net::GeoRecord& rec) { dataset.geodb.register_ip(ip, rec); });
    const auto path = (std::filesystem::temp_directory_path() /
                       ("ns_determinism_" + std::to_string(::getpid()) + "_" + tag + ".nstrace"))
                          .string();
    EXPECT_TRUE(trace::save_dataset(dataset, path)) << path;
    std::ifstream in(path, std::ios::binary);
    std::string bytes(std::istreambuf_iterator<char>(in), {});
    in.close();
    std::filesystem::remove(path);
    return bytes;
}

class ScenarioDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioDeterminism, DoubleRunTracesAreByteIdentical) {
    const SimulationConfig config = load_truncated(GetParam());
    const std::string a = run_and_save(config, GetParam() + "_a");
    const std::string b = run_and_save(config, GetParam() + "_b");
    ASSERT_GT(a.size(), 1000u) << "truncated run must still produce a trace";
    EXPECT_EQ(a.size(), b.size());
    EXPECT_TRUE(a == b) << "two runs of " << GetParam() << " saved different traces";
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ScenarioDeterminism, ::testing::ValuesIn(list_scenarios()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                             std::string name = info.param;
                             for (char& c : name)
                                 if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                             return name;
                         });

TEST(ConcurrentSimulations, ThreadedTracesMatchSerialRuns) {
    const std::vector<std::string> names = {"chaos_campaign", "paper_standard"};
    std::vector<SimulationConfig> configs;
    std::vector<std::string> serial;
    for (const auto& name : names) {
        configs.push_back(load_truncated(name));
        serial.push_back(run_and_save(configs.back(), name + "_serial"));
    }

    std::vector<std::string> threaded(names.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < names.size(); ++i)
        threads.emplace_back([&, i] { threaded[i] = run_and_save(configs[i], names[i] + "_thread"); });
    for (auto& t : threads) t.join();

    for (std::size_t i = 0; i < names.size(); ++i) {
        ASSERT_GT(serial[i].size(), 1000u) << names[i];
        EXPECT_TRUE(threaded[i] == serial[i])
            << names[i] << ": a concurrent run saved a different trace than the serial run";
    }
}

}  // namespace
}  // namespace netsession
