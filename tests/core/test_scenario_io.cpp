// Scenario file parsing and round trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/scenario_io.hpp"

namespace netsession {
namespace {

TEST(ScenarioIo, ParsesKnobsAndComments) {
    const auto result = parse_scenario(R"(
# a comment line
peers = 1234          # trailing comment
window_days = 7.5
disable_p2p = true
random_selection = yes
seed = 99
max_peer_sources = 4
)");
    ASSERT_TRUE(result.ok()) << result.error().message;
    const SimulationConfig& c = result.value();
    EXPECT_EQ(c.peers, 1234);
    EXPECT_DOUBLE_EQ(c.behavior.window.seconds(), 7.5 * 86400);
    EXPECT_TRUE(c.disable_p2p);
    EXPECT_EQ(c.control.selection.strategy, control::SelectionPolicy::Strategy::random);
    EXPECT_EQ(c.seed, 99u);
    EXPECT_EQ(c.client.max_peer_sources, 4);
}

TEST(ScenarioIo, EmptyTextGivesDefaults) {
    const auto result = parse_scenario("");
    ASSERT_TRUE(result.ok());
    const SimulationConfig defaults;
    EXPECT_EQ(result.value().peers, defaults.peers);
    EXPECT_EQ(result.value().seed, defaults.seed);
    EXPECT_FALSE(result.value().disable_p2p);
}

TEST(ScenarioIo, UnknownKeyIsAnError) {
    const auto result = parse_scenario("peerz = 100\n");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("unknown key"), std::string::npos);
    EXPECT_NE(result.error().message.find("line 1"), std::string::npos);
}

TEST(ScenarioIo, BadValueIsAnError) {
    EXPECT_FALSE(parse_scenario("peers = lots\n").ok());
    EXPECT_FALSE(parse_scenario("disable_p2p = maybe\n").ok());
    EXPECT_FALSE(parse_scenario("peers 100\n").ok()) << "missing '='";
}

TEST(ScenarioIo, DescribeRoundTrips) {
    SimulationConfig config;
    config.peers = 777;
    config.seed = 31337;
    config.behavior.warmup = sim::days(3.25);
    config.disable_p2p = true;
    config.control.cross_region_threshold = 0;
    const auto result = parse_scenario(describe_scenario(config));
    ASSERT_TRUE(result.ok()) << result.error().message;
    EXPECT_EQ(result.value().peers, 777);
    EXPECT_EQ(result.value().seed, 31337u);
    EXPECT_DOUBLE_EQ(result.value().behavior.warmup.seconds(), 3.25 * 86400);
    EXPECT_TRUE(result.value().disable_p2p);
    EXPECT_EQ(result.value().control.cross_region_threshold, 0);
}

TEST(ScenarioIo, ShardsKnobParsesPrintsAndDefaults) {
    // Files written for the removed region-sharded engine pin `shards = 1`;
    // that line still loads as a no-op and leaves the rest of the file intact.
    const auto one = parse_scenario("peers = 100\nshards = 1\n");
    ASSERT_TRUE(one.ok()) << one.error().message;
    EXPECT_EQ(one.value().peers, 100);

    // The knob is no longer printed, and a written scenario loads to the
    // same configuration with or without the legacy line.
    const std::string written = describe_scenario(SimulationConfig{});
    EXPECT_EQ(written.find("shards"), std::string::npos);
    const auto plain = parse_scenario(written);
    const auto pinned = parse_scenario(written + "shards = 1\n");
    ASSERT_TRUE(plain.ok()) << plain.error().message;
    ASSERT_TRUE(pinned.ok()) << pinned.error().message;
    EXPECT_EQ(describe_scenario(plain.value()), describe_scenario(pinned.value()));
}

TEST(ScenarioIo, ShardsKnobRejectsInvalidCounts) {
    // Any value but 1 names the removal instead of passing silently.
    for (const char* line : {"shards = 4\n", "shards = 0\n", "shards = -2\n", "shards = 65\n",
                             "shards = 2.5\n", "shards = one\n"}) {
        const auto other = parse_scenario(std::string("seed = 3\n") + line);
        ASSERT_FALSE(other.ok()) << line;
        EXPECT_NE(other.error().message.find("line 2"), std::string::npos) << line;
        EXPECT_NE(other.error().message.find("sharded engine was removed"), std::string::npos)
            << other.error().message;
    }
}

TEST(ScenarioIo, TemplateIsLoadable) {
    const std::string path = ::testing::TempDir() + "/scenario.ini";
    ASSERT_TRUE(write_scenario_template(path));
    const auto result = load_scenario(path);
    ASSERT_TRUE(result.ok()) << result.error().message;
    EXPECT_EQ(result.value().peers, SimulationConfig{}.peers);
    std::remove(path.c_str());
}

TEST(ScenarioIo, MissingFileReportsNotFound) {
    const auto result = load_scenario("/definitely/not/here.ini");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, Error::Code::not_found);
}

TEST(ScenarioIo, ShippedPresetsAllParse) {
    // The scenarios/ presets are part of the release; a template-format
    // change must not silently break them.
    for (const char* name :
         {"paper_standard.ini", "infrastructure_only.ini", "random_selection.ini",
          "under_attack.ini", "strict_local_dns.ini"}) {
        const std::string path = std::string(NS_SOURCE_DIR) + "/scenarios/" + name;
        const auto result = load_scenario(path);
        EXPECT_TRUE(result.ok()) << name << ": "
                                 << (result.ok() ? "" : result.error().message);
    }
    const auto attack =
        load_scenario(std::string(NS_SOURCE_DIR) + "/scenarios/under_attack.ini");
    ASSERT_TRUE(attack.ok());
    EXPECT_DOUBLE_EQ(attack.value().behavior.attacker_fraction, 0.1);
    const auto infra =
        load_scenario(std::string(NS_SOURCE_DIR) + "/scenarios/infrastructure_only.ini");
    ASSERT_TRUE(infra.ok());
    EXPECT_TRUE(infra.value().disable_p2p);
}

TEST(ScenarioIo, LoadedScenarioActuallyRuns) {
    const auto result = parse_scenario(R"(
peers = 150
window_days = 1
warmup_days = 0.2
downloads_per_peer_per_month = 40
seed = 5
)");
    ASSERT_TRUE(result.ok());
    Simulation sim(result.value());
    sim.run();
    EXPECT_GT(sim.trace().downloads().size(), 10u);
}

}  // namespace
}  // namespace netsession
