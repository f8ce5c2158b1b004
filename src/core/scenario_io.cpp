#include "core/scenario_io.hpp"

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

namespace netsession {

namespace {

std::string trim(const std::string& s) {
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos) return "";
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

bool parse_bool(const std::string& v, bool& out) {
    if (v == "true" || v == "1" || v == "yes") {
        out = true;
        return true;
    }
    if (v == "false" || v == "0" || v == "no") {
        out = false;
        return true;
    }
    return false;
}

/// One settable knob: how to apply a value string, and how to print it.
struct Knob {
    std::function<bool(SimulationConfig&, const std::string&)> set;
    std::function<std::string(const SimulationConfig&)> get;
    const char* comment;
};

template <typename Get, typename Set>
Knob double_knob(Get get, Set set, const char* comment) {
    return Knob{[set](SimulationConfig& c, const std::string& v) {
                    try {
                        std::size_t used = 0;
                        const double d = std::stod(v, &used);
                        if (used != v.size()) return false;
                        set(c, d);
                        return true;
                    } catch (...) {
                        return false;
                    }
                },
                [get](const SimulationConfig& c) {
                    char buf[48];
                    std::snprintf(buf, sizeof(buf), "%g", get(c));
                    return std::string(buf);
                },
                comment};
}

template <typename Get, typename Set>
Knob bool_knob(Get get, Set set, const char* comment) {
    return Knob{[set](SimulationConfig& c, const std::string& v) {
                    bool b = false;
                    if (!parse_bool(v, b)) return false;
                    set(c, b);
                    return true;
                },
                [get](const SimulationConfig& c) {
                    return std::string(get(c) ? "true" : "false");
                },
                comment};
}

const std::map<std::string, Knob>& knobs() {
    static const std::map<std::string, Knob> table = {
        {"seed", double_knob([](const SimulationConfig& c) { return double(c.seed); },
                             [](SimulationConfig& c, double v) { c.seed = std::uint64_t(v); },
                             "master seed; every random stream derives from it")},
        {"peers", double_knob([](const SimulationConfig& c) { return double(c.peers); },
                              [](SimulationConfig& c, double v) { c.peers = int(v); },
                              "peer population size")},
        {"window_days",
         double_knob([](const SimulationConfig& c) { return c.behavior.window.seconds() / 86400; },
                     [](SimulationConfig& c, double v) { c.behavior.window = sim::days(v); },
                     "measurement window length")},
        {"warmup_days",
         double_knob([](const SimulationConfig& c) { return c.behavior.warmup.seconds() / 86400; },
                     [](SimulationConfig& c, double v) { c.behavior.warmup = sim::days(v); },
                     "warm-up before the trace window (swarms form, trace discarded)")},
        {"downloads_per_peer_per_month",
         double_knob(
             [](const SimulationConfig& c) { return c.behavior.downloads_per_peer_per_month; },
             [](SimulationConfig& c, double v) { c.behavior.downloads_per_peer_per_month = v; },
             "download demand intensity")},
        {"sessions_per_day",
         double_knob([](const SimulationConfig& c) { return c.behavior.sessions_per_day; },
                     [](SimulationConfig& c, double v) { c.behavior.sessions_per_day = v; },
                     "mean machine sessions per day")},
        {"frac_always_on",
         double_knob([](const SimulationConfig& c) { return c.behavior.frac_always_on; },
                     [](SimulationConfig& c, double v) { c.behavior.frac_always_on = v; },
                     "share of machines logged in ~around the clock")},
        {"attacker_fraction",
         double_knob([](const SimulationConfig& c) { return c.behavior.attacker_fraction; },
                     [](SimulationConfig& c, double v) { c.behavior.attacker_fraction = v; },
                     "share of peers submitting inflated usage reports")},
        {"total_ases",
         double_knob([](const SimulationConfig& c) { return double(c.as_graph.total_ases); },
                     [](SimulationConfig& c, double v) { c.as_graph.total_ases = int(v); },
                     "autonomous systems in the synthetic topology")},
        {"tail_providers",
         double_knob([](const SimulationConfig& c) { return double(c.tail_providers); },
                     [](SimulationConfig& c, double v) { c.tail_providers = int(v); },
                     "minor content providers beyond the ten majors")},
        {"max_pieces",
         double_knob([](const SimulationConfig& c) { return double(c.max_pieces); },
                     [](SimulationConfig& c, double v) { c.max_pieces = std::uint32_t(v); },
                     "piece-count cap per object (simulation granularity)")},
        {"max_peers_returned",
         double_knob(
             [](const SimulationConfig& c) { return double(c.control.max_peers_returned); },
             [](SimulationConfig& c, double v) { c.control.max_peers_returned = int(v); },
             "DN answer size cap (paper: 40)")},
        {"cross_region_threshold",
         double_knob(
             [](const SimulationConfig& c) { return double(c.control.cross_region_threshold); },
             [](SimulationConfig& c, double v) { c.control.cross_region_threshold = int(v); },
             "widen DN search below this local answer size (0 = strict local)")},
        {"max_peer_sources",
         double_knob([](const SimulationConfig& c) { return double(c.client.max_peer_sources); },
                     [](SimulationConfig& c, double v) { c.client.max_peer_sources = int(v); },
                     "concurrent p2p sources per download")},
        {"max_upload_connections",
         double_knob(
             [](const SimulationConfig& c) { return double(c.client.max_upload_connections); },
             [](SimulationConfig& c, double v) { c.client.max_upload_connections = int(v); },
             "concurrent upload connections per peer")},
        {"cache_retention_days",
         double_knob(
             [](const SimulationConfig& c) { return c.client.cache_retention.seconds() / 86400; },
             [](SimulationConfig& c, double v) { c.client.cache_retention = sim::days(v); },
             "how long completed downloads stay shareable")},
        {"threads",
         double_knob([](const SimulationConfig& c) { return double(c.threads); },
                     [](SimulationConfig& c, double v) { c.threads = int(v); },
                     "analysis thread count (0 = NS_THREADS/hardware default)")},
        {"disable_p2p", bool_knob([](const SimulationConfig& c) { return c.disable_p2p; },
                                  [](SimulationConfig& c, bool v) { c.disable_p2p = v; },
                                  "true = infrastructure-only baseline")},
        {"random_selection",
         bool_knob(
             [](const SimulationConfig& c) {
                 return c.control.selection.strategy ==
                        control::SelectionPolicy::Strategy::random;
             },
             [](SimulationConfig& c, bool v) {
                 c.control.selection.strategy = v ? control::SelectionPolicy::Strategy::random
                                                  : control::SelectionPolicy::Strategy::locality_aware;
             },
             "true = tracker-style random peer selection (ablation)")},
    };
    return table;
}

}  // namespace

Result<SimulationConfig> parse_scenario(const std::string& text) {
    SimulationConfig config;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos) line = line.substr(0, hash);
        line = trim(line);
        if (line.empty()) continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            return Error{Error::Code::invalid_argument,
                         "line " + std::to_string(line_no) + ": expected key = value"};
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key == "fault") {
            // Repeated key: each line appends one event to the fault plan.
            auto event = fault::parse_fault_event(value);
            if (!event)
                return Error{Error::Code::invalid_argument, "line " + std::to_string(line_no) +
                                                                ": " + event.error().message};
            config.faults.events.push_back(event.value());
            continue;
        }
        if (key == "campaign") {
            // Repeated key: each line declares one chaos campaign, expanded
            // deterministically into fault events when the run starts.
            auto spec = fault::parse_campaign(value);
            if (!spec)
                return Error{Error::Code::invalid_argument, "line " + std::to_string(line_no) +
                                                                ": " + spec.error().message};
            config.campaigns.push_back(spec.value());
            continue;
        }
        if (key == "shards") {
            // The region-sharded engine is gone; scenario files written for
            // it still load when they pin the single queue it left behind.
            if (value != "1")
                return Error{Error::Code::invalid_argument,
                             "line " + std::to_string(line_no) + ": shards = " + value +
                                 ": the region-sharded engine was removed; only 'shards = 1' "
                                 "is accepted"};
            continue;
        }
        const auto it = knobs().find(key);
        if (it == knobs().end())
            return Error{Error::Code::invalid_argument,
                         "line " + std::to_string(line_no) + ": unknown key '" + key + "'"};
        if (!it->second.set(config, value))
            return Error{Error::Code::invalid_argument, "line " + std::to_string(line_no) +
                                                            ": bad value '" + value + "' for '" +
                                                            key + "'"};
    }
    return config;
}

Result<SimulationConfig> load_scenario(const std::string& path) {
    std::ifstream in(path);
    if (!in)
        return Error{Error::Code::not_found, "cannot open scenario file '" + path + "'"};
    std::ostringstream text;
    text << in.rdbuf();
    return parse_scenario(text.str());
}

std::string describe_scenario(const SimulationConfig& config) {
    std::string out = "# NetSession scenario\n";
    for (const auto& [key, knob] : knobs())
        out += key + " = " + knob.get(config) + "  # " + knob.comment + "\n";
    if (!config.faults.empty()) {
        out += "# fault timeline (docs/ROBUSTNESS.md); times in days from t=0\n";
        for (const auto& event : config.faults.events)
            out += "fault = " + fault::to_string(event) + "\n";
    }
    if (!config.campaigns.empty()) {
        out += "# chaos campaigns (docs/ROBUSTNESS.md); expanded from each seed at run start\n";
        for (const auto& spec : config.campaigns)
            out += "campaign = " + fault::to_string(spec) + "\n";
    }
    return out;
}

bool write_scenario_template(const std::string& path) {
    std::ofstream out(path);
    if (!out) return false;
    out << describe_scenario(SimulationConfig{});
    return static_cast<bool>(out);
}

}  // namespace netsession
