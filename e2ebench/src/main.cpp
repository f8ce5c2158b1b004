// End-to-end benchmark of the NetSession simulator: scenario file to paper
// tables, stage by stage.
//
//   e2ebench --workload <dense_swarms|chaos_matrix> --seed <n>
//            --seconds <s> --trace <0|1> [--out-dir <dir>]
//   e2ebench --self-test [--out-dir <dir>]
//
// A run repeats whole rounds of the workload's operations while another
// round fits in --seconds (at least one round). Every operation runs in a
// fresh child process, so every set-up is cold and counts from the start of
// that process. A time metric is, per operation, the lower quartile of the
// rounds, summed over the operations. --trace 1 records spans
// around every layer call and reports the per-layer metrics instead. The last
// stdout line is the JSON result; the line before it carries the trace digest
// and the modelled outputs for reference.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "runner.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool self_test = false;
    std::string out_dir = "e2ebench/.out";
};

bool parse(int argc, char** argv, Options& o) {
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--self-test") {
            o.self_test = true;
        } else if (has_value && a == "--workload") {
            o.workload = argv[++i];
        } else if (has_value && a == "--seed") {
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (has_value && a == "--seconds") {
            o.seconds = std::atof(argv[++i]);
        } else if (has_value && a == "--trace") {
            o.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (has_value && a == "--out-dir") {
            o.out_dir = argv[++i];
        } else {
            std::fprintf(stderr, "unknown or incomplete argument: %s\n", a.c_str());
            return false;
        }
    }
    return o.self_test || !o.workload.empty();
}

/// Fixed CPU kernel of the benchmark's own, not program code, so its time
/// tracks only the host's speed: a random read-modify-write walk over a
/// 16 MiB table, which lives in the last-level cache on an idle host and
/// spills to memory when neighbours contend for it, as the simulator's
/// working set does. The table lives only for the pass, so the operation
/// processes forked later do not inherit it.
class HostProbe {
public:
    /// One timed pass (about 50 ms on an idle host); filling the table is
    /// not timed.
    double sample() {
        std::vector<std::uint64_t> table(1u << 21);
        for (std::size_t i = 0; i < table.size(); ++i) table[i] = i * 0x9E3779B97F4A7C15ull;
        const Clock::time_point start = Clock::now();
        const std::size_t mask = table.size() - 1;
        for (int i = 0; i < 300'000; ++i) {
            x_ ^= x_ << 13;
            x_ ^= x_ >> 7;
            x_ ^= x_ << 17;
            std::uint64_t& slot = table[(x_ ^ acc_) & mask];
            acc_ += slot;
            slot ^= x_;
        }
        return seconds_between(start, Clock::now());
    }

private:
    std::uint64_t x_ = 88172645463325252ull, acc_ = 0;
};

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Lower quartile, interpolated between order statistics (the "exclusive"
/// method of Python's statistics.quantiles; the smallest value when fewer
/// than four are given).
double lower_quartile(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const double pos = double(v.size() + 1) / 4.0 - 1.0;
    if (pos <= 0) return v.front();
    const std::size_t i = std::size_t(pos);
    return v[i] + (pos - double(i)) * (v[i + 1] - v[i]);
}

struct Round {
    std::vector<OpResult> ops;
    double simulate_s = 0, save_s = 0, load_s = 0;
    std::uint64_t trace_bytes = 0, digest = 1469598103934665603ull;
};

Round run_round(const Workload& w, const OpContext& ctx, Spans& spans, const Round* first) {
    Round round;
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
        OpResult r = run_op(w.ops[i], int(i), ctx, spans, round.ops,
                            first == nullptr ? nullptr : &first->ops[i]);
        for (const auto& e : r.errors)
            std::fprintf(stderr, "[%s/%s] FAILED: %s\n", w.name.c_str(), r.name.c_str(), e.c_str());
        round.simulate_s += r.simulate_s;
        round.save_s += r.save_s;
        round.load_s += r.load_s;
        round.trace_bytes += r.trace_bytes;
        round.digest = (round.digest ^ r.trace_digest) * 1099511628211ull;
        round.ops.push_back(std::move(r));
    }
    for (const auto& r : round.ops) std::remove(r.trace_path.c_str());
    return round;
}

/// Per-layer metrics of one round (trace mode).
std::map<std::string, double> layer_metrics(const Round& round) {
    std::map<std::string, double> sum;
    double construct = 0, one_thread = 0, pipeline = 0, recovery = 0;
    for (const auto& r : round.ops) {
        for (const auto& [name, v] : r.counters) {
            if (name.rfind("mem.", 0) == 0)
                sum[name] = std::max(sum[name], v);
            else
                sum[name] += v;
        }
        construct += r.construct_s;
        one_thread += r.pipeline_one_thread_s;
        pipeline += r.analyse_s - r.recovery_s;
        recovery += r.recovery_s;
    }
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    std::map<std::string, double> m;
    m["core.construct_s"] = construct;
    m["sim.events_dispatched"] = sum["sim.events_dispatched"];
    m["sim.cancelled_per_dispatched"] =
        ratio(sum["sim.events_cancelled"], sum["sim.events_dispatched"]);
    m["sim.ns_per_event"] = ratio(round.simulate_s * 1e9, sum["sim.events_dispatched"]);
    m["flow.started"] = sum["flow.started"];
    m["flow.refills_per_flow"] = ratio(sum["flow.refills"], sum["flow.started"]);
    m["flow.resort_hit_ratio"] =
        ratio(sum["flow.resort_hits"], sum["flow.resort_hits"] + sum["flow.resort_misses"]);
    for (const char* name : {"client.edge_retries", "client.edge_stalls", "client.peer_stalls",
                             "client.blacklists", "control.queries", "trace.records",
                             "mem.cold_records", "mem.flow_pool_bytes_reserved"})
        m[name] = sum[name];
    m["control.peers_returned_per_query"] =
        ratio(sum["control.peers_returned.sum"], sum["control.peers_returned.count"]);
    m["workload.sessions_started"] = sum["driver.sessions_started"];
    m["trace.save_s"] = round.save_s;
    m["trace.load_s"] = round.load_s;
    for (const auto& [name, v] : sum)
        if (name.rfind("analysis.", 0) == 0) m[name] = v;
    m["analysis.speedup_vs_1thread"] = ratio(one_thread, pipeline);
    m["analysis.recovery_s"] = recovery;
    return m;
}

struct Metric {
    std::string name, unit;
    double value;
};

void print_result(bool correct, long attempted, long failed, const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

std::string unit_of(const std::string& name) {
    if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0) return "s";
    if (name == "sim.ns_per_event") return "ns";
    if (name == "mem.flow_pool_bytes_reserved" || name == "mem.peak_rss_per_peer_b") return "B";
    if (name == "analysis.speedup_vs_1thread") return "x";
    if (name.find("_per_") != std::string::npos || name.find("ratio") != std::string::npos)
        return "ratio";
    return "count";
}

}  // namespace

int main(int argc, char** argv) {
    const Clock::time_point main_start = Clock::now();
    Options opt;
    if (!parse(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
                     "       e2ebench --self-test\n");
        return 2;
    }
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n", opt.out_dir.c_str(), ec.message().c_str());
        return 2;
    }

    OpContext ctx;
    ctx.out_dir = opt.out_dir;
    ctx.threads = std::clamp(int(std::thread::hardware_concurrency()), 1, 4);
    netsession::parallel::set_thread_count(ctx.threads);
    if (opt.self_test) return run_self_test(ctx);

    Workload workload;
    if (!make_workload(opt.workload, opt.seed, 1.0, workload)) {
        std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
        return 2;
    }

    Spans spans(opt.trace, main_start);
    std::vector<Round> rounds;
    HostProbe probe;
    std::vector<double> probes{probe.sample()};
    // Whole rounds only: another round starts when the last one's duration
    // says it will end inside --seconds (the first always runs), so a run's
    // length does not depend on where the deadline falls within a round.
    const Clock::time_point start = Clock::now();
    for (;;) {
        const Clock::time_point t = Clock::now();
        Round round = run_round(workload, ctx, spans, rounds.empty() ? nullptr : &rounds.front());
        rounds.push_back(std::move(round));
        probes.push_back(probe.sample());
        const double round_s = seconds_between(t, Clock::now());
        if (seconds_between(start, Clock::now()) + round_s > opt.seconds) break;
    }
    const double host_ref_s = median(probes);

    long attempted = 0, failed = 0;
    bool consistent = true;
    std::uint64_t peak_rss_bytes = 0;  // the largest operation process's
    for (const Round& r : rounds) {
        for (const auto& op : r.ops) {
            ++attempted;
            if (!op.ok) ++failed;
            peak_rss_bytes = std::max(peak_rss_bytes, op.peak_rss_bytes);
        }
        consistent = consistent && r.digest == rounds.front().digest &&
                     r.trace_bytes == rounds.front().trace_bytes;
    }
    if (!consistent) std::fprintf(stderr, "trace digests differ between rounds\n");

    const Round& first = rounds.front();
    // Per operation, the lower quartile of the rounds; summed over
    // operations. Neighbours on a shared host only ever add time, and they
    // come and go within a run, so the quiet quarter of a run's rounds varies
    // far less between runs than their median does, and depends less on one
    // lucky round than the fastest does (README, "Host noise").
    const auto estimate = [&](auto stage) {
        double total = 0;
        for (std::size_t i = 0; i < first.ops.size(); ++i) {
            std::vector<double> samples;
            for (const Round& r : rounds) samples.push_back(stage(r.ops[i]));
            total += lower_quartile(std::move(samples));
        }
        return total;
    };
    const auto setup = [](const OpResult& o) { return o.setup_s; };
    const auto simulate = [](const OpResult& o) { return o.simulate_s; };
    const auto analyse = [](const OpResult& o) { return o.analyse_s; };
    const auto tables = [](const OpResult& o) {
        return o.setup_s + o.simulate_s + o.save_s + o.load_s + o.analyse_s;
    };
    const double peak_rss = double(peak_rss_bytes);

    // Reference line: modelled outputs and the trace digest, not gated.
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"rounds\": %zu, \"threads\": %d, "
                "\"trace_digest\": \"%016llx\", \"host.ref_s\": %.6f, \"round_simulate_s\": [",
                workload.name.c_str(), static_cast<unsigned long long>(opt.seed), rounds.size(),
                ctx.threads, static_cast<unsigned long long>(first.digest), host_ref_s);
    for (std::size_t i = 0; i < rounds.size(); ++i)
        std::printf("%s%.4f", i ? ", " : "", rounds[i].simulate_s);
    std::printf("], \"round_analyse_s\": [");
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        double a = 0;
        for (const auto& o : rounds[i].ops) a += o.analyse_s;
        std::printf("%s%.4f", i ? ", " : "", a);
    }
    std::printf("], \"ops\": [");
    for (std::size_t i = 0; i < first.ops.size(); ++i) {
        const auto& r = first.ops[i];
        std::printf("%s{\"name\": \"%s\", \"ok\": %s, \"offload\": %.4f, \"efficiency\": %.4f, "
                    "\"completion\": %.4f, \"delivery\": %.4f}",
                    i ? ", " : "", r.name.c_str(), r.ok ? "true" : "false", r.offload, r.efficiency,
                    r.completion, r.delivery);
    }
    std::printf("]}\n");

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", "s", estimate(setup)},
            {"simulate_s", "s", estimate(simulate)},
            {"analyse_s", "s", estimate(analyse)},
            {"time_to_tables_s", "s", estimate(tables)},
            {"peak_rss_mib", "MiB", peak_rss / (1024.0 * 1024.0)},
            {"trace_mib", "MiB", double(first.trace_bytes) / (1024.0 * 1024.0)},
        };
    } else {
        std::map<std::string, std::vector<double>> per_round;
        for (const Round& r : rounds)
            for (const auto& [name, v] : layer_metrics(r)) per_round[name].push_back(v);
        for (const auto& [name, values] : per_round)
            metrics.push_back({name, unit_of(name), median(values)});
        int peers = 0;
        for (const auto& op : workload.ops) peers = std::max(peers, op.peers);
        metrics.push_back({"mem.peak_rss_per_peer_b", "B", peak_rss / double(peers)});
        metrics.push_back({"host.ref_s", "s", host_ref_s});
        const std::string path = opt.out_dir + "/spans-" + workload.name + ".json";
        if (!spans.write_json(path)) std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
    print_result(consistent, attempted, failed, metrics);
    return 0;
}
