#include "runner.hpp"

#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "analysis/login_index.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/recovery.hpp"
#include "checks.hpp"
#include "common/parallel.hpp"
#include "core/scenario_io.hpp"
#include "core/simulation.hpp"
#include "obs/process_memory.hpp"
#include "trace/serialize.hpp"

namespace e2e {

using namespace netsession;

int Spans::open(const std::string& name) {
    if (!on_) return -1;
    spans_.push_back({name, 0, 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
}

void Spans::close(int id, Clock::time_point start, Clock::time_point end) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].start_s = seconds_between(origin_, start);
    spans_[static_cast<std::size_t>(id)].end_s = seconds_between(origin_, end);
    stack_.pop_back();
}

bool Spans::write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f, "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                        "\"parent\": %d}%s\n",
                     i, s.name.c_str(), s.start_s, s.end_s, s.parent,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

void Spans::write_lines(std::FILE* f, std::size_t first) const {
    for (std::size_t i = first; i < spans_.size(); ++i)
        std::fprintf(f, "span\t%s\t%.9f\t%.9f\t%d\n", spans_[i].name.c_str(), spans_[i].start_s,
                     spans_[i].end_s, spans_[i].parent);
}

bool Spans::read_line(const std::string& line) {
    std::istringstream in(line);
    std::string tag;
    Span s;
    if (!std::getline(in, tag, '\t') || tag != "span" || !std::getline(in, s.name, '\t') ||
        !(in >> s.start_s >> s.end_s >> s.parent))
        return false;
    spans_.push_back(std::move(s));
    return true;
}

std::uint64_t file_digest(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return 0;
    std::uint64_t h = 1469598103934665603ull;
    std::vector<char> buf(1 << 20);
    while (in) {
        in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        const std::streamsize n = in.gcount();
        for (std::streamsize i = 0; i < n; ++i) {
            h ^= static_cast<unsigned char>(buf[static_cast<std::size_t>(i)]);
            h *= 1099511628211ull;
        }
    }
    return h;
}

namespace {

double registry_value(const obs::Registry& registry, const char* name) {
    const auto* e = registry.find(name);
    return e == nullptr ? 0.0 : obs::Registry::scalar_value(*e);
}

/// run_full_pipeline, stage by stage, one span per measurement function
/// (trace mode); adds each stage's seconds to `stage_s` under
/// "analysis.<stage>_s". Its fingerprint is checked against the 1-thread
/// run_full_pipeline, so the two cannot drift apart unnoticed.
analysis::PipelineResult staged_pipeline(const trace::Dataset& dataset, const net::AsGraph* graph,
                                         Spans& spans, std::map<std::string, double>& stage_s) {
    using namespace analysis;
    const auto stage = [&](const std::string& name, auto&& fn) {
        stage_s[name + "_s"] += spans.time(name, fn);
    };
    const trace::TraceLog& log = dataset.log;
    const net::GeoDatabase& geodb = dataset.geodb;
    std::optional<LoginIndex> index;
    stage("analysis.login_index", [&] { index.emplace(log); });
    const LoginIndex& logins = *index;
    PipelineResult r;
    stage("analysis.overall_stats", [&] { r.overall = overall_stats(log, geodb); });
    stage("analysis.downloads_by_region",
          [&] { r.regions = downloads_by_region(log, logins, geodb); });
    stage("analysis.upload_setting_changes",
          [&] { r.setting_changes = upload_setting_changes(logins); });
    stage("analysis.upload_enabled_by_provider",
          [&] { r.upload_enabled = upload_enabled_by_provider(log, logins); });
    stage("analysis.peer_distribution",
          [&] { r.peers_by_country = peer_distribution(logins, geodb); });
    stage("analysis.continent_shares", [&] { r.continents = continent_shares(logins, geodb); });
    stage("analysis.workload_characteristics",
          [&] { r.workload = workload_characteristics(log, logins, geodb); });
    stage("analysis.speed_comparison", [&] { r.speeds = speed_comparison(log, logins, geodb); });
    stage("analysis.efficiency_vs_copies", [&] { r.efficiency_copies = efficiency_vs_copies(log); });
    stage("analysis.efficiency_vs_peers_returned",
          [&] { r.efficiency_peers = efficiency_vs_peers_returned(log); });
    stage("analysis.outcome_stats", [&] { r.outcomes = outcome_stats(log); });
    stage("analysis.coverage_by_country", [&] {
        if (!r.regions.empty())
            r.coverage = coverage_by_country(log, logins, geodb, CpCode{r.regions.begin()->first});
    });
    stage("analysis.traffic_balance", [&] { r.balance = traffic_balance(log, geodb, graph); });
    stage("analysis.mobility_stats", [&] { r.mobility = mobility_stats(log, logins, geodb); });
    stage("analysis.headline_offload", [&] { r.headline = headline_offload(log); });
    stage("analysis.degradation_stats", [&] { r.degradation = degradation_stats(log); });
    stage("analysis.guid_graphs", [&] { r.guid_graphs = classify_guid_graphs(log); });
    return r;
}

void record_counters(const Simulation& sim, OpResult& r) {
    const auto perf = sim.perf_stats();
    const obs::Registry& m = sim.metrics();
    auto& c = r.counters;
    c["sim.events_scheduled"] = double(perf.sim.scheduled);
    c["sim.events_dispatched"] = double(perf.sim.dispatched);
    c["sim.events_cancelled"] = double(perf.sim.cancelled);
    c["flow.started"] = double(perf.flows.flows_started);
    c["flow.refills"] = double(perf.flows.refills);
    c["flow.resort_hits"] = double(perf.flows.resort_hits);
    c["flow.resort_misses"] = double(perf.flows.resort_misses);
    for (const char* name : {"client.edge_retries", "client.edge_stalls", "client.peer_stalls",
                             "client.blacklists", "control.queries", "driver.sessions_started",
                             "mem.cold_records", "mem.flow_pool_bytes_reserved"})
        c[name] = registry_value(m, name);
    if (const auto* e = m.find("control.peers_returned"); e != nullptr && e->histogram != nullptr) {
        c["control.peers_returned.sum"] = e->histogram->sum;
        c["control.peers_returned.count"] = double(e->histogram->count);
    }
}

void check(OpResult& r, const std::string& failure) {
    if (failure.empty()) return;
    r.ok = false;
    r.errors.push_back(failure);
}

/// The operation itself, run in the child process that run_op() starts; the
/// set-up time counts from `process_start`.
OpResult run_in_this_process(const OpSpec& spec, int index, const OpContext& ctx, Spans& spans,
                             const std::vector<OpResult>& earlier, const OpResult* first_round,
                             Clock::time_point process_start) {
    OpResult r;
    r.name = spec.name;
    const std::string stem = ctx.out_dir + "/op" + std::to_string(index) + "-" + spec.name;
    const std::string ini = stem + ".ini";
    r.trace_path = stem + ".nstrace";
    try {
        {
            std::ofstream out(ini);
            out << spec.scenario;
            if (!out.flush()) throw std::runtime_error("cannot write " + ini);
        }
        std::optional<Simulation> sim;
        spans.time("core.setup", [&] {
            Result<SimulationConfig> config = load_scenario(ini);
            if (!config.ok()) throw std::runtime_error("load_scenario: " + config.error().message);
            r.construct_s = spans.time("core.construct", [&] { sim.emplace(config.value()); });
        });
        r.setup_s = seconds_between(process_start, Clock::now());
        r.simulate_s = spans.time("sim.run", [&] { sim->run(); });

        record_counters(*sim, r);
        const auto perf = sim->perf_stats();
        check(r, check_event_ledger(perf.sim, sim->simulator().pending()));
        check(r, check_flow_ledger(perf.flows, sim->world().flows().pool_stats().live));
        const auto faults_applied = std::uint64_t(registry_value(sim->metrics(), "fault.applied"));
        const auto faults_restored = std::uint64_t(registry_value(sim->metrics(), "fault.restored"));

        trace::Dataset saved;
        r.save_s = spans.time("trace.save", [&] {
            saved.log = std::move(sim->trace());
            sim->geodb().for_each(
                [&](net::IpAddr ip, const net::GeoRecord& rec) { saved.geodb.register_ip(ip, rec); });
            if (!trace::save_dataset(saved, r.trace_path))
                throw std::runtime_error("save_dataset failed");
        });
        check(r, check_fault_ledger(faults_applied, faults_restored, saved.log));
        trace::Dataset loaded;
        r.load_s = spans.time("trace.load", [&] {
            if (!trace::load_dataset(loaded, r.trace_path))
                throw std::runtime_error("load_dataset failed");
        });
        const auto& log = loaded.log;
        r.counters["trace.records"] =
            double(log.downloads().size() + log.logins().size() + log.transfers().size() +
                   log.registrations().size() + log.degradations().size() +
                   log.fault_events().size() + log.metric_points().size());

        analysis::PipelineResult result;
        analysis::RecoveryReport recovery;
        r.analyse_s = spans.time("analysis", [&] {
            if (spans.on())
                result = staged_pipeline(loaded, &sim->as_graph(), spans, r.counters);
            else
                result = analysis::run_full_pipeline(loaded, &sim->as_graph());
            // The traced run times the recovery report on every workload, so
            // its fixed cost shows beside the chaos rows' full cost.
            if (spec.chaos || spans.on())
                r.recovery_s = spans.time("analysis.recovery",
                                          [&] { recovery = analysis::recovery_report(log); });
        });
        r.pipeline_fingerprint = analysis::fingerprint(result);

        // Checks and reference outputs; nothing below is timed.
        check(r, check_same_trace(saved.log, loaded.log));
        if (first_round == nullptr) {
            parallel::set_thread_count(1);
            const Clock::time_point t1 = Clock::now();
            r.one_thread_fingerprint =
                analysis::fingerprint(analysis::run_full_pipeline(saved, &sim->as_graph()));
            r.pipeline_one_thread_s = seconds_between(t1, Clock::now());
            parallel::set_thread_count(ctx.threads);
        } else {
            r.one_thread_fingerprint = first_round->one_thread_fingerprint;
            r.pipeline_one_thread_s = first_round->pipeline_one_thread_s;
        }
        check(r, check_fingerprint(r.pipeline_fingerprint, r.one_thread_fingerprint));
        check(r, check_download_bytes(log));
        check(r, check_outcome_partition(result.outcomes));
        check(r, check_headline(log, result.headline));
        check(r, check_transfer_bytes(log));

        r.offload = result.headline.overall_offload;
        r.efficiency = result.headline.mean_peer_efficiency;
        r.completion = result.outcomes.all.completed;
        r.delivery = delivery(result.outcomes);
        if (spec.chaos && ctx.gate_slos)
            check(r, check_chaos_row(r.delivery, recovery, spec.ttr_bound_hours));

        r.trace_digest = file_digest(r.trace_path);
        std::ifstream size_probe(r.trace_path, std::ios::binary | std::ios::ate);
        r.trace_bytes = std::uint64_t(size_probe.tellg());
        if (spec.twin_of >= 0 && std::size_t(spec.twin_of) < earlier.size())
            check(r, check_same_digest(earlier[std::size_t(spec.twin_of)].trace_digest,
                                       r.trace_digest));
    } catch (const std::exception& e) {
        parallel::set_thread_count(ctx.threads);  // a throw may leave the 1-thread pass's count
        r.ok = false;
        r.errors.push_back(e.what());
    }
    std::remove(ini.c_str());
    return r;
}

// An operation process's report: one tab-separated line per field, then
// "end". A report without "end" means the process died part-way.
constexpr std::pair<const char*, double OpResult::*> kReportReals[] = {
    {"setup_s", &OpResult::setup_s},
    {"construct_s", &OpResult::construct_s},
    {"simulate_s", &OpResult::simulate_s},
    {"save_s", &OpResult::save_s},
    {"load_s", &OpResult::load_s},
    {"analyse_s", &OpResult::analyse_s},
    {"recovery_s", &OpResult::recovery_s},
    {"pipeline_one_thread_s", &OpResult::pipeline_one_thread_s},
    {"offload", &OpResult::offload},
    {"efficiency", &OpResult::efficiency},
    {"completion", &OpResult::completion},
    {"delivery", &OpResult::delivery},
};
constexpr std::pair<const char*, std::uint64_t OpResult::*> kReportCounts[] = {
    {"peak_rss_bytes", &OpResult::peak_rss_bytes},
    {"trace_bytes", &OpResult::trace_bytes},
    {"trace_digest", &OpResult::trace_digest},
    {"pipeline_fingerprint", &OpResult::pipeline_fingerprint},
    {"one_thread_fingerprint", &OpResult::one_thread_fingerprint},
};

std::string one_line(std::string s) {
    for (char& c : s)
        if (c == '\n' || c == '\t') c = ' ';
    return s;
}

void write_report(std::FILE* f, const OpResult& r) {
    for (const auto& [key, field] : kReportReals) std::fprintf(f, "real\t%s\t%.17g\n", key, r.*field);
    for (const auto& [key, field] : kReportCounts)
        std::fprintf(f, "count\t%s\t%llu\n", key, static_cast<unsigned long long>(r.*field));
    for (const auto& [key, v] : r.counters) std::fprintf(f, "counter\t%s\t%.17g\n", key.c_str(), v);
    std::fprintf(f, "path\t%s\n", one_line(r.trace_path).c_str());
    for (const auto& e : r.errors) std::fprintf(f, "error\t%s\n", one_line(e).c_str());
}

/// Parses a report into `r` and `spans`; returns true if it was complete.
bool read_report(const std::string& text, OpResult& r, Spans& spans) {
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line == "end") return true;
        if (spans.read_line(line)) continue;
        const std::size_t tab1 = line.find('\t');
        const std::string tag = line.substr(0, tab1);
        const std::string rest = tab1 == std::string::npos ? "" : line.substr(tab1 + 1);
        const std::size_t tab2 = rest.find('\t');
        const std::string key = rest.substr(0, tab2);
        const char* value = tab2 == std::string::npos ? "" : rest.c_str() + tab2 + 1;
        if (tag == "error") {
            r.errors.push_back(rest);
        } else if (tag == "path") {
            r.trace_path = rest;
        } else if (tag == "counter") {
            r.counters[key] = std::strtod(value, nullptr);
        } else if (tag == "real") {
            for (const auto& [name, field] : kReportReals)
                if (key == name) r.*field = std::strtod(value, nullptr);
        } else if (tag == "count") {
            for (const auto& [name, field] : kReportCounts)
                if (key == name) r.*field = std::strtoull(value, nullptr, 10);
        }
    }
    return false;
}

}  // namespace

OpResult run_op(const OpSpec& spec, int index, const OpContext& ctx, Spans& spans,
                const std::vector<OpResult>& earlier, const OpResult* first_round) {
    OpResult r;
    r.name = spec.name;
    int fds[2];
    if (pipe(fds) != 0) {
        r.ok = false;
        r.errors.push_back("pipe failed");
        return r;
    }
    std::fflush(nullptr);  // the child must not repeat buffered output
    const Clock::time_point start = Clock::now();
    const pid_t pid = fork();
    if (pid == 0) {
        // Ends with the benchmark, should that be killed mid-operation.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        close(fds[0]);
        const std::size_t first_span = spans.size();
        OpResult child =
            run_in_this_process(spec, index, ctx, spans, earlier, first_round, start);
        child.peak_rss_bytes = obs::read_process_memory().peak_rss_bytes;
        std::FILE* out = fdopen(fds[1], "w");
        if (out == nullptr) _exit(1);
        write_report(out, child);
        spans.write_lines(out, first_span);
        std::fputs("end\n", out);
        _exit(std::fclose(out) == 0 ? 0 : 1);
    }
    close(fds[1]);
    if (pid < 0) {
        close(fds[0]);
        r.ok = false;
        r.errors.push_back("fork failed");
        return r;
    }
    std::string report;
    char buf[4096];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n > 0) {
            report.append(buf, std::size_t(n));
        } else if (n == 0 || errno != EINTR) {
            break;
        }
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const bool complete = read_report(report, r, spans);
    if (!complete || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        r.errors.push_back("operation process ended abnormally (wait status " +
                           std::to_string(status) + ")");
    r.ok = r.errors.empty();
    return r;
}

}  // namespace e2e
