// Self-test: every workload's code path at a few hundred peers, then every
// output check shown able to fail on a corrupted copy of a real trace or
// counter. A check that cannot fail proves nothing.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>

#include "analysis/measurement.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/recovery.hpp"
#include "checks.hpp"
#include "common/parallel.hpp"
#include "core/scenario_io.hpp"
#include "core/simulation.hpp"
#include "runner.hpp"
#include "trace/serialize.hpp"

namespace e2e {

using namespace netsession;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
}

/// `clean` must pass and `corrupted` must fail.
void expect_catches(const std::string& check, const std::string& clean,
                    const std::string& corrupted) {
    expect(clean.empty(), check + " passes on the real output" +
                              (clean.empty() ? "" : " (" + clean + ")"));
    expect(!corrupted.empty(), check + " fails on corrupted input" +
                                   (corrupted.empty() ? "" : " (" + corrupted + ")"));
}

template <typename T>
T& first_where(trace::Records<T>& records, auto&& pred) {
    for (T& r : records)
        if (pred(r)) return r;
    throw std::runtime_error("self-test trace lacks a needed record");
}

}  // namespace

int run_self_test(const OpContext& ctx) {
    // 1. Every workload's code path, shrunk to a few hundred peers, each
    //    operation in its own process as in a measured run. This comes
    //    first: fork() must not follow part 2, which starts the analysis
    //    thread pool in this process. The chaos rows' SLO gates need the full
    //    population to be meaningful, so only they are left ungated here.
    OpContext small = ctx;
    small.gate_slos = false;
    for (const std::string& name : workload_names()) {
        Workload w;
        make_workload(name, 1, 0.0025, w);
        Spans spans(true, Clock::now());
        std::vector<OpResult> done;
        for (std::size_t i = 0; i < w.ops.size(); ++i) {
            OpResult r = run_op(w.ops[i], int(i), small, spans, done, nullptr);
            std::string why;
            for (const auto& e : r.errors) why += " " + e;
            expect(r.ok, name + "/" + r.name + " runs and passes its checks" + why);
            done.push_back(std::move(r));
        }
        for (const auto& r : done) std::remove(r.trace_path.c_str());
    }

    // 2. One faulted run whose real outputs feed every check.
    Workload chaos;
    make_workload("chaos_matrix", 3, 0.06, chaos);
    const OpSpec& spec = chaos.ops[1];  // a regional edge outage
    const std::string ini = ctx.out_dir + "/selftest.ini";
    std::ofstream(ini) << spec.scenario;
    auto config = load_scenario(ini);
    std::remove(ini.c_str());
    if (!config.ok()) {
        expect(false, "self-test scenario parses: " + config.error().message);
        return 1;
    }
    Simulation sim(config.value());
    sim.run();
    const trace::TraceLog& log = sim.trace();
    const auto outcomes = analysis::outcome_stats(log);
    const auto headline = analysis::headline_offload(log);
    const auto recovery = analysis::recovery_report(log);
    const auto& m = sim.metrics();
    const auto gauge = [&](const char* n) {
        return std::uint64_t(obs::Registry::scalar_value(*m.find(n)));
    };

    {
        trace::TraceLog bad = log;
        auto& done = first_where(bad.downloads(), [](const trace::DownloadRecord& d) {
            return d.outcome == trace::DownloadOutcome::completed;
        });
        (done.bytes_from_peers > 0 ? done.bytes_from_peers : done.bytes_from_infrastructure) -= 1;
        expect_catches("download bytes", check_download_bytes(log), check_download_bytes(bad));
        trace::TraceLog over = log;
        auto& d = first_where(over.downloads(), [](const trace::DownloadRecord& r) {
            return r.outcome != trace::DownloadOutcome::completed;
        });
        d.bytes_from_peers = d.object_size + 1 - d.bytes_from_infrastructure;
        expect(!check_download_bytes(over).empty(), "download bytes fails on an overfull download");
    }
    {
        const auto perf = sim.perf_stats();
        auto bad = perf.sim;
        bad.cancelled += 1;
        expect_catches("event ledger", check_event_ledger(perf.sim, sim.simulator().pending()),
                       check_event_ledger(bad, sim.simulator().pending()));
        // The flow ledger's independent side is the flow pool's live count.
        const std::size_t live = sim.world().flows().pool_stats().live;
        expect_catches("flow ledger", check_flow_ledger(perf.flows, live),
                       check_flow_ledger(perf.flows, live + 1));
        auto bad_flows = perf.flows;
        bad_flows.flows_completed += 1;
        expect(!check_flow_ledger(bad_flows, live).empty(), "flow ledger fails on a lost completion");

        // The fault ledger's independent side is the trace's FaultRecords.
        const auto applied = gauge("fault.applied");
        const auto restored = gauge("fault.restored");
        expect(applied > 0 && restored > 0, "self-test run applied and restored a fault");
        trace::TraceLog lost_onset = log;
        lost_onset.fault_events().front().phase = 1;
        expect_catches("fault ledger", check_fault_ledger(applied, restored, log),
                       check_fault_ledger(applied, restored, lost_onset));
        trace::TraceLog lost_restore = log;
        auto& restore = first_where(lost_restore.fault_events(),
                                    [](const trace::FaultRecord& f) { return f.phase == 1; });
        restore.phase = 0;
        expect(!check_fault_ledger(applied, restored, lost_restore).empty(),
               "fault ledger fails on a restore missing from the trace");
        expect(!check_fault_ledger(applied - 1, restored + 1, lost_onset).empty(),
               "fault ledger fails on more restores than onsets");
    }
    {
        auto bad = outcomes;
        bad.all.aborted += 0.01;
        expect_catches("outcome partition", check_outcome_partition(outcomes),
                       check_outcome_partition(bad));
        auto bad_n = outcomes;
        bad_n.infra_only.n += 1;
        expect(!check_outcome_partition(bad_n).empty(), "outcome partition fails on class counts");
    }
    {
        auto bad = headline;
        bad.overall_offload = std::nextafter(bad.overall_offload, 2.0);
        expect_catches("headline offload", check_headline(log, headline), check_headline(log, bad));
        auto bad_eff = headline;
        bad_eff.mean_peer_efficiency += 1e-6;
        expect(!check_headline(log, bad_eff).empty(), "headline check fails on mean efficiency");
    }
    {
        trace::TraceLog bad = log;
        Bytes peer = 0;
        for (const auto& d : log.downloads()) peer += d.bytes_from_peers;
        bad.transfers().front().bytes = peer + 1;
        expect_catches("transfer bytes <= peer bytes", check_transfer_bytes(log),
                       check_transfer_bytes(bad));
    }
    {
        const double bound = spec.ttr_bound_hours;
        analysis::RecoveryReport slow = recovery;
        slow.all_recovered = true;
        slow.worst_recover_hours = bound + 1;
        analysis::RecoveryReport never = recovery;
        never.all_recovered = false;
        expect_catches("chaos row gate", check_chaos_row(delivery(outcomes), recovery, bound),
                       check_chaos_row(0.94, recovery, bound));
        expect(!check_chaos_row(0.99, slow, bound).empty(), "chaos gate fails on a slow recovery");
        expect(!check_chaos_row(0.99, never, bound).empty(),
               "chaos gate fails on a fault that never recovered");
    }
    {
        trace::Dataset dataset, corrupted, loaded;
        dataset.log = log;
        sim.geodb().for_each(
            [&](net::IpAddr ip, const net::GeoRecord& rec) { dataset.geodb.register_ip(ip, rec); });
        corrupted.log = log;
        corrupted.log.transfers().back().bytes += 1;
        corrupted.geodb = dataset.geodb;
        const std::string a = ctx.out_dir + "/selftest-a.nstrace";
        const std::string b = ctx.out_dir + "/selftest-b.nstrace";
        const std::string c = ctx.out_dir + "/selftest-c.nstrace";
        expect(trace::save_dataset(dataset, a) && trace::save_dataset(dataset, b) &&
                   trace::save_dataset(dataset, c) && trace::load_dataset(loaded, a),
               "self-test traces saved and loaded");
        expect_catches("saved == loaded trace", check_same_trace(log, loaded.log),
                       check_same_trace(corrupted.log, loaded.log));

        const auto threaded = analysis::fingerprint(analysis::run_full_pipeline(loaded));
        parallel::set_thread_count(1);
        const auto one_thread = analysis::fingerprint(analysis::run_full_pipeline(dataset));
        const auto wrong = analysis::fingerprint(analysis::run_full_pipeline(corrupted));
        parallel::set_thread_count(ctx.threads);
        expect_catches("pipeline fingerprint", check_fingerprint(threaded, one_thread),
                       check_fingerprint(wrong, one_thread));

        {
            std::fstream f(c, std::ios::in | std::ios::out | std::ios::binary);
            f.seekp(-1, std::ios::end);
            const char last = char(f.peek());
            f.seekp(-1, std::ios::end);
            f.put(char(last ^ 0x5a));
        }
        expect_catches("twin traces byte-identical",
                       check_same_digest(file_digest(a), file_digest(b)),
                       check_same_digest(file_digest(a), file_digest(c)));
        for (const auto& p : {a, b, c}) std::remove(p.c_str());
    }

    std::printf("self-test: %s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL", failures,
                failures == 1 ? "" : "s");
    return failures == 0 ? 0 : 1;
}

}  // namespace e2e
