#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_set>

namespace e2e {

using namespace netsession;

namespace {

std::string fail(const char* what, double got, double want) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s: got %.17g, expected %.17g", what, got, want);
    return buf;
}

template <typename T>
bool same_records(const trace::Records<T>& a, const trace::Records<T>& b) {
    return a.size() == b.size() &&
           (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace

std::string check_download_bytes(const trace::TraceLog& log) {
    for (const auto& d : log.downloads()) {
        const Bytes got = d.total_bytes();
        if (got > d.object_size)
            return fail("download received more than object_size", double(got),
                        double(d.object_size));
        if (d.outcome == trace::DownloadOutcome::completed && got != d.object_size)
            return fail("completed download bytes != object_size", double(got),
                        double(d.object_size));
    }
    return {};
}

std::string check_event_ledger(const sim::Simulator::Stats& s, std::size_t pending) {
    const double rhs = double(s.dispatched) + double(s.cancelled) + double(pending);
    if (s.scheduled != s.dispatched + s.cancelled + pending)
        return fail("events scheduled != dispatched + cancelled + pending", double(s.scheduled),
                    rhs);
    return {};
}

std::string check_flow_ledger(const net::FlowNetwork::Stats& s, std::size_t pool_live) {
    if (s.flows_started != s.flows_completed + s.flows_cancelled + pool_live)
        return fail("flows started != completed + cancelled + live in the flow pool",
                    double(s.flows_started),
                    double(s.flows_completed + s.flows_cancelled + pool_live));
    return {};
}

std::string check_fault_ledger(std::uint64_t applied, std::uint64_t restored,
                               const trace::TraceLog& log) {
    std::uint64_t onsets = 0, restores = 0;
    for (const auto& f : log.fault_events()) (f.phase == 0 ? onsets : restores) += 1;
    if (applied != onsets)
        return fail("faults applied != onset records in the trace", double(applied),
                    double(onsets));
    if (restored != restores)
        return fail("faults restored != restore records in the trace", double(restored),
                    double(restores));
    if (restored > applied)
        return fail("more faults restored than applied", double(restored), double(applied));
    return {};
}

std::string check_outcome_partition(const analysis::OutcomeStats& s) {
    if (s.infra_only.n + s.peer_assisted.n != s.all.n)
        return fail("infra-only + peer-assisted downloads != all", double(s.infra_only.n +
                                                                          s.peer_assisted.n),
                    double(s.all.n));
    for (const auto* c : {&s.infra_only, &s.peer_assisted, &s.all}) {
        if (c->n == 0) continue;
        const double sum = c->completed + c->failed_system + c->failed_other + c->aborted;
        if (std::fabs(sum - 1.0) > 1e-9) return fail("outcome shares do not sum to 1", sum, 1.0);
    }
    return {};
}

std::string check_headline(const trace::TraceLog& log, const analysis::HeadlineOffload& h) {
    // Independent path: one serial pass over the raw records.
    Bytes peer = 0, total = 0;
    double eff_sum = 0;
    std::int64_t eff_n = 0;
    std::unordered_set<std::uint64_t> files, p2p_files;
    for (const auto& d : log.downloads()) {
        files.insert(d.url_hash);
        if (!d.p2p_enabled) continue;
        p2p_files.insert(d.url_hash);
        peer += d.bytes_from_peers;
        total += d.total_bytes();
        if (d.outcome == trace::DownloadOutcome::completed) {
            const Bytes got = d.total_bytes();
            eff_sum += got > 0 ? double(d.bytes_from_peers) / double(got) : 0.0;
            ++eff_n;
        }
    }
    const double offload = total > 0 ? double(peer) / double(total) : 0.0;
    const double efficiency = eff_n > 0 ? eff_sum / double(eff_n) : 0.0;
    const double file_fraction =
        files.empty() ? 0.0 : double(p2p_files.size()) / double(files.size());
    if (offload != h.overall_offload)
        return fail("headline offload differs from raw records", h.overall_offload, offload);
    // The pipeline sums efficiencies per chunk, so only rounding may differ.
    if (std::fabs(efficiency - h.mean_peer_efficiency) > 1e-12 * std::max(1.0, efficiency))
        return fail("mean peer efficiency differs from raw records", h.mean_peer_efficiency,
                    efficiency);
    if (file_fraction != h.p2p_enabled_file_fraction)
        return fail("p2p-enabled file fraction differs from raw records",
                    h.p2p_enabled_file_fraction, file_fraction);
    return {};
}

std::string check_same_trace(const trace::TraceLog& a, const trace::TraceLog& b) {
    if (!same_records(a.downloads(), b.downloads())) return "download records differ";
    if (!same_records(a.logins(), b.logins())) return "login records differ";
    if (!same_records(a.transfers(), b.transfers())) return "transfer records differ";
    if (!same_records(a.registrations(), b.registrations())) return "registration records differ";
    if (!same_records(a.degradations(), b.degradations())) return "degradation records differ";
    if (!same_records(a.fault_events(), b.fault_events())) return "fault records differ";
    if (a.metric_names() != b.metric_names()) return "metric name tables differ";
    if (!same_records(a.metric_points(), b.metric_points())) return "metric points differ";
    return {};
}

std::string check_fingerprint(std::uint64_t threaded, std::uint64_t one_thread) {
    if (threaded != one_thread)
        return fail("pipeline fingerprint differs from the 1-thread fingerprint", double(threaded),
                    double(one_thread));
    return {};
}

std::string check_transfer_bytes(const trace::TraceLog& log) {
    Bytes transfers = 0, peer = 0;
    for (const auto& t : log.transfers()) transfers += t.bytes;
    for (const auto& d : log.downloads()) peer += d.bytes_from_peers;
    if (transfers > peer)
        return fail("transfer-record bytes exceed download peer bytes", double(transfers),
                    double(peer));
    return {};
}

double delivery(const analysis::OutcomeStats& s) {
    const double served = s.all.completed + s.all.failed_system + s.all.failed_other;
    return served > 0 ? s.all.completed / served : 0.0;
}

std::string check_chaos_row(double delivery, const analysis::RecoveryReport& report,
                            double ttr_bound_hours) {
    if (!(delivery >= 0.95)) return fail("delivery below 0.95", delivery, 0.95);
    if (ttr_bound_hours > 0) {
        if (!report.all_recovered) return "a fault never recovered within the horizon";
        if (report.worst_recover_hours > ttr_bound_hours)
            return fail("time to recover above its bound (hours)", report.worst_recover_hours,
                        ttr_bound_hours);
    }
    return {};
}

std::string check_same_digest(std::uint64_t a, std::uint64_t b) {
    if (a == b) return {};
    char buf[96];
    std::snprintf(buf, sizeof buf, "trace digests differ: %016llx vs %016llx",
                  static_cast<unsigned long long>(a), static_cast<unsigned long long>(b));
    return buf;
}

}  // namespace e2e
