// Output checks run on every operation. Each is a property the modelled
// method must have, or a pair of totals reached by independent paths. A check
// returns an empty string when it holds and a one-line reason when it fails;
// the self-test (selftest.cpp) shows each one failing on corrupted input.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/measurement.hpp"
#include "analysis/recovery.hpp"
#include "net/flow.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_log.hpp"

namespace e2e {

/// Completed downloads received exactly object_size bytes; none received more.
[[nodiscard]] std::string check_download_bytes(const netsession::trace::TraceLog& log);

/// Events scheduled = dispatched + cancelled + still pending.
[[nodiscard]] std::string check_event_ledger(const netsession::sim::Simulator::Stats& stats,
                                             std::size_t pending);

/// Flows started = completed + cancelled + still active, where the active
/// flows are the flow pool's live objects (counted apart from the ledger).
[[nodiscard]] std::string check_flow_ledger(const netsession::net::FlowNetwork::Stats& stats,
                                            std::size_t pool_live);

/// The fault engine's applied and restored counters equal the onset and
/// restore FaultRecords in the trace, and no more faults were restored than
/// applied (the rest are still active).
[[nodiscard]] std::string check_fault_ledger(std::uint64_t applied, std::uint64_t restored,
                                             const netsession::trace::TraceLog& log);

/// Outcome shares of every class sum to 1 and the two classes partition `all`.
[[nodiscard]] std::string check_outcome_partition(const netsession::analysis::OutcomeStats& s);

/// Headline offload and mean peer efficiency, recomputed here from the raw
/// download records, equal the pipeline's headline_offload.
[[nodiscard]] std::string check_headline(const netsession::trace::TraceLog& log,
                                         const netsession::analysis::HeadlineOffload& headline);

/// Two traces hold the same records, section by section, byte for byte.
[[nodiscard]] std::string check_same_trace(const netsession::trace::TraceLog& a,
                                           const netsession::trace::TraceLog& b);

/// The pipeline fingerprint does not depend on the analysis thread count.
[[nodiscard]] std::string check_fingerprint(std::uint64_t threaded, std::uint64_t one_thread);

/// Peer bytes in transfer records never exceed the peer bytes the download
/// records account for.
[[nodiscard]] std::string check_transfer_bytes(const netsession::trace::TraceLog& log);

/// Delivery completion among downloads the user waited for.
[[nodiscard]] double delivery(const netsession::analysis::OutcomeStats& s);

/// A chaos row holds delivery >= 0.95 and, when `ttr_bound_hours` > 0, every
/// evaluable fault recovered within that many hours.
[[nodiscard]] std::string check_chaos_row(double delivery,
                                          const netsession::analysis::RecoveryReport& report,
                                          double ttr_bound_hours);

/// Two trace files have the same digest (file_digest in runner.hpp).
[[nodiscard]] std::string check_same_digest(std::uint64_t a, std::uint64_t b);

}  // namespace e2e
