// One operation of the benchmark: a simulation carried through
// simulate -> save -> load -> analyse, every stage timed around a call to the
// layer's public function, and every output check of checks.hpp applied.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// In-memory span recorder. With tracing off it only measures durations;
/// with tracing on it also keeps every span (name, start, end, parent) for
/// write_json() at the end of the run.
class Spans {
public:
    Spans(bool on, Clock::time_point origin) : on_(on), origin_(origin) {}

    /// Runs `fn` inside a span named `name`; returns its duration in seconds.
    template <typename Fn>
    double time(const std::string& name, Fn&& fn) {
        const int id = open(name);
        const Clock::time_point start = Clock::now();
        fn();
        const Clock::time_point end = Clock::now();
        close(id, start, end);
        return seconds_between(start, end);
    }

    [[nodiscard]] bool on() const noexcept { return on_; }
    [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
    /// Writes every recorded span as a JSON array; returns false on I/O error.
    bool write_json(const std::string& path) const;
    /// Writes the spans from index `first` on as "span" lines of an operation
    /// process's report; read_line() appends them back in the same order.
    void write_lines(std::FILE* f, std::size_t first) const;
    /// Parses one "span" report line; returns false if `line` is not one.
    bool read_line(const std::string& line);

private:
    struct Span {
        std::string name;
        double start_s = 0, end_s = 0;
        int parent = -1;
    };
    int open(const std::string& name);
    void close(int id, Clock::time_point start, Clock::time_point end);

    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

struct OpResult {
    std::string name;
    bool ok = true;
    std::vector<std::string> errors;  // failed stages and checks

    // Stage wall times (seconds).
    double setup_s = 0;      // process start to the end of load_scenario + constructor
    double construct_s = 0;  // the constructor alone
    double simulate_s = 0;
    double save_s = 0;
    double load_s = 0;
    double analyse_s = 0;    // run_full_pipeline (+ recovery_report on chaos rows)
    double recovery_s = 0;
    double pipeline_one_thread_s = 0;  // run_full_pipeline at 1 thread, untimed stage

    std::uint64_t peak_rss_bytes = 0;  // of the process that ran the operation
    std::uint64_t trace_bytes = 0;
    std::uint64_t trace_digest = 0;
    std::uint64_t pipeline_fingerprint = 0;
    std::uint64_t one_thread_fingerprint = 0;
    std::string trace_path;

    /// Exact program counters and per-stage analysis times (trace mode),
    /// keyed by per-layer metric name.
    std::map<std::string, double> counters;

    // Modelled outputs, recorded for reference only.
    double offload = 0, efficiency = 0, completion = 0, delivery = 0;
};

struct OpContext {
    std::string out_dir;  // scenario and trace files go here
    int threads = 1;      // analysis thread count
    bool gate_slos = true;
};

/// Runs one operation in a fresh child process started by fork(), so its
/// set-up is cold in every round: a new heap, nothing of an earlier
/// simulation left in the allocator; the set-up time counts from the fork.
/// Never throws: a stage error, a failed check or a child that dies marks the
/// result failed with its reason. `earlier` holds the round's previous
/// results (for the twin comparison). `first_round` is this operation's
/// result from the run's first round, or null in that round: the 1-thread
/// pipeline runs only then, and later rounds, whose traces must be
/// byte-identical, check their fingerprint against its result. The child
/// reports its result and spans over a pipe, and the call returns once the
/// child has ended. The calling process must not have started the analysis
/// thread pool.
[[nodiscard]] OpResult run_op(const OpSpec& spec, int index, const OpContext& ctx, Spans& spans,
                              const std::vector<OpResult>& earlier, const OpResult* first_round);

/// FNV-1a over a file's bytes (0 when unreadable).
[[nodiscard]] std::uint64_t file_digest(const std::string& path);

}  // namespace e2e

namespace e2e {

/// The benchmark's self-test (`--self-test`): runs every workload's code path
/// at a few hundred peers and shows each output check failing on a
/// deliberately corrupted trace or counter. Returns the process exit code.
[[nodiscard]] int run_self_test(const OpContext& ctx);

}  // namespace e2e
