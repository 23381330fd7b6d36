#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One timed call into a layer, recorded from outside the layer.
struct Span {
    std::string name;     ///< layer call, e.g. "engine.optimize"
    std::string circuit;  ///< circuit id ("batch" for a whole-batch call)
    int parent = -1;      ///< index of the enclosing span, -1 for a root
    int thread = 0;       ///< small per-process thread number
    Clock::time_point start;
    Clock::time_point end;
};

/// In-memory span recorder. Disabled recorders drop everything, so the
/// untraced runs pay one branch per call site. Spans are written out once,
/// at exit, as Chrome trace-event JSON.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

    /// Opens a span on the calling thread; returns its index (-1 when off).
    int begin(std::string name, std::string circuit, int parent);
    void end(int span);

    /// Records an already finished span (e.g. a batch item reported by a
    /// completion callback on a worker thread).
    void add(std::string name, std::string circuit, int parent, Clock::time_point start,
             Clock::time_point end);

    const std::vector<Span>& spans() const { return spans_; }

    /// Self time per span name: each span's duration minus the union of
    /// its children's intervals, summed over spans of that name.
    std::map<std::string, double> self_seconds() const;

    /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
    void write_chrome_json(const std::string& path) const;

private:
    int thread_number();

    bool enabled_;
    Clock::time_point origin_;
    std::mutex mutex_;  // guards spans_ and threads_
    std::vector<Span> spans_;
    std::map<std::thread::id, int> threads_;
};

/// RAII span: begins on construction, ends on destruction.
class SpanScope {
public:
    SpanScope(Tracer& tracer, std::string name, std::string circuit, int parent)
        : tracer_(tracer), id_(tracer.begin(std::move(name), std::move(circuit), parent)) {}
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;
    ~SpanScope() { tracer_.end(id_); }

    int id() const { return id_; }

private:
    Tracer& tracer_;
    int id_;
};

}  // namespace perfbench
