#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <utility>

#include "common/json.hpp"

namespace perfbench {

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

}  // namespace

int Tracer::thread_number() {
    const auto [it, inserted] =
        threads_.emplace(std::this_thread::get_id(), static_cast<int>(threads_.size()));
    return it->second;
}

int Tracer::begin(std::string name, std::string circuit, int parent) {
    if (!enabled_) return -1;
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), std::move(circuit), parent, thread_number(), now, now});
    return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int span) {
    if (span < 0) return;
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(span)].end = now;
}

void Tracer::add(std::string name, std::string circuit, int parent, Clock::time_point start,
                 Clock::time_point end) {
    if (!enabled_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), std::move(circuit), parent, thread_number(), start, end});
}

std::map<std::string, double> Tracer::self_seconds() const {
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0) children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        // Children of a batch call run concurrently, so subtract the union
        // of their intervals, clipped to the parent.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> intervals;
        for (std::size_t c : children[i])
            intervals.emplace_back(std::max(spans_[c].start, s.start),
                                   std::min(spans_[c].end, s.end));
        std::sort(intervals.begin(), intervals.end());
        double covered = 0.0;
        Clock::time_point reach = s.start;
        for (const auto& [a, b] : intervals) {
            const auto from = std::max(a, reach);
            if (b > from) {
                covered += seconds_between(from, b);
                reach = b;
            }
        }
        self[s.name] += seconds_between(s.start, s.end) - covered;
    }
    return self;
}

void Tracer::write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    out << std::fixed << std::setprecision(3);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const double ts = seconds_between(origin_, s.start) * 1e6;
        const double dur = seconds_between(s.start, s.end) * 1e6;
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << lls::json_escape(s.name)
            << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
            << ",\"ts\":" << ts << ",\"dur\":" << dur << ",\"args\":{\"id\":" << i
            << ",\"parent\":" << s.parent << ",\"circuit\":\"" << lls::json_escape(s.circuit)
            << "\"}}";
    }
    out << "\n]}\n";
    out.flush();
    if (!out.good()) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench
