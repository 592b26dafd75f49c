/**
 * @file
 * The in-memory span log behind Span, its per-layer self times and its
 * trace-event writer, plus the quantile helper every phase uses.
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "bench.h"

namespace perfbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

struct SpanRecord
{
    const char *name;
    int parent;
    int tid;
    Clock::time_point start;
    Clock::time_point end;
};

std::atomic<bool> g_tracing{false};
std::mutex g_mutex;
std::vector<SpanRecord> g_spans; // guarded by g_mutex
const Clock::time_point g_epoch = Clock::now();

thread_local std::vector<int> t_open; // this thread's open span ids

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local const int index = next++;
    return index;
}

int
openSpan(const char *name, int parent)
{
    SpanRecord rec{name, parent, threadIndex(), Clock::now(), {}};
    std::lock_guard<std::mutex> lock(g_mutex);
    g_spans.push_back(rec);
    return static_cast<int>(g_spans.size()) - 1;
}

std::string
layerOf(const char *name)
{
    const std::string s(name);
    return s.substr(0, s.find('.'));
}

} // namespace

void
setTracing(bool on)
{
    g_tracing = on;
}

Span::Span(const char *name)
{
    if (!g_tracing)
        return;
    id_ = openSpan(name, t_open.empty() ? -1 : t_open.back());
    t_open.push_back(id_);
}

Span::Span(const char *name, int parent)
{
    if (!g_tracing)
        return;
    id_ = openSpan(name, parent);
    t_open.push_back(id_);
}

Span::~Span()
{
    if (id_ < 0)
        return;
    const auto now = Clock::now();
    t_open.pop_back();
    std::lock_guard<std::mutex> lock(g_mutex);
    g_spans[static_cast<size_t>(id_)].end = now;
}

std::map<std::string, double>
layerSelfMs()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    std::vector<double> self(g_spans.size());
    for (size_t i = 0; i < g_spans.size(); ++i)
        self[i] = msBetween(g_spans[i].start, g_spans[i].end);
    for (const SpanRecord &s : g_spans) {
        if (s.parent >= 0)
            self[static_cast<size_t>(s.parent)] -=
                msBetween(s.start, s.end);
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < g_spans.size(); ++i)
        out[layerOf(g_spans[i].name)] += self[i];
    return out;
}

void
writeTrace(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return;
    std::lock_guard<std::mutex> lock(g_mutex);
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < g_spans.size(); ++i) {
        const SpanRecord &s = g_spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                     i ? "," : "", s.name, layerOf(s.name).c_str(), s.tid,
                     msBetween(g_epoch, s.start) * 1e3,
                     msBetween(s.start, s.end) * 1e3, i, s.parent);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

} // namespace perfbench
