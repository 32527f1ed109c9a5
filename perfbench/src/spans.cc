#include "spans.h"

#include <cstdio>

namespace perfbench {

SpanRecorder* g_spans = nullptr;

namespace {

// Spans kept for the trace file; beyond this only aggregates grow, so a
// long traced run cannot exhaust memory.
constexpr size_t kMaxStoredSpans = 2'000'000;

constexpr const char* kSpanNames[kNumSpanKinds] = {
    "sim.run",         "op",
    "db.begin",        "db.get",
    "db.put",          "db.delete",
    "db.scan",         "db.count",
    "db.commit",       "kv.get",
    "kv.put",          "kv.commit",
    "host.dev.write",  "host.dev.read",
    "host.dev.flush",  "host.dev.barrier",
    "setup.device_ctor", "setup.engine_open",
    "setup.load",      "recover.power_cut",
    "recover.power_on", "recover.engine_open",
};

}  // namespace

const char* SpanName(SpanKind kind) {
  return kSpanNames[static_cast<size_t>(kind)];
}

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {
  stack_.reserve(16);
}

void SpanRecorder::Begin(SpanKind kind, SimTime vt) {
  int32_t stored = -1;
  if (stack_.empty() || keep_nested_) {
    if (spans_.size() < kMaxStoredSpans) {
      stored = static_cast<int32_t>(spans_.size());
      const int32_t parent = stack_.empty() ? -1 : stack_.back().stored;
      spans_.push_back(Span{kind, parent, op_, 0, 0, vt, vt});
    } else {
      dropped_++;
    }
  }
  stack_.push_back(Frame{kind, NowNs(), vt, 0, stored});
}

void SpanRecorder::End(SimTime vt_done, uint64_t sectors) {
  const int64_t end = NowNs();
  const Frame f = stack_.back();
  stack_.pop_back();
  const int64_t dur = end - f.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  SpanAgg& a = agg_[static_cast<size_t>(f.kind)];
  a.calls++;
  a.self_ns += dur - f.child_ns;
  a.total_ns += dur;
  a.sectors += sectors;
  a.sim_ns.push_back(vt_done - f.vt_issue);
  if (f.stored >= 0) {
    Span& s = spans_[static_cast<size_t>(f.stored)];
    s.start_ns = f.start_ns;
    s.end_ns = end;
    s.vt_done = vt_done;
  }
}

SpanAggs SpanRecorder::TakeAggregates() {
  SpanAggs out = std::move(agg_);
  agg_ = SpanAggs{};
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  FILE* out = fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
  fputs("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"perfbench (host time)\"}}",
        out);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    fprintf(out,
            ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
            "\"op\":%llu,\"vt_issue_ns\":%lld,\"vt_done_ns\":%lld}}",
            SpanName(s.kind), static_cast<double>(s.start_ns) / 1000.0,
            static_cast<double>(s.end_ns - s.start_ns) / 1000.0, i, s.parent,
            static_cast<unsigned long long>(s.op),
            static_cast<long long>(s.vt_issue),
            static_cast<long long>(s.vt_done));
  }
  fputs("\n]}\n", out);
  const bool ok = ferror(out) == 0;
  return fclose(out) == 0 && ok;
}

}  // namespace perfbench
