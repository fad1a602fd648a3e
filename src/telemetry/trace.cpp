#include "telemetry/trace.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "util/log.h"
#include "util/mutex.h"

namespace roc::telemetry {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

/// One thread's event ring.  The owning thread pushes; collect_trace()
/// drains from any thread, so both paths lock the (per-buffer, in practice
/// uncontended) mutex.  Storage grows on demand up to kTraceRingCapacity,
/// then wraps, dropping the oldest events.
struct RingBuffer {
  Mutex mu;
  std::vector<TraceEvent> events ROC_GUARDED_BY(mu);
  std::size_t head ROC_GUARDED_BY(mu) = 0;  // oldest event when wrapped
  std::uint64_t dropped ROC_GUARDED_BY(mu) = 0;
  std::string thread_name ROC_GUARDED_BY(mu);
  int tid = 0;

  void push(TraceEvent ev) {
    MutexLock lock(mu);
    ev.tid = tid;
    if (events.size() < kTraceRingCapacity) {
      events.push_back(std::move(ev));
    } else {
      events[head] = std::move(ev);
      head = (head + 1) % events.size();
      ++dropped;
    }
  }

  /// Appends this ring's events (oldest first) to `out` and empties it.
  void drain(Trace& out) {
    MutexLock lock(mu);
    out.events.reserve(out.events.size() + events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      out.events.push_back(std::move(events[(head + i) % events.size()]));
    }
    events.clear();
    head = 0;
    out.dropped += dropped;
    dropped = 0;
    if (!thread_name.empty()) out.thread_names[tid] = thread_name;
  }
};

/// Global list of all rings ever created.  shared_ptr keeps a ring alive
/// after its thread exits until the next collect_trace().  `epoch` bumps
/// on reset_trace_identity_for_replay(): threads that cached a ring from
/// an earlier epoch re-register, so tid numbering restarts deterministically.
struct BufferList {
  Mutex mu;
  std::vector<std::shared_ptr<RingBuffer>> buffers ROC_GUARDED_BY(mu);
  int next_tid ROC_GUARDED_BY(mu) = 1;
  std::atomic<std::uint64_t> epoch{0};
};

BufferList& buffer_list() {
  static BufferList* list = new BufferList;  // leaked: outlives all threads
  return *list;
}

RingBuffer& this_thread_buffer() {
  thread_local std::shared_ptr<RingBuffer> buffer;
  thread_local std::uint64_t epoch = ~std::uint64_t{0};
  BufferList& list = buffer_list();
  const std::uint64_t current = list.epoch.load(std::memory_order_acquire);
  if (buffer == nullptr || epoch != current) {
    auto b = std::make_shared<RingBuffer>();
    MutexLock lock(list.mu);
    b->tid = list.next_tid++;
    list.buffers.push_back(b);
    buffer = std::move(b);
    epoch = current;
  }
  return *buffer;
}

/// Mirrors error-level log lines into the trace (instant event) and the
/// flight recorder, so timelines and crash dumps show *when* things went
/// wrong.  Registered once, checks the enable flags itself.
void log_mirror(roc::LogLevel level, const std::string& msg) {
  if (level != roc::LogLevel::kError) return;
  if (trace_enabled()) {
    record_instant("log", "error", msg);
  } else if (flight::enabled()) {
    flight::record(flight::EventKind::kError, "log", "error", now(),
                   current_trace_context().trace_id, msg.c_str());
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

namespace detail {

void install_log_mirror() {
  static const bool installed = [] {
    roc::detail::set_log_mirror(&log_mirror);
    return true;
  }();
  (void)installed;
}

}  // namespace detail

void set_trace_enabled(bool on) {
  if (on) detail::install_log_mirror();
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void set_thread_name(std::string name) {
  flight::set_thread_name(name.c_str());
  RingBuffer& b = this_thread_buffer();
  MutexLock lock(b.mu);
  b.thread_name = std::move(name);
}

void record_span(const char* category, const char* name, double ts, double dur,
                 std::string detail) {
  if (!trace_enabled()) return;
  const TraceContext ctx = current_trace_context();
  record_span_ids(category, name, ts, dur, ctx.trace_id, alloc_span_id(),
                  ctx.span_id, std::move(detail));
}

void record_span_ids(const char* category, const char* name, double ts,
                     double dur, std::uint64_t trace_id, std::uint64_t span_id,
                     std::uint64_t parent_id, std::string detail) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.category = category;
  ev.name = name;
  ev.detail = std::move(detail);
  ev.ts = ts;
  ev.dur = dur;
  ev.trace_id = trace_id;
  ev.span_id = span_id;
  ev.parent_id = parent_id;
  this_thread_buffer().push(std::move(ev));
}

void record_instant(const char* category, const char* name,
                    std::string detail) {
  const bool traced = trace_enabled();
  const bool flown = flight::enabled();
  if (!traced && !flown) return;
  const double ts = now();
  const TraceContext ctx = current_trace_context();
  if (flown) {
    flight::record(flight::EventKind::kInstant, category, name, ts,
                   ctx.trace_id, detail.empty() ? nullptr : detail.c_str());
  }
  if (!traced) return;
  TraceEvent ev;
  ev.category = category;
  ev.name = name;
  ev.detail = std::move(detail);
  ev.ts = ts;
  ev.dur = -1.0;
  ev.trace_id = ctx.trace_id;
  ev.parent_id = ctx.span_id;
  this_thread_buffer().push(std::move(ev));
}

Trace collect_trace() {
  Trace out;
  BufferList& list = buffer_list();
  MutexLock lock(list.mu);
  for (const auto& b : list.buffers) b->drain(out);
  return out;
}

void reset_trace_identity_for_replay() {
  BufferList& list = buffer_list();
  MutexLock lock(list.mu);
  list.buffers.clear();  // uncollected events are intentionally dropped
  list.next_tid = 1;
  list.epoch.fetch_add(1, std::memory_order_release);
  reset_trace_ids();
}

void write_chrome_trace(
    std::ostream& os,
    const std::vector<std::pair<std::string, Trace>>& batches) {
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) os << ',';
    first = false;
  };
  int pid = 0;
  for (const auto& [label, trace] : batches) {
    ++pid;
    comma();
    os << "{\"ph\":\"M\",\"pid\":" << pid
       << ",\"name\":\"process_name\",\"args\":{\"name\":\""
       << json_escape(label) << "\"}}";
    for (const auto& [tid, tname] : trace.thread_names) {
      comma();
      os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
         << json_escape(tname) << "\"}}";
    }
    // Index spans by id for flow-event (causal arrow) emission below.
    std::unordered_map<std::uint64_t, const TraceEvent*> by_span;
    for (const TraceEvent& ev : trace.events) {
      if (ev.dur >= 0.0 && ev.span_id != 0) by_span[ev.span_id] = &ev;
    }
    for (const TraceEvent& ev : trace.events) {
      comma();
      // Chrome tracing wants microseconds.
      const double ts_us = ev.ts * 1e6;
      os << "{\"pid\":" << pid << ",\"tid\":" << ev.tid << ",\"cat\":\""
         << json_escape(ev.category) << "\",\"name\":\""
         << json_escape(ev.name) << "\",\"ts\":" << ts_us;
      if (ev.dur >= 0.0) {
        os << ",\"ph\":\"X\",\"dur\":" << ev.dur * 1e6;
      } else {
        os << ",\"ph\":\"i\",\"s\":\"t\"";
      }
      const bool has_args = !ev.detail.empty() || ev.trace_id != 0 ||
                            ev.span_id != 0 || ev.parent_id != 0;
      if (has_args) {
        os << ",\"args\":{";
        bool afirst = true;
        const auto acomma = [&] {
          if (!afirst) os << ',';
          afirst = false;
        };
        if (!ev.detail.empty()) {
          acomma();
          os << "\"detail\":\"" << json_escape(ev.detail) << "\"";
        }
        if (ev.trace_id != 0) {
          acomma();
          os << "\"trace_id\":" << ev.trace_id;
        }
        if (ev.span_id != 0) {
          acomma();
          os << "\"span_id\":" << ev.span_id;
        }
        if (ev.parent_id != 0) {
          acomma();
          os << "\"parent_id\":" << ev.parent_id;
        }
        os << '}';
      }
      os << '}';
    }
    // Causal arrows: one flow start ("s") at the parent span and one flow
    // finish ("f", binding to the enclosing slice) at the child, for every
    // cross-thread parent->child edge.  Same-thread nesting needs no arrow.
    for (const TraceEvent& ev : trace.events) {
      if (ev.dur < 0.0 || ev.parent_id == 0) continue;
      const auto it = by_span.find(ev.parent_id);
      if (it == by_span.end()) continue;
      const TraceEvent& parent = *it->second;
      if (parent.tid == ev.tid) continue;
      // The start timestamp is clamped into the parent span so viewers
      // accept the pair (s.ts <= f.ts always holds: child.ts >= s.ts).
      double s_ts = ev.ts;
      if (s_ts < parent.ts) s_ts = parent.ts;
      if (s_ts > parent.ts + parent.dur) s_ts = parent.ts + parent.dur;
      comma();
      os << "{\"ph\":\"s\",\"id\":" << ev.span_id << ",\"pid\":" << pid
         << ",\"tid\":" << parent.tid << ",\"ts\":" << s_ts * 1e6
         << ",\"cat\":\"flow\",\"name\":\"causal\"}";
      comma();
      os << "{\"ph\":\"f\",\"bp\":\"e\",\"id\":" << ev.span_id
         << ",\"pid\":" << pid << ",\"tid\":" << ev.tid
         << ",\"ts\":" << ev.ts * 1e6
         << ",\"cat\":\"flow\",\"name\":\"causal\"}";
    }
  }
  os << "]}";
}

bool TraceWriter::write() const {
  // Plain ofstream, not vfs: the trace file is tool output on the host
  // filesystem, and vfs itself carries trace spans (layering).
  std::ofstream os(path_, std::ios::binary | std::ios::trunc);
  if (!os) {
    ROC_ERROR << "trace: cannot open " << path_ << " for writing";
    return false;
  }
  write_chrome_trace(os, batches_);
  os.flush();
  if (!os) {
    ROC_ERROR << "trace: write to " << path_ << " failed";
    return false;
  }
  return true;
}

}  // namespace roc::telemetry
