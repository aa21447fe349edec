#include "span_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "util/error.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

/// Open spans of every tracer on this thread, innermost last.
thread_local std::vector<std::pair<const Tracer*, int>> tl_open;

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name, std::int64_t op,
                     int parent)
    : tracer_(tracer) {
  if (parent == kCurrent) {
    parent = tracer.orphan_parent_.load();
    for (auto it = tl_open.rbegin(); it != tl_open.rend(); ++it) {
      if (it->first == &tracer) {
        parent = it->second;
        break;
      }
    }
  }
  span_.id = tracer.next_id_.fetch_add(1);
  span_.parent = parent;
  span_.name = std::string(name);
  span_.tid = thread_index();
  span_.op = op;
  tl_open.emplace_back(&tracer, span_.id);
  span_.start = tracer.now();
}

Tracer::Scope::~Scope() {
  span_.end = tracer_.now();
  // Scopes are strictly nested per thread, so ours is the innermost.
  tl_open.pop_back();
  tracer_.record(std::move(span_));
}

void Tracer::record(Span span) {
  nestwx::util::MutexLock lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  {
    nestwx::util::MutexLock lock(mu_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

namespace {

/// Self time per span id.
std::map<int, double> self_time_by_id(const std::vector<Span>& spans) {
  const int n = static_cast<int>(spans.size());
  std::unordered_map<int, int> index_of;
  for (int i = 0; i < n; ++i) index_of.emplace(spans[i].id, i);
  std::vector<int> parent(n, -1);
  for (int i = 0; i < n; ++i) {
    const auto it = index_of.find(spans[i].parent);
    if (it != index_of.end()) parent[i] = it->second;
  }

  struct Event {
    double t;
    bool start;
    int index;
  };
  std::vector<Event> events;
  events.reserve(2 * spans.size());
  for (int i = 0; i < n; ++i) {
    if (spans[i].end <= spans[i].start) continue;
    events.push_back({spans[i].start, true, i});
    events.push_back({spans[i].end, false, i});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t < b.t; });

  std::vector<double> self(n, 0.0);
  std::vector<int> active;
  std::vector<char> covered(n, 0);  // has an open descendant
  for (std::size_t e = 0; e < events.size();) {
    const double t = events[e].t;
    for (; e < events.size() && events[e].t == t; ++e) {
      if (events[e].start) {
        active.push_back(events[e].index);
      } else {
        active.erase(std::find(active.begin(), active.end(), events[e].index));
      }
    }
    if (e == events.size() || active.empty()) continue;
    const double length = events[e].t - t;
    for (int a : active)
      for (int p = parent[a]; p >= 0; p = parent[p]) covered[p] = 1;
    int innermost = 0;
    for (int a : active) innermost += covered[a] ? 0 : 1;
    for (int a : active)
      if (!covered[a]) self[a] += length / innermost;
    for (int a : active)
      for (int p = parent[a]; p >= 0; p = parent[p]) covered[p] = 0;
  }

  std::map<int, double> out;
  for (int i = 0; i < n; ++i) out[spans[i].id] = self[i];
  return out;
}

}  // namespace

std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::map<int, double> by_id = self_time_by_id(spans);
  std::map<std::string, double> out;
  for (const Span& s : spans) out[s.name] += by_id.at(s.id);
  return out;
}

std::vector<double> durations_of(const std::vector<Span>& spans,
                                 std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.name == name) out.push_back(s.duration());
  return out;
}

namespace {

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Number following `"key": ` on `line`.
double number_after(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = line.find(tag);
  NESTWX_REQUIRE(at != std::string::npos,
                 "trace event without \"" + key + "\": " + line);
  const char* begin = line.c_str() + at + tag.size();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  NESTWX_REQUIRE(end != begin, "trace event with bad \"" + key + "\": " + line);
  return v;
}

}  // namespace

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::map<std::string, std::string>& metadata) {
  std::ofstream out(path, std::ios::trunc);
  NESTWX_REQUIRE(out.good(), "cannot open " + path + " for writing");
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    NESTWX_REQUIRE(s.name.find_first_of("\"\\\n") == std::string::npos,
                   "span name needs escaping: " + s.name);
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": " << s.tid << ", \"ts\": " << exact(s.start * 1e6)
        << ", \"dur\": " << exact(s.duration() * 1e6) << ", \"args\": {"
        << "\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}}" << (i + 1 < spans.size() ? "," : "")
        << "\n";
  }
  out << "],\n\"otherData\": {";
  bool first = true;
  for (const auto& [key, value] : metadata) {
    out << (first ? "" : ", ") << nestwx::util::json_quote(key) << ": "
        << nestwx::util::json_quote(value);
    first = false;
  }
  out << "}}\n";
  NESTWX_REQUIRE(out.good(), "failed writing " + path);
}

std::vector<Span> read_chrome_trace(const std::string& path) {
  std::ifstream in(path);
  NESTWX_REQUIRE(in.good(), "cannot open " + path);
  std::vector<Span> spans;
  std::string line;
  const std::string name_tag = "{\"name\": \"";
  while (std::getline(in, line)) {
    if (line.rfind(name_tag, 0) != 0) continue;
    const std::size_t close = line.find('"', name_tag.size());
    NESTWX_REQUIRE(close != std::string::npos, "unterminated name: " + line);
    Span s;
    s.name = line.substr(name_tag.size(), close - name_tag.size());
    s.tid = static_cast<int>(number_after(line, "tid"));
    s.start = number_after(line, "ts") * 1e-6;
    s.end = s.start + number_after(line, "dur") * 1e-6;
    s.id = static_cast<int>(number_after(line, "id"));
    s.parent = static_cast<int>(number_after(line, "parent"));
    s.op = static_cast<std::int64_t>(number_after(line, "op"));
    spans.push_back(std::move(s));
  }
  return spans;
}

}  // namespace perfbench
