#include "spans.hpp"

#include <fstream>
#include <stdexcept>

#include "common/json.hpp"

namespace perfbench {

double NowSeconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

int Tracer::Begin(const std::string& name, const std::string& layer,
                  const std::string& cell, int parent) {
  if (!enabled_) return -1;
  const double t = NowSeconds();
  return Add(name, layer, cell, parent, t, t);
}

void Tracer::End(int index) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end = NowSeconds();
}

int Tracer::Add(const std::string& name, const std::string& layer,
                const std::string& cell, int parent, double start,
                double end) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, layer, cell, start, end, parent});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.layer] += (s.end - s.start) - child_time[i];
  }
  return self;
}

double Tracer::RootSeconds() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end - s.start;
  }
  return total;
}

void Tracer::WriteChromeTrace(
    const std::string& path,
    const std::map<std::string, std::string>& metadata) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file: " + path);
  gnoc::JsonWriter w(out, /*indent=*/0);
  w.BeginObject();
  w.Key("displayTimeUnit").Value("ms");
  w.Key("metadata").BeginObject();
  for (const auto& [k, v] : metadata) w.Key(k).Value(v);
  w.EndObject();
  w.Key("traceEvents").BeginArray();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.BeginObject();
    w.Key("name").Value(s.name);
    w.Key("cat").Value(s.layer);
    w.Key("ph").Value("X");
    w.Key("pid").Value(1);
    w.Key("tid").Value(1);
    w.Key("ts").Value(s.start * 1e6);
    w.Key("dur").Value((s.end - s.start) * 1e6);
    w.Key("args").BeginObject();
    w.Key("cell").Value(s.cell);
    w.Key("span").Value(static_cast<std::int64_t>(i));
    w.Key("parent").Value(static_cast<std::int64_t>(s.parent));
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
  if (!out) throw std::runtime_error("cannot write trace file: " + path);
}

}  // namespace perfbench
