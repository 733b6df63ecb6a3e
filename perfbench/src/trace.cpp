// Span recorder and its Chrome trace-event writer.
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

std::uint64_t Tracer::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_us = std::chrono::duration<double, std::micro>(Clock::now() - origin_)
                   .count();
  s.id = next_id_++;
  open_[s.id] = spans_.size();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id,
                 std::vector<std::pair<std::string, double>> args) {
  const auto it = open_.find(id);
  if (it == open_.end()) return;  // cleared while open
  Span& s = spans_[it->second];
  s.dur_us = std::chrono::duration<double, std::micro>(Clock::now() - origin_)
                 .count() -
             s.start_us;
  s.args = std::move(args);
  open_.erase(it);
}

std::uint64_t Tracer::add_virtual(std::string name, int track,
                                  std::int64_t start_ns, std::int64_t end_ns,
                                  std::uint64_t parent) {
  Span s;
  s.name = std::move(name);
  s.track = track;
  s.start_us = static_cast<double>(start_ns) / 1e3;
  s.dur_us = static_cast<double>(end_ns - start_ns) / 1e3;
  s.id = next_id_++;
  s.parent = parent;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

bool Tracer::write(const std::string& path,
                   const std::string& meta_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // pid 1 is the host clock, pid 2 the virtual clock (one tid per client).
  std::fprintf(f, "{\"metadata\": %s,\n\"traceEvents\": [\n", meta_json.c_str());
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":\"host clock\"}},\n"
               "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
               "\"args\":{\"name\":\"virtual clock\"}}");
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu",
                 s.name.c_str(), s.track == 0 ? 1 : 2, s.track, s.start_us,
                 s.dur_us, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    for (const auto& [k, v] : s.args) {
      std::fprintf(f, ",\"%s\":%.17g", k.c_str(), v);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
