// bench_compare: diff a bench JSON or scenario-matrix report against a
// committed baseline.
//
// Usage:
//   bench_compare <baseline.json> <current.json> [--pct X] [--ignore SUB]...
//
// Flattens every leaf of both documents (numbers, booleans, strings and
// nulls) into "path -> value" maps (obs::json::flatten) and compares them.
// Paths containing "wall_ms" (host timing) or "peak_rss" (host memory) —
// never comparable across machines — are ignored by default; --ignore adds
// more substrings. The bench metrics and scenario-matrix reports outside
// those paths are pure functions of the seeds, so the default tolerance is
// exact equality; --pct X tolerates X percent relative drift for noisy
// numeric fields. Booleans, strings and nulls must match exactly, kind
// included. Exits 1 on any difference beyond tolerance, printing one line
// per offending path.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_reader.h"

namespace {

using idgka::obs::json::JsonValue;

bool read_file(const char* path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_compare <baseline.json> <current.json> [--pct X] [--ignore SUB]...\n");
  return 2;
}

std::string show(const JsonValue& v) {
  if (v.is_number()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v.as_double());
    return buf;
  }
  if (v.kind() == JsonValue::Kind::kBool) return v.as_bool() ? "true" : "false";
  return v.is_string() ? "\"" + v.as_string() + "\"" : "null";
}

/// Numbers may drift by `pct` percent of the baseline; every other leaf
/// must have the baseline's kind and value.
bool matches(const JsonValue& base, const JsonValue& cur, double pct) {
  if (base.is_number() && cur.is_number()) {
    return std::fabs(cur.as_double() - base.as_double()) <=
           std::fabs(base.as_double()) * pct / 100.0 + 1e-12;
  }
  if (base.kind() != cur.kind()) return false;
  if (base.kind() == JsonValue::Kind::kBool) return base.as_bool() == cur.as_bool();
  if (base.is_string()) return base.as_string() == cur.as_string();
  return true;  // both null
}

bool ignored(const std::string& path, const std::vector<std::string>& ignores) {
  for (const std::string& sub : ignores) {
    if (path.find(sub) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* current_path = nullptr;
  double pct = 0.0;
  std::vector<std::string> ignores = {"wall_ms", "peak_rss"};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pct") == 0 && i + 1 < argc) {
      pct = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--ignore") == 0 && i + 1 < argc) {
      ignores.emplace_back(argv[++i]);
    } else if (argv[i][0] == '-') {
      return usage();
    } else if (baseline_path == nullptr) {
      baseline_path = argv[i];
    } else if (current_path == nullptr) {
      current_path = argv[i];
    } else {
      return usage();
    }
  }
  if (baseline_path == nullptr || current_path == nullptr) return usage();

  std::string baseline_text;
  std::string current_text;
  if (!read_file(baseline_path, baseline_text)) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", baseline_path);
    return 1;
  }
  if (!read_file(current_path, current_text)) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", current_path);
    return 1;
  }

  std::map<std::string, JsonValue> baseline;
  std::map<std::string, JsonValue> current;
  try {
    baseline = idgka::obs::json::flatten(idgka::obs::json::parse(baseline_text));
    current = idgka::obs::json::flatten(idgka::obs::json::parse(current_text));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 1;
  }

  int differences = 0;
  for (const auto& [path, base] : baseline) {
    if (ignored(path, ignores)) continue;
    const auto it = current.find(path);
    if (it == current.end()) {
      std::printf("MISSING  %s (baseline %s)\n", path.c_str(), show(base).c_str());
      ++differences;
      continue;
    }
    if (!matches(base, it->second, pct)) {
      std::printf("DIFFER   %s baseline %s current %s\n", path.c_str(), show(base).c_str(),
                  show(it->second).c_str());
      ++differences;
    }
  }
  for (const auto& [path, cur] : current) {
    if (ignored(path, ignores)) continue;
    if (!baseline.contains(path)) {
      std::printf("NEW      %s (current %s)\n", path.c_str(), show(cur).c_str());
      ++differences;
    }
  }
  if (differences == 0) {
    std::printf("bench_compare: %s matches baseline (%zu fields compared)\n", current_path,
                baseline.size());
    return 0;
  }
  std::printf("bench_compare: %d difference(s) vs %s\n", differences, baseline_path);
  return 1;
}
