#include "obs/exposition.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace cyclestream {
namespace obs {
namespace {

bool IsNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

// "service.errors_latched" -> "service_errors_latched". Any character
// outside the Prometheus name alphabet becomes '_'.
std::string SanitizeName(std::string_view base) {
  std::string out;
  out.reserve(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    out.push_back(IsNameChar(base[i], i == 0) ? base[i] : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

// Splits "base/k=v,k2=v2" into the sanitized base name and rendered
// `k="v",k2="v2"` label pairs (empty when there is no '/' suffix).
void SplitName(const std::string& name, std::string* base,
               std::string* labels) {
  const std::size_t slash = name.find('/');
  *base = SanitizeName(name.substr(0, slash));
  labels->clear();
  if (slash == std::string::npos) return;
  std::string_view rest = std::string_view(name).substr(slash + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    const std::size_t eq = pair.find('=');
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : pair.substr(eq + 1);
    if (!key.empty()) {
      if (!labels->empty()) labels->push_back(',');
      *labels += SanitizeName(key);
      *labels += "=\"";
      *labels += EscapeLabelValue(value);
      *labels += '"';
    }
    if (comma == std::string_view::npos) break;
    rest = rest.substr(comma + 1);
  }
}

std::string FormatDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  return Json(v).Dump();  // round-trip-exact shortest form
}

// One `name{labels} value` sample line.
std::string SampleLine(const std::string& name, const std::string& labels,
                       const std::string& value) {
  std::string out = name;
  if (!labels.empty()) {
    out.push_back('{');
    out += labels;
    out.push_back('}');
  }
  out.push_back(' ');
  out += value;
  out.push_back('\n');
  return out;
}

// Adds `le="..."` to an existing (possibly empty) label set.
std::string WithLe(const std::string& labels, const std::string& le) {
  std::string out = labels;
  if (!out.empty()) out.push_back(',');
  out += "le=\"";
  out += le;
  out += '"';
  return out;
}

struct Family {
  const char* type = "counter";
  std::vector<std::string> lines;
};

void Emit(std::map<std::string, Family>& families, const std::string& base,
          const char* type, std::string line) {
  Family& family = families[base];
  family.type = type;
  family.lines.push_back(std::move(line));
}

}  // namespace

std::string PrometheusText(const Snapshot& snapshot) {
  // Group samples into families keyed by the sanitized base name, so
  // labeled variants of one metric share a single # TYPE header. The
  // input maps are name-sorted, so lines within a family are ordered too.
  std::map<std::string, Family> families;
  std::string base, labels;
  for (const auto& [name, value] : snapshot.counters) {
    SplitName(name, &base, &labels);
    Emit(families, base, "counter",
         SampleLine(base, labels, std::to_string(value)));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    SplitName(name, &base, &labels);
    Emit(families, base, "gauge",
         SampleLine(base, labels, FormatDouble(value)));
  }
  for (const auto& [name, h] : snapshot.histograms) {
    SplitName(name, &base, &labels);
    Family& family = families[base];
    family.type = "histogram";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      cumulative += h.bucket_counts[i];
      const std::string le =
          i < h.bounds.size() ? FormatDouble(h.bounds[i]) : "+Inf";
      family.lines.push_back(SampleLine(base + "_bucket", WithLe(labels, le),
                                        std::to_string(cumulative)));
    }
    family.lines.push_back(
        SampleLine(base + "_sum", labels, FormatDouble(h.sum)));
    family.lines.push_back(
        SampleLine(base + "_count", labels, std::to_string(h.count)));
  }

  std::string out;
  for (const auto& [name, family] : families) {
    out += "# TYPE ";
    out += name;
    out.push_back(' ');
    out += family.type;
    out.push_back('\n');
    for (const std::string& line : family.lines) out += line;
  }
  return out;
}

Status WritePrometheusText(const Snapshot& snapshot,
                           const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::NotFound("exposition: cannot open '" + path +
                            "' for writing");
  }
  const std::string text = PrometheusText(snapshot);
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  return Status::Ok();
}

}  // namespace obs
}  // namespace cyclestream
