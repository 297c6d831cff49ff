#include "bench_json.hpp"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "nn/kernels.hpp"

namespace fenix::bench {
namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string render_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream os;
  os.precision(10);
  os << value;
  return os.str();
}

/// Extracts the existing top-level sections as (name, raw-JSON-value) pairs.
/// The file is only ever written by this emitter, so the scanner handles
/// exactly that shape; anything malformed yields an empty list (the file is
/// then rebuilt from scratch).
std::vector<std::pair<std::string, std::string>> parse_sections(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> sections;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '{') return {};
  ++i;
  for (;;) {
    skip_ws();
    if (i < text.size() && text[i] == '}') return sections;
    if (i >= text.size() || text[i] != '"') return {};
    // Section name (no escapes are ever emitted in section names).
    const std::size_t name_end = text.find('"', i + 1);
    if (name_end == std::string::npos) return {};
    std::string name = text.substr(i + 1, name_end - i - 1);
    i = name_end + 1;
    skip_ws();
    if (i >= text.size() || text[i] != ':') return {};
    ++i;
    skip_ws();
    if (i >= text.size() || text[i] != '{') return {};
    // Balanced-brace scan of the section body, skipping string contents.
    const std::size_t body_start = i;
    int depth = 0;
    bool in_string = false;
    for (; i < text.size(); ++i) {
      const char c = text[i];
      if (in_string) {
        if (c == '\\') ++i;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}') {
        if (--depth == 0) { ++i; break; }
      }
    }
    if (depth != 0) return {};
    sections.emplace_back(std::move(name), text.substr(body_start, i - body_start));
    skip_ws();
    if (i < text.size() && text[i] == ',') ++i;
  }
}

/// Splits one section body ("{ \"k\": v, ... }") into (key, raw value)
/// pairs. Same restricted shape as parse_sections: emitter-written JSON only.
std::vector<std::pair<std::string, std::string>> parse_entries(
    const std::string& body) {
  std::vector<std::pair<std::string, std::string>> entries;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < body.size() && std::isspace(static_cast<unsigned char>(body[i]))) ++i;
  };
  skip_ws();
  if (i >= body.size() || body[i] != '{') return {};
  ++i;
  for (;;) {
    skip_ws();
    if (i < body.size() && body[i] == '}') return entries;
    if (i >= body.size() || body[i] != '"') return {};
    const std::size_t key_end = body.find('"', i + 1);
    if (key_end == std::string::npos) return {};
    std::string key = body.substr(i + 1, key_end - i - 1);
    i = key_end + 1;
    skip_ws();
    if (i >= body.size() || body[i] != ':') return {};
    ++i;
    skip_ws();
    std::size_t value_start = i;
    if (i < body.size() && body[i] == '"') {
      ++i;
      while (i < body.size() && body[i] != '"') {
        if (body[i] == '\\') ++i;
        ++i;
      }
      if (i >= body.size()) return {};
      ++i;  // closing quote
    } else {
      while (i < body.size() && body[i] != ',' && body[i] != '}' &&
             !std::isspace(static_cast<unsigned char>(body[i]))) {
        ++i;
      }
    }
    entries.emplace_back(std::move(key),
                         body.substr(value_start, i - value_start));
    skip_ws();
    if (i < body.size() && body[i] == ',') ++i;
  }
}

// The machine and build every section of the file was measured on,
// rewritten with each section so it always describes the latest writer.
JsonSection host_section() {
  JsonSection host;
  host.put("kernel_isa", std::string(nn::kernels::isa_name()));
  host.put("hardware_threads",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  host.put("build_type", std::string(FENIX_BUILD_TYPE));
  host.put("compiler", std::string(__VERSION__));
  return host;
}

}  // namespace

void JsonSection::put(const std::string& key, double value) {
  entries_.emplace_back(key, render_number(value));
}

void JsonSection::put(const std::string& key, std::int64_t value) {
  entries_.emplace_back(key, std::to_string(value));
}

void JsonSection::put(const std::string& key, const std::string& text) {
  entries_.emplace_back(key, "\"" + escape(text) + "\"");
}

std::string bench_json_path(const std::string& default_file) {
  if (const char* env = std::getenv("FENIX_BENCH_JSON")) return env;
  return default_file;
}

bool write_bench_json(const std::string& name, const JsonSection& section,
                      const std::string& default_file) {
  const std::string path = bench_json_path(default_file);

  std::vector<std::pair<std::string, std::string>> sections;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      sections = parse_sections(buffer.str());
    }
  }

  const auto upsert = [&sections](const std::string& section_name,
                                  const JsonSection& entries) {
    std::ostringstream body;
    body << "{\n";
    bool first_entry = true;
    for (const auto& [key, value] : entries.entries()) {
      if (!first_entry) body << ",\n";
      first_entry = false;
      body << "    \"" << escape(key) << "\": " << value;
    }
    body << "\n  }";
    for (auto& [existing_name, existing_body] : sections) {
      if (existing_name == section_name) {
        existing_body = body.str();
        return;
      }
    }
    sections.emplace_back(section_name, body.str());
  };
  upsert(name, section);
  upsert("host", host_section());

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "bench_json: cannot write " << path << "\n";
    return false;
  }
  out << "{\n";
  for (std::size_t s = 0; s < sections.size(); ++s) {
    out << "  \"" << escape(sections[s].first) << "\": " << sections[s].second
        << (s + 1 < sections.size() ? ",\n" : "\n");
  }
  out << "}\n";
  std::cout << "[bench_json] wrote section \"" << name << "\" to " << path << "\n";
  return true;
}

std::vector<BenchMetric> read_bench_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::vector<BenchMetric> metrics;
  for (const auto& [section, body] : parse_sections(buffer.str())) {
    for (const auto& [key, value] : parse_entries(body)) {
      metrics.push_back({section, key, value});
    }
  }
  return metrics;
}

}  // namespace fenix::bench
