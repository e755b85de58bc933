#include "bench_json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "support/env.hpp"

namespace ecl::e2e {
namespace {

void escape_into(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
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
  out += '"';
}

void newline(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

/// Runs `git -C <repo> <args>`; returns its exit status and first line.
int git(const std::string& args, std::string& line) {
  const std::string cmd = "git -C '" ECL_REPO_DIR "' " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[128] = {};
  line = std::fgets(buf, sizeof buf, pipe) != nullptr ? buf : "";
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
  return pclose(pipe);
}

/// HEAD of the tree the program was built from, with "-dirty" when tracked
/// files differ from it, or "unknown" outside a git checkout.
std::string git_sha() {
  // Only ask git when the tree is a checkout itself: otherwise it would walk
  // up into whatever repository happens to enclose it.
  if (!std::filesystem::exists(ECL_REPO_DIR "/.git")) return "unknown";
  std::string sha, ignored;
  if (git("rev-parse HEAD", sha) != 0 || sha.empty()) return "unknown";
  return git("diff --quiet HEAD", ignored) == 0 ? sha : sha + "-dirty";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

}  // namespace

Json::Json(bool value) : kind_(Kind::kBool), scalar_(value ? "true" : "false") {}

Json::Json(double value) {
  if (!std::isfinite(value)) return;  // JSON has no NaN / inf
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  kind_ = Kind::kNumber;
  scalar_.assign(buf, res.ptr);
}

Json::Json(std::int64_t value) : kind_(Kind::kNumber), scalar_(std::to_string(value)) {}
Json::Json(std::uint64_t value) : kind_(Kind::kNumber), scalar_(std::to_string(value)) {}
Json::Json(std::string value) : kind_(Kind::kString), scalar_(std::move(value)) {}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json& Json::set(std::string key, Json value) {
  if (kind_ != Kind::kObject) throw std::logic_error("Json::set on a non-object");
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (kind_ != Kind::kArray) throw std::logic_error("Json::push on a non-array");
  items_.push_back(std::move(value));
  return *this;
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

void Json::write(std::string& out, int indent, int depth) const {
  const char* sep = indent < 0 ? ", " : ",";
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool:
    case Kind::kNumber: out += scalar_; break;
    case Kind::kString: escape_into(out, scalar_); break;
    case Kind::kArray:
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out += sep;
        newline(out, indent, depth + 1);
        items_[i].write(out, indent, depth + 1);
      }
      if (!items_.empty()) newline(out, indent, depth);
      out += ']';
      break;
    case Kind::kObject:
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out += sep;
        newline(out, indent, depth + 1);
        escape_into(out, members_[i].first);
        out += ": ";
        members_[i].second.write(out, indent, depth + 1);
      }
      if (!members_.empty()) newline(out, indent, depth);
      out += '}';
      break;
  }
}

Json result_header(const std::string& bench, std::size_t runs, const std::string& statistic) {
  Json host = Json::object();
  host.set("nproc", std::thread::hardware_concurrency());
  host.set("cpu_model", cpu_model());
  Json header = Json::object();
  header.set("bench", bench);
  header.set("git_sha", git_sha());
  header.set("scale", scale_factor());
  header.set("runs", static_cast<std::uint64_t>(runs));
  header.set("statistic", statistic);
  header.set("host", std::move(host));
  return header;
}

void write_json_file(const std::string& path, const Json& doc) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << doc.dump(2) << '\n';
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace ecl::e2e
