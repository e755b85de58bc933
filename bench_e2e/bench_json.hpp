#ifndef ECL_BENCH_E2E_BENCH_JSON_HPP
#define ECL_BENCH_E2E_BENCH_JSON_HPP

// Minimal ordered JSON document writer for bench result files, plus the
// run-environment header every result file carries (bench name, git sha,
// scale, runs, statistic, host), so two files can be told apart and
// compared by bench_diff.py.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ecl::e2e {

/// A JSON value. Objects keep insertion order; numbers are written with
/// every digit needed to read them back exactly (non-finite -> null).
class Json {
 public:
  Json() = default;  // null
  Json(bool value);
  Json(double value);
  Json(std::int64_t value);
  Json(std::uint64_t value);
  Json(int value) : Json(static_cast<std::int64_t>(value)) {}
  Json(unsigned value) : Json(static_cast<std::uint64_t>(value)) {}
  Json(std::string value);
  Json(const char* value) : Json(std::string(value)) {}

  static Json object();
  static Json array();

  /// Appends a member to an object (keys are not deduplicated).
  Json& set(std::string key, Json value);
  /// Appends an element to an array.
  Json& push(Json value);

  /// indent < 0: one line; otherwise pretty-printed with that many spaces.
  std::string dump(int indent = -1) const;

 private:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  std::string scalar_;  ///< rendered number / bool, or the raw string
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// {"bench", "git_sha", "scale", "runs", "statistic", "host": {"nproc",
/// "cpu_model"}}. The sha is `git rev-parse HEAD` of the tree the program
/// was built from, suffixed "-dirty" when tracked files differ from HEAD,
/// or "unknown" when that tree is not a git checkout.
Json result_header(const std::string& bench, std::size_t runs, const std::string& statistic);

/// Writes `doc` pretty-printed to `path`; throws std::runtime_error on
/// failure.
void write_json_file(const std::string& path, const Json& doc);

}  // namespace ecl::e2e

#endif  // ECL_BENCH_E2E_BENCH_JSON_HPP
