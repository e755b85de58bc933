#include "graph/io.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace ecl::graph {
namespace {

bool is_comment(const std::string& line) {
  for (char c : line) {
    if (c == ' ' || c == '\t') continue;
    return c == '#' || c == '%';
  }
  return true;  // blank line
}

std::ifstream open_or_throw(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open graph file: " + path);
  return in;
}

/// Header-declared sizes only hint the first allocation: a header line
/// must not size one, so beyond this many entries containers grow as
/// data arrives.
constexpr std::uint64_t kMaxReserve = std::uint64_t{1} << 20;

/// Text readers parse 64-bit values; a vertex count must stay below
/// kInvalidVid, the "no vertex" sentinel, and every ID below the count, or
/// the cast to the 32-bit vid would wrap.
void check_vertex_count(std::uint64_t count, const char* format, const std::string& line) {
  if (count >= kInvalidVid)
    throw std::runtime_error(std::string(format) + ": vertex count " + std::to_string(count) +
                             " does not fit the 32-bit vertex ID space in line: " + line);
}

}  // namespace

Digraph read_edge_list(std::istream& in) {
  EdgeList edges;
  std::string line;
  // The writer emits a `# vertices N edges M` header; when one is present,
  // every parsed endpoint is validated against the declared count so a
  // corrupt ID is rejected at parse time instead of materializing as an
  // oversized CSR (or silently growing the vertex set), and the declared
  // edge count sizes the adjacency store up front (one allocation instead
  // of a doubling cascade on large inputs).
  std::uint64_t declared_n = 0;
  bool have_declared_n = false;
  while (std::getline(in, line)) {
    if (is_comment(line)) {
      std::istringstream header(line);
      char hash = 0;
      std::string word;
      std::uint64_t nn = 0;
      if (!have_declared_n && header >> hash && hash == '#' && header >> word &&
          word == "vertices" && header >> nn) {
        check_vertex_count(nn, "edge list", line);
        declared_n = nn;
        have_declared_n = true;
        std::uint64_t mm = 0;
        if (header >> word && word == "edges" && header >> mm)
          edges.reserve(std::min(mm, kMaxReserve));
      }
      continue;
    }
    std::istringstream ss(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(ss >> u >> v)) throw std::runtime_error("edge list: malformed line: " + line);
    if (have_declared_n && (u >= declared_n || v >= declared_n))
      throw std::runtime_error("edge list: vertex ID out of declared range [0, " +
                               std::to_string(declared_n) + ") in line: " + line);
    // Without a header the vertex count is the largest ID + 1.
    if (std::max(u, v) >= kInvalidVid - 1)
      throw std::runtime_error("edge list: vertex ID " + std::to_string(std::max(u, v)) +
                               " does not fit the 32-bit vertex ID space in line: " + line);
    edges.add(static_cast<vid>(u), static_cast<vid>(v));
  }
  const vid n = have_declared_n ? static_cast<vid>(declared_n) : edges.min_num_vertices();
  return Digraph(n, edges);
}

Digraph read_edge_list_file(const std::string& path) {
  auto in = open_or_throw(path);
  return read_edge_list(in);
}

void write_edge_list(std::ostream& out, const Digraph& g) {
  out << "# vertices " << g.num_vertices() << " edges " << g.num_edges() << '\n';
  for (vid u = 0; u < g.num_vertices(); ++u)
    for (vid v : g.out_neighbors(u)) out << u << ' ' << v << '\n';
}

Digraph read_dimacs(std::istream& in) {
  EdgeList edges;
  vid n = 0;
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ss(line);
    char tag = 0;
    ss >> tag;
    if (tag == 'p') {
      std::string kind;
      std::uint64_t nn = 0;
      std::uint64_t mm = 0;
      if (!(ss >> kind >> nn >> mm)) throw std::runtime_error("dimacs: malformed problem line");
      check_vertex_count(nn, "dimacs", line);
      n = static_cast<vid>(nn);
      edges.reserve(std::min(mm, kMaxReserve));
      saw_header = true;
    } else if (tag == 'a' || tag == 'e') {
      if (!saw_header)
        throw std::runtime_error("dimacs: arc line before problem line: " + line);
      std::uint64_t u = 0;
      std::uint64_t v = 0;
      if (!(ss >> u >> v)) throw std::runtime_error("dimacs: malformed arc line: " + line);
      if (u == 0 || v == 0) throw std::runtime_error("dimacs: vertex IDs are 1-based");
      if (u > n || v > n)
        throw std::runtime_error("dimacs: vertex ID exceeds declared count " +
                                 std::to_string(n) + " in line: " + line);
      edges.add(static_cast<vid>(u - 1), static_cast<vid>(v - 1));
    }
  }
  if (!saw_header) throw std::runtime_error("dimacs: missing problem line");
  return Digraph(n, edges);
}

void write_dimacs(std::ostream& out, const Digraph& g) {
  out << "p sp " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (vid u = 0; u < g.num_vertices(); ++u)
    for (vid v : g.out_neighbors(u)) out << "a " << (u + 1) << ' ' << (v + 1) << '\n';
}

Digraph read_matrix_market(std::istream& in) {
  std::string line;
  // Header (first non-comment line): rows cols entries.
  vid n = 0;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  EdgeList edges;
  bool saw_size = false;
  while (std::getline(in, line)) {
    if (is_comment(line)) continue;
    std::istringstream ss(line);
    if (!saw_size) {
      std::uint64_t entries = 0;
      if (!(ss >> rows >> cols >> entries)) throw std::runtime_error("mtx: malformed size line");
      check_vertex_count(std::max(rows, cols), "mtx", line);
      n = static_cast<vid>(std::max(rows, cols));
      edges.reserve(std::min(entries, kMaxReserve));
      saw_size = true;
    } else {
      std::uint64_t i = 0;
      std::uint64_t j = 0;
      if (!(ss >> i >> j)) throw std::runtime_error("mtx: malformed entry: " + line);
      if (i == 0 || j == 0) throw std::runtime_error("mtx: indices are 1-based");
      if (i > rows || j > cols)
        throw std::runtime_error("mtx: index exceeds declared size " + std::to_string(rows) +
                                 "x" + std::to_string(cols) + " in line: " + line);
      edges.add(static_cast<vid>(i - 1), static_cast<vid>(j - 1));
    }
  }
  if (!saw_size) throw std::runtime_error("mtx: missing size line");
  return Digraph(n, edges);
}

void write_matrix_market(std::ostream& out, const Digraph& g) {
  out << "%%MatrixMarket matrix coordinate pattern general\n";
  out << g.num_vertices() << ' ' << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (vid u = 0; u < g.num_vertices(); ++u)
    for (vid v : g.out_neighbors(u)) out << (u + 1) << ' ' << (v + 1) << '\n';
}

UpdateStream read_update_stream(std::istream& in) {
  UpdateStream stream;
  std::string line;
  bool reserved = false;
  while (std::getline(in, line)) {
    if (is_comment(line)) {
      // The writer's `# updates N` header sizes the stream up front.
      std::istringstream header(line);
      char hash = 0;
      std::string word;
      std::uint64_t nn = 0;
      if (!reserved && header >> hash && hash == '#' && header >> word &&
          word == "updates" && header >> nn) {
        stream.reserve(std::min(nn, kMaxReserve));
        reserved = true;
      }
      continue;
    }
    std::istringstream ss(line);
    char sign = 0;
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(ss >> sign >> u >> v) || (sign != '+' && sign != '-'))
      throw std::runtime_error("update stream: malformed line: " + line);
    if (std::max(u, v) >= kInvalidVid)
      throw std::runtime_error("update stream: vertex ID " + std::to_string(std::max(u, v)) +
                               " does not fit the 32-bit vertex ID space in line: " + line);
    const auto kind =
        sign == '+' ? EdgeUpdate::Kind::kInsert : EdgeUpdate::Kind::kErase;
    stream.push_back({kind, static_cast<vid>(u), static_cast<vid>(v)});
  }
  return stream;
}

UpdateStream read_update_stream_file(const std::string& path) {
  auto in = open_or_throw(path);
  return read_update_stream(in);
}

void write_update_stream(std::ostream& out, const UpdateStream& stream) {
  out << "# updates " << stream.size() << '\n';
  for (const EdgeUpdate& u : stream) {
    out << (u.kind == EdgeUpdate::Kind::kInsert ? '+' : '-') << u.src << ' ' << u.dst << '\n';
  }
}

void write_update_stream_file(const std::string& path, const UpdateStream& stream) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_update_stream(out, stream);
  if (!out) throw std::runtime_error("write failed: " + path);
}

namespace {

constexpr char kBinaryMagic[4] = {'E', 'C', 'L', 'G'};
constexpr std::uint32_t kBinaryVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("eclg: truncated file");
  return value;
}

/// Bytes left between the read position and the end of a seekable stream;
/// -1 when the stream cannot seek.
std::int64_t bytes_remaining(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return -1;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (end == std::istream::pos_type(-1) || !in) {
    in.clear();
    in.seekg(here);
    return -1;
  }
  return static_cast<std::int64_t>(end - here);
}

/// Reads `count` elements, growing the array only as data arrives, so a
/// header that overstates the array on a non-seekable stream cannot force
/// a giant allocation up front.
template <typename T>
std::vector<T> read_array(std::istream& in, std::uint64_t count) {
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
  std::vector<T> out;
  while (out.size() < count) {
    const std::size_t done = out.size();
    const auto take = static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, count - done));
    out.resize(done + take);
    in.read(reinterpret_cast<char*>(out.data() + done),
            static_cast<std::streamsize>(take * sizeof(T)));
    if (!in) throw std::runtime_error("eclg: truncated arrays");
  }
  return out;
}

}  // namespace

Digraph read_binary(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  if (!in || !std::equal(magic, magic + 4, kBinaryMagic))
    throw std::runtime_error("eclg: bad magic");
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kBinaryVersion) throw std::runtime_error("eclg: unsupported version");
  const auto n = read_pod<std::uint64_t>(in);
  const auto m = read_pod<std::uint64_t>(in);

  // Everything below is outside input: validate it before it sizes an
  // allocation or reaches the trusted Digraph(offsets, targets) constructor,
  // whose callers (and Digraph::reverse) index by it unchecked.
  if (n >= kInvalidVid)
    throw std::runtime_error("eclg: vertex count " + std::to_string(n) +
                             " does not fit the 32-bit vertex ID space");
  const std::int64_t remaining = bytes_remaining(in);
  if (remaining >= 0) {
    const auto left = static_cast<std::uint64_t>(remaining);
    const std::uint64_t offset_bytes = (n + 1) * sizeof(eid);  // n < 2^32: no overflow
    if (offset_bytes > left || m > (left - offset_bytes) / sizeof(vid))
      throw std::runtime_error("eclg: header declares " + std::to_string(n) + " vertices and " +
                               std::to_string(m) + " edges, more than the " +
                               std::to_string(left) + " bytes left in the file");
  }
  std::vector<eid> offsets = read_array<eid>(in, n + 1);
  if (offsets[0] != 0)
    throw std::runtime_error("eclg: offsets[0] is " + std::to_string(offsets[0]) + ", not 0");
  for (std::uint64_t v = 0; v < n; ++v)
    if (offsets[v + 1] < offsets[v])
      throw std::runtime_error("eclg: offsets decrease at vertex " + std::to_string(v));
  if (offsets[n] != m)
    throw std::runtime_error("eclg: offsets end at " + std::to_string(offsets[n]) +
                             ", not at the edge count " + std::to_string(m));
  std::vector<vid> targets = read_array<vid>(in, m);
  for (std::uint64_t u = 0; u < n; ++u) {
    for (eid j = offsets[u]; j < offsets[u + 1]; ++j) {
      if (targets[j] >= n)
        throw std::runtime_error("eclg: vertex " + std::to_string(u) + " has target " +
                                 std::to_string(targets[j]) + ", out of range for " +
                                 std::to_string(n) + " vertices");
      if (j > offsets[u] && targets[j] <= targets[j - 1])
        throw std::runtime_error("eclg: targets of vertex " + std::to_string(u) +
                                 " are not strictly increasing");
    }
  }
  return Digraph(std::move(offsets), std::move(targets));
}

void write_binary(std::ostream& out, const Digraph& g) {
  out.write(kBinaryMagic, 4);
  write_pod(out, kBinaryVersion);
  write_pod(out, static_cast<std::uint64_t>(g.num_vertices()));
  write_pod(out, static_cast<std::uint64_t>(g.num_edges()));
  out.write(reinterpret_cast<const char*>(g.offsets().data()),
            static_cast<std::streamsize>(g.offsets().size() * sizeof(eid)));
  out.write(reinterpret_cast<const char*>(g.targets().data()),
            static_cast<std::streamsize>(g.targets().size() * sizeof(vid)));
}

Digraph read_graph_file(const std::string& path) {
  auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return path.size() >= s.size() && path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".eclg")) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open graph file: " + path);
    return read_binary(in);
  }
  auto in = open_or_throw(path);
  if (ends_with(".mtx")) return read_matrix_market(in);
  if (ends_with(".gr") || ends_with(".dimacs")) return read_dimacs(in);
  return read_edge_list(in);
}

void write_graph_file(const std::string& path, const Digraph& g) {
  auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return path.size() >= s.size() && path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  std::ofstream out(path, ends_with(".eclg") ? std::ios::binary : std::ios::out);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  if (ends_with(".eclg")) write_binary(out, g);
  else if (ends_with(".mtx")) write_matrix_market(out, g);
  else if (ends_with(".gr") || ends_with(".dimacs")) write_dimacs(out, g);
  else write_edge_list(out, g);
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace ecl::graph
