#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "sparse/coo.hpp"

namespace esrp {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

} // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  ESRP_CHECK_MSG(static_cast<bool>(std::getline(in, line)),
                 "empty Matrix Market stream");

  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  ESRP_CHECK_MSG(banner == "%%MatrixMarket", "missing MatrixMarket banner");
  ESRP_CHECK_MSG(lower(object) == "matrix", "unsupported object: " << object);
  ESRP_CHECK_MSG(lower(format) == "coordinate",
                 "only coordinate format is supported, got " << format);
  const std::string f = lower(field);
  ESRP_CHECK_MSG(f == "real" || f == "integer",
                 "only real/integer fields are supported, got " << field);
  const std::string sym = lower(symmetry);
  ESRP_CHECK_MSG(sym == "general" || sym == "symmetric",
                 "only general/symmetric matrices are supported, got "
                     << symmetry);

  // Skip comments and blank lines up to the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream sizes(line);
  index_t rows = 0, cols = 0, entries = 0;
  sizes >> rows >> cols >> entries;
  ESRP_CHECK_MSG(!sizes.fail() && rows > 0 && cols > 0 && entries >= 0,
                 "invalid size line: " << line);
  // A coordinate file lists each position at most once; a larger count is
  // corrupt and must not size anything.
  ESRP_CHECK_MSG(entries == 0 || (entries - 1) / cols < rows,
                 "entry count " << entries << " exceeds " << rows << " x "
                                << cols << " positions");

  CooBuilder builder(rows, cols);
  index_t seen = 0;
  while (seen < entries && std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream entry(line);
    index_t i = 0, j = 0;
    std::string value;
    entry >> i >> j >> value;
    ESRP_CHECK_MSG(!entry.fail(), "malformed entry line: " << line);
    char* end = nullptr;
    const real_t v = std::strtod(value.c_str(), &end);
    ESRP_CHECK_MSG(end != value.c_str() && *end == '\0',
                   "malformed entry line: " << line);
    ESRP_CHECK_MSG(std::isfinite(v),
                   "non-finite value in entry line: " << line);
    if (sym == "symmetric")
      builder.add_sym(i - 1, j - 1, v);
    else
      builder.add(i - 1, j - 1, v);
    ++seen;
  }
  ESRP_CHECK_MSG(seen == entries,
                 "expected " << entries << " entries, found " << seen);
  return builder.to_csr();
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  ESRP_CHECK_MSG(in.is_open(), "cannot open Matrix Market file: " << path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << a.rows() << ' ' << a.cols() << ' ' << a.nnz() << '\n';
  out.precision(17);
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k)
      out << (i + 1) << ' ' << (cols[k] + 1) << ' ' << vals[k] << '\n';
  }
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& a) {
  std::ofstream out(path);
  ESRP_CHECK_MSG(out.is_open(), "cannot open file for writing: " << path);
  write_matrix_market(out, a);
}

} // namespace esrp
