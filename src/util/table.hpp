#pragma once
// ASCII table rendering for benchmark output.  Every bench binary prints the
// paper's table/figure data as an aligned text table so the reproduced
// series can be eyeballed against the published one.

#include <string>
#include <vector>

namespace bitio {

/// Column-aligned ASCII table.  First added row is the header.
class TextTable {
public:
  explicit TextTable(std::string title = {}) : title_(std::move(title)) {}

  void header(std::vector<std::string> cells);
  void row(std::vector<std::string> cells);

  /// Render with column separators and a rule under the header.
  std::string render() const;

  std::size_t row_count() const { return rows_.size(); }

private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style helper returning std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// `"a", "b", "c"`: the accepted names of a knob, for error messages.
template <typename Names>
std::string quoted_list(const Names& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ", ";
    out += "\"" + std::string(name) + "\"";
  }
  return out;
}

}  // namespace bitio
