#include "data/io.hpp"

#include <fstream>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/numtext.hpp"

namespace safenn::data {
namespace {

std::vector<std::string_view> split_csv_line(std::string_view line) {
  // The writer emits plain numeric cells (no quoting needed).
  std::vector<std::string_view> cells;
  for (;;) {
    const std::size_t comma = line.find(',');
    cells.push_back(line.substr(0, comma));
    if (comma == std::string_view::npos) return cells;
    line.remove_prefix(comma + 1);
  }
}

}  // namespace

void save_dataset_csv(std::ostream& os, const Dataset& data,
                      const FeatureSchema* schema) {
  std::string text;
  numtext::Writer w(text);
  for (std::size_t i = 0; i < data.input_dim(); ++i) {
    if (i) w << ',';
    if (schema && schema->size() == data.input_dim()) {
      w << schema->at(i).name;
    } else {
      w << 'x' << i;
    }
  }
  for (std::size_t j = 0; j < data.target_dim(); ++j) w << ",y" << j;
  w << '\n';
  for (std::size_t s = 0; s < data.size(); ++s) {
    std::string_view sep;
    for (const double v : data.input(s)) {
      w << sep << v;
      sep = ",";
    }
    for (const double v : data.target(s)) w << ',' << v;
    w << '\n';
  }
  os << text;
}

Dataset load_dataset_csv(std::istream& is, std::size_t target_dim) {
  std::string line;
  require(static_cast<bool>(std::getline(is, line)),
          "load_dataset_csv: empty stream");
  const std::size_t total_cols = split_csv_line(line).size();
  require(total_cols > target_dim,
          "load_dataset_csv: fewer columns than targets");
  const std::size_t input_dim = total_cols - target_dim;

  Dataset data(input_dim, target_dim);
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string_view> cells = split_csv_line(line);
    require(cells.size() == total_cols,
            "load_dataset_csv: ragged row at line " +
                std::to_string(line_no));
    linalg::Vector x(input_dim), y(target_dim);
    for (std::size_t i = 0; i < total_cols; ++i) {
      // Whole cells only: "1.5abc" is an error, not 1.5.
      double& v = i < input_dim ? x[i] : y[i - input_dim];
      if (!numtext::parse(cells[i], v)) {
        throw Error("load_dataset_csv: non-numeric cell at line " +
                    std::to_string(line_no));
      }
    }
    data.add(std::move(x), std::move(y));
  }
  return data;
}

void save_dataset_csv_file(const std::string& path, const Dataset& data,
                           const FeatureSchema* schema) {
  std::ofstream os(path);
  require(os.is_open(), "save_dataset_csv_file: cannot open '" + path + "'");
  save_dataset_csv(os, data, schema);
  require(os.good(), "save_dataset_csv_file: write failure");
}

Dataset load_dataset_csv_file(const std::string& path,
                              std::size_t target_dim) {
  std::ifstream is(path);
  require(is.is_open(), "load_dataset_csv_file: cannot open '" + path + "'");
  return load_dataset_csv(is, target_dim);
}

}  // namespace safenn::data
