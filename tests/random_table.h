#ifndef CAPE_TESTS_RANDOM_TABLE_H_
#define CAPE_TESTS_RANDOM_TABLE_H_

// Seeded random relations shared by the randomized test suites.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "relational/table.h"

namespace cape {

/// Small random relation: two string columns with skewed dictionaries
/// (including awkward strings — spaces, tabs, '%'), a nullable int64, and a
/// nullable double. All content is a pure function of the seed.
inline TablePtr MakeRandomTable(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto table = MakeEmptyTable({Field{"cat", DataType::kString, true},
                               Field{"city", DataType::kString, true},
                               Field{"num", DataType::kInt64, true},
                               Field{"val", DataType::kDouble, true}});

  const std::vector<std::string> cat_pool = {"alpha", "beta x", "g%mma", "d\te", "eps"};
  const std::vector<std::string> city_pool = {"oslo", "rio", "SIG KDD", "ICDE", "np", "q"};
  const int64_t num_rows = 80 + static_cast<int64_t>(rng() % 160);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int64_t r = 0; r < num_rows; ++r) {
    // Cubing the uniform draw skews the dictionary: index 0 dominates,
    // the tail codes are rare — the shape that exposes dense-path bugs.
    const double u = unit(rng);
    const size_t cat_idx = static_cast<size_t>(u * u * u * cat_pool.size());
    const size_t city_idx = static_cast<size_t>(rng() % city_pool.size());
    Row row;
    row.push_back(unit(rng) < 0.1 ? Value::Null() : Value::String(cat_pool[cat_idx]));
    row.push_back(unit(rng) < 0.1 ? Value::Null() : Value::String(city_pool[city_idx]));
    row.push_back(unit(rng) < 0.15 ? Value::Null()
                                   : Value::Int64(static_cast<int64_t>(rng() % 50)));
    row.push_back(unit(rng) < 0.15 ? Value::Null() : Value::Double(unit(rng) * 100.0));
    EXPECT_TRUE(table->AppendRow(row).ok());
  }
  return table;
}

}  // namespace cape

#endif  // CAPE_TESTS_RANDOM_TABLE_H_
