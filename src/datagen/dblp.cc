#include "datagen/dblp.h"

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"

namespace cape {

namespace {

const char* const kVenuePool[] = {
    "SIGKDD", "ICDE",  "VLDB",  "ICDM",  "SIGMOD", "TKDE",  "CIKM",  "WSDM", "EDBT",
    "ICDT",   "WWW",   "SDM",   "PKDD",  "DASFAA", "PODS",  "SSDBM", "TODS", "VLDBJ",
    "KAIS",   "DMKD",  "JMLR",  "ICML",  "NIPS",   "AAAI",  "IJCAI", "ACL",  "EMNLP",
};
constexpr int kVenuePoolSize = static_cast<int>(sizeof(kVenuePool) / sizeof(kVenuePool[0]));

/// Venue "communities": authors publish mostly within one community, which
/// is what makes venue-affinity patterns (and the ICDE-vs-SIGKDD story of
/// Example 1) possible.
int VenueCommunity(int venue_index) { return venue_index % 3; }

/// std::poisson_distribution calls lgamma, which writes glibc's global
/// `signgam`, so generators running on several threads race on it. Draws
/// serialize on this lock; a draw depends only on the caller's engine and
/// rate, so the generated rows are unchanged.
int DrawPoisson(double rate, std::mt19937_64& rng) {
  static Mutex mu;
  MutexLock lock(mu);
  std::poisson_distribution<int> pubs(rate);
  return pubs(rng);
}

/// Per-(venue, year) publication counts of the planted running-example
/// author. Baselines with explicit overrides engineered so that:
///  - phi0 = (SIGKDD 2007 = 1, low) is counterbalanced by ICDE 2007/2006 and
///    ICDM 2007/2008 spikes plus a mild year-2010 spike (Table 3 shape);
///  - (SIGKDD 2012 = 6, high) is counterbalanced by low TKDE/SIGMOD 2012 and
///    a low 2013 total (Table 4 shape).
std::map<std::pair<std::string, int>, int> PlantedAuthorCounts() {
  const int kYearBegin = 2004;
  const int kYearEnd = 2013;  // inclusive
  const std::vector<std::pair<std::string, int>> baselines = {
      {"SIGKDD", 4}, {"ICDE", 4}, {"VLDB", 4}, {"ICDM", 3}, {"SIGMOD", 2}, {"TKDE", 2}};
  std::map<std::pair<std::string, int>, int> counts;
  for (const auto& [venue, base] : baselines) {
    for (int year = kYearBegin; year <= kYearEnd; ++year) counts[{venue, year}] = base;
  }
  // AX's SIGKDD counts are deliberately dispersed (Pearson p ≈ 0.17 < θ)
  // so the pattern [author,venue]:year does NOT hold locally on
  // (AX, SIGKDD): the questions below are about genuine outliers, and
  // same-venue neighbor years cannot appear as trivial counterbalances —
  // matching the absence of such rows in the paper's Tables 3 and 4.
  const int sigkdd_series[] = {5, 2, 6, 1, 7, 3, 5, 2, 9, 4};  // 2004..2013
  for (int year = kYearBegin; year <= kYearEnd; ++year) {
    counts[{"SIGKDD", year}] = sigkdd_series[year - kYearBegin];
  }
  // phi0 = (SIGKDD 2007 = 1, low) counterbalances.
  counts[{"ICDE", 2007}] = 10;
  counts[{"ICDE", 2006}] = 8;
  counts[{"ICDM", 2007}] = 5;
  counts[{"ICDM", 2008}] = 5;
  counts[{"VLDB", 2008}] = 1;
  counts[{"SIGMOD", 2008}] = 4;
  counts[{"TKDE", 2006}] = 4;
  // Mild 2010 spike (coarser-schema explanation, rank ~last in Table 3).
  counts[{"ICDE", 2010}] = 5;
  counts[{"SIGMOD", 2010}] = 3;
  counts[{"TKDE", 2010}] = 3;
  // Table 4 scenario: SIGKDD 2012 = 9 high, counterbalanced by low venue
  // counts in 2012/2013 and a low 2013 total.
  counts[{"TKDE", 2012}] = 1;
  counts[{"SIGMOD", 2012}] = 1;
  counts[{"SIGMOD", 2013}] = 1;
  counts[{"VLDB", 2013}] = 3;
  counts[{"ICDM", 2013}] = 3;
  return counts;
}

}  // namespace

Result<TablePtr> GenerateDblp(const DblpOptions& options) {
  if (options.num_rows <= 0) return Status::InvalidArgument("num_rows must be positive");
  if (options.num_venues < 1 || options.num_venues > kVenuePoolSize) {
    return Status::InvalidArgument("num_venues must be in [1, " +
                                   std::to_string(kVenuePoolSize) + "]");
  }
  if (options.year_min > options.year_max) {
    return Status::InvalidArgument("year_min must be <= year_max");
  }

  auto table = MakeEmptyTable({Field{"author", DataType::kString, false},
                               Field{"pubid", DataType::kString, false},
                               Field{"year", DataType::kInt64, false},
                               Field{"venue", DataType::kString, false}});
  table->Reserve(options.num_rows);

  std::mt19937_64 rng(options.seed);
  int64_t pub_counter = 0;
  auto append = [&](const std::string& author, int year, const std::string& venue) {
    Row row{Value::String(author), Value::String("P" + std::to_string(pub_counter++)),
            Value::Int64(year), Value::String(venue)};
    return table->AppendRow(row);
  };

  // Planted running-example author first so it survives row-count capping.
  if (options.plant_running_example) {
    for (const auto& [venue_year, count] : PlantedAuthorCounts()) {
      for (int i = 0; i < count; ++i) {
        CAPE_RETURN_IF_ERROR(append(kDblpPlantedAuthor, venue_year.second, venue_year.first));
      }
    }
  }

  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> venue_pick(0, options.num_venues - 1);

  for (int a = 0; table->num_rows() < options.num_rows; ++a) {
    const std::string author = "A" + std::to_string(1000 + a);
    // Zipf-ish productivity: a few prolific authors, a long tail.
    const double popularity = 1.0 / (1.0 + a % options.num_authors * 0.05);
    const double base_rate = 0.8 + 8.0 * popularity * unit(rng);
    const bool linear = unit(rng) < options.linear_author_fraction;
    const double growth = linear ? (0.15 + 0.35 * unit(rng)) : 0.0;

    // Venue affinity: a home community plus a favored venue within it.
    const int community = static_cast<int>(rng() % 3);
    const int favorite = venue_pick(rng);

    // Authors are active over the whole year range so venue-year totals are
    // stationary (the paper's premise that "SIGKDD accepts about the same
    // number of papers every year" — pattern P3 — holds on the data).
    const int career_begin = options.year_min;
    const int career_end = options.year_max;
    for (int year = career_begin; year <= career_end && table->num_rows() < options.num_rows;
         ++year) {
      const double rate = base_rate * (1.0 + growth * (year - career_begin));
      const int n = DrawPoisson(rate, rng);
      for (int i = 0; i < n && table->num_rows() < options.num_rows; ++i) {
        int venue_index;
        const double roll = unit(rng);
        if (roll < 0.45) {
          venue_index = favorite;
        } else if (roll < 0.85) {
          // Within the home community.
          do {
            venue_index = venue_pick(rng);
          } while (options.num_venues > 3 && VenueCommunity(venue_index) != community);
        } else {
          venue_index = venue_pick(rng);
        }
        CAPE_RETURN_IF_ERROR(append(author, year, kVenuePool[venue_index]));
      }
    }
  }

  CAPE_RETURN_IF_ERROR(table->Validate());
  return table;
}

}  // namespace cape
