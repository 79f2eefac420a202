#ifndef CAPEBENCH_SETUP_H_
#define CAPEBENCH_SETUP_H_

// CAPE-side helpers shared by the workloads: the generated inputs, the
// mining configurations, timed calls into the layers (each under its span)
// and the renderings the output checks compare.

#include <string>
#include <vector>

#include "bench.h"
#include "core/engine.h"
#include "datagen/crime.h"

namespace capebench {

/// Crime-shaped data with 7 attributes from `seed`.
cape::CrimeOptions CrimeData(uint64_t seed, int64_t rows);

/// The paper's Section 5.1 thresholds (theta = lambda = 0.5,
/// delta = Delta = 15, count) with pattern size `psi`.
cape::MiningConfig PaperConfig(int psi);

/// The loose thresholds of the explain pattern set (psi = 4,
/// theta = lambda = 0.2, delta = 3, Delta = 10, count).
cape::MiningConfig LooseConfig();

/// GenerateCrime under a datagen span; records datagen.generate_s.
cape::TablePtr Generate(const cape::CrimeOptions& data, RunResult* r);

/// OpenPagedTable under a storage span; records storage.open_s.
cape::TablePtr TimedOpen(const std::string& path, int64_t budget_bytes, RunResult* r);

/// Engine::MinePatterns under a core span; counts the attempt, records the
/// wall time as timing `name` and returns whether it succeeded.
bool TimedMine(cape::Engine* engine, const std::string& name, RunResult* r);

/// Adds the MiningProfile of one mine and the size of its pattern set as
/// samples of the pattern.* and common.mine_parallelism series.
void RecordMiningProfile(const cape::Engine& engine, RunResult* r);

/// Keeps the deterministic counters of a mine (queries, sorts, fits,
/// candidates, patterns, local patterns) as the run's exact counters under
/// `prefix`, and checks them against the run's earlier mine of the same
/// input, if any.
void CheckExactCounters(const cape::MiningProfile& profile,
                        const cape::PatternSet& patterns, const std::string& prefix,
                        RunResult* r);

/// The explain set-up, once per data set: generate D = 30k from
/// a seed derived from --seed, mine the loose pattern set at kThreads.
/// Records one setup_s sample per data set. The per-question cost depends
/// on each data set's largest groups, so explain spreads its questions over
/// several data sets rather than letting one seed's data set its figures.
std::vector<cape::Engine> SetUpExplainEngines(const Args& args, int data_sets,
                                              RunResult* r);

/// Serves the engine's relation through CapeServer on loopback and drives
/// it open loop (serve.cc) for the server.*, sql.*, client.* and
/// explain.session_* per-layer metrics of explain's trace run.
void MeasureServing(const cape::Engine& engine, const Args& args, RunResult* r);

/// The `count` largest groups of GROUP BY `group_by` as questions in
/// direction `dir` (paper Section 5.2's worst case).
std::vector<cape::UserQuestion> LargestGroupQuestions(
    const cape::Engine& engine, const std::vector<std::string>& group_by, int count,
    cape::Direction dir, RunResult* r);

/// SerializePatternSet of the engine's patterns, under a pattern span.
std::string Serialize(const cape::Engine& engine);

/// The rendered top-k plus every score at %.17g, so a comparison catches
/// any drifting bit.
std::string RenderAnswer(const cape::Engine& engine, const cape::ExplainResult& result);

/// In a trace run, traces even repeats and leaves odd ones untraced (their
/// timings are the base of the tracing overhead). No-op otherwise.
void TraceThisRep(const Args& args, int rep);

}  // namespace capebench

#endif  // CAPEBENCH_SETUP_H_
