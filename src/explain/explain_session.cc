#include "explain/explain_session.h"

#include "common/macros.h"

namespace cape {

ExplainSession::ExplainSession(std::shared_ptr<const ExplainState> state,
                               DistanceModel distance, ExplainConfig config)
    : state_(std::move(state)), distance_(std::move(distance)), config_(std::move(config)) {}

Result<ExplainResult> ExplainSession::Explain(const UserQuestion& question, bool optimized) {
  CAPE_ASSIGN_OR_RETURN(ExplainResult result,
                        state_->Explain(question, distance_, config_, optimized));
  questions_answered_ += 1;
  return result;
}

Result<std::vector<ExplainResult>> ExplainSession::ExplainBatch(
    const std::vector<UserQuestion>& questions, bool optimized) {
  std::vector<ExplainResult> out;
  out.reserve(questions.size());
  for (const UserQuestion& q : questions) {
    CAPE_ASSIGN_OR_RETURN(ExplainResult result, Explain(q, optimized));
    out.push_back(std::move(result));
  }
  return out;
}

}  // namespace cape
