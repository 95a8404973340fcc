#include "retrieval/session.h"

#include <algorithm>

#include "common/string_util.h"

namespace mivid {

EngineConfig SessionOptions::engine_config() const {
  EngineConfig config;
  config.mil = mil;
  config.weighted = weighted;
  config.rocchio = rocchio;
  config.misvm = misvm;
  config.cknn = cknn;
  // One corpus, one feature dimension: mil.base_dim is authoritative
  // (QueryEngine and the harness set it from the extracted features).
  config.weighted.base_dim = mil.base_dim;
  return config;
}

RetrievalSession::RetrievalSession(MilDataset dataset, SessionOptions options)
    : RetrievalSession(std::move(dataset), std::move(options),
                       EngineFactory()) {}

RetrievalSession::RetrievalSession(MilDataset dataset, SessionOptions options,
                                   const EngineFactory& factory)
    : dataset_(std::make_unique<MilDataset>(std::move(dataset))),
      options_(std::move(options)),
      factory_(factory) {
  if (options_.query_model.weights.empty()) {
    options_.query_model = EventModel::Accident(options_.mil.base_dim);
  }
  BuildEngine();
}

void RetrievalSession::BuildEngine() {
  if (factory_) {
    engine_ = factory_(dataset_.get());
  } else {
    Result<std::unique_ptr<RetrievalEngine>> engine = MakeRetrievalEngine(
        options_.engine, dataset_.get(), options_.engine_config());
    if (!engine.ok()) {
      // Constructors cannot report; keep the session usable on the
      // paper's default method. Create() rejects unknown names up front.
      engine = MakeRetrievalEngine("milrf", dataset_.get(),
                                   options_.engine_config());
    }
    engine_ = std::move(engine).value();
  }
}

Result<RetrievalSession> RetrievalSession::Create(MilDataset dataset,
                                                  SessionOptions options) {
  if (!EngineRegistered(options.engine)) {
    return Status::InvalidArgument(
        "unknown retrieval engine '" + options.engine + "'");
  }
  return RetrievalSession(std::move(dataset), std::move(options));
}

std::vector<ScoredBag> RetrievalSession::CurrentRanking() const {
  if (engine_->trained()) return engine_->Rank();
  return HeuristicRanking(*dataset_, options_.query_model,
                          options_.mil.base_dim);
}

std::vector<ScoredBag> RetrievalSession::CurrentTopK(size_t k) const {
  std::vector<ScoredBag> ranking = CurrentRanking();
  if (k < ranking.size()) ranking.resize(k);
  return ranking;
}

std::vector<int> RetrievalSession::TopBags() const {
  return TopIds(CurrentRanking(), options_.top_n);
}

std::vector<std::pair<int, BagLabel>> RetrievalSession::LabeledBags() const {
  std::vector<std::pair<int, BagLabel>> labels;
  for (const auto& bag : dataset_->bags()) {
    if (bag.label != BagLabel::kUnlabeled) {
      labels.emplace_back(bag.id, bag.label);
    }
  }
  return labels;
}

Status RetrievalSession::Restore(
    const std::vector<std::pair<int, BagLabel>>& labels, int round) {
  MIVID_RETURN_IF_ERROR(engine_->SetLabels(labels));
  round_ = round;
  return engine_->Retrain();
}

Status RetrievalSession::Extend(const std::vector<const MilDataset*>& grown) {
  const size_t n = dataset_->size();
  size_t total = 0;
  int id_at_last = -1;  // grown's bag id at index n - 1
  for (const MilDataset* part : grown) {
    if (n > total && n - total <= part->size()) {
      id_at_last = part->bag(n - total - 1).id;
    }
    total += part->size();
  }
  if (total < n || (n > 0 && id_at_last != dataset_->bag(n - 1).id)) {
    return Status::Internal(StrFormat(
        "corpus of %zu bags does not extend the session's %zu bags", total,
        n));
  }
  const std::vector<std::pair<int, BagLabel>> labels = LabeledBags();
  Status appended = Status::OK();
  size_t begin = 0;  // grown index of the part's first bag
  for (const MilDataset* part : grown) {
    for (size_t i = std::max(begin, n); i < begin + part->size() &&
                                        appended.ok();
         ++i) {
      appended = dataset_->AddBag(part->bag(i - begin));
    }
    begin += part->size();
  }
  // Appending may move the bags an engine points into: always rebuild.
  BuildEngine();
  Status replayed = Status::OK();
  if (labels.empty()) {
    round_ = 0;  // as a fresh session: the round is kept with its labels
  } else {
    replayed = Restore(labels, round_);
  }
  return appended.ok() ? replayed : appended;
}

Status RetrievalSession::SubmitFeedback(
    const std::vector<std::pair<int, BagLabel>>& labels) {
  MIVID_RETURN_IF_ERROR(engine_->SetLabels(labels));
  ++round_;
  return engine_->Retrain();
}

}  // namespace mivid
