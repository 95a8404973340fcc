#include "retrieval/session.h"

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
      options_(std::move(options)) {
  if (options_.query_model.weights.empty()) {
    options_.query_model = EventModel::Accident(options_.mil.base_dim);
  }
  if (factory) {
    engine_ = factory(dataset_.get());
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

Status RetrievalSession::SubmitFeedback(
    const std::vector<std::pair<int, BagLabel>>& labels) {
  MIVID_RETURN_IF_ERROR(engine_->SetLabels(labels));
  ++round_;
  return engine_->Retrain();
}

}  // namespace mivid
