#include "serve/corpus_manager.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "db/packed_corpus_io.h"
#include "obs/access_log.h"
#include "obs/metrics.h"

namespace mivid {

namespace {

/// Appends every bag of `from` into `to` (ids kept as stored — segment
/// bag ids are already global). InvalidArgument when the two corpora's
/// instance dimensions differ.
Status AppendCorpusBags(const CameraCorpus& from, CameraCorpus* to) {
  for (const MilBag& bag : from.dataset.bags()) {
    MIVID_RETURN_IF_ERROR(to->dataset.AddBag(bag));
  }
  to->bag_refs.insert(from.bag_refs.begin(), from.bag_refs.end());
  to->truth.insert(from.truth.begin(), from.truth.end());
  return Status::OK();
}

/// The instance dimension of `dataset`'s bags; unset while it has no
/// instance.
std::optional<size_t> InstanceDim(const MilDataset& dataset) {
  for (const MilBag& bag : dataset.bags()) {
    if (!bag.instances.empty()) return bag.instances[0].features.size();
  }
  return std::nullopt;
}

double SecondsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

}  // namespace

size_t CorpusEpoch::bag_count() const {
  size_t n = 0;
  for (const auto& part : parts) n += part->dataset.size();
  return n;
}

std::vector<const MilDataset*> CorpusEpoch::datasets() const {
  std::vector<const MilDataset*> out;
  out.reserve(parts.size());
  for (const auto& part : parts) out.push_back(&part->dataset);
  return out;
}

MilDataset CorpusEpoch::Dataset() const {
  if (parts.size() == 1) return parts[0]->dataset;
  MilDataset out;
  for (const auto& part : parts) {
    for (const MilBag& bag : part->dataset.bags()) {
      const Status added = out.AddBag(bag);
      // Publish refuses a part of another instance dimension.
      MIVID_CHECK(added.ok()) << added.ToString();
    }
  }
  return out;
}

namespace {

/// Camera ids are file-name material only after sanitizing separators.
std::string SanitizedName(const std::string& camera_id) {
  std::string name = camera_id;
  for (char& c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                      c == '_';
    if (!safe) c = '_';
  }
  return name;
}

}  // namespace

std::string CorpusManager::FilePrefix(const std::string& camera_id) const {
  return snapshot_dir_ + "/" + SanitizedName(camera_id);
}

std::string CorpusManager::ManifestPath(const std::string& camera_id) const {
  return snapshot_dir_.empty() ? "" : FilePrefix(camera_id) + ".manifest.json";
}

Result<std::shared_ptr<const CorpusEpoch>> CorpusManager::Snapshot(
    const std::string& camera_id) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    CameraState& state = states_[camera_id];
    if (state.published != nullptr) {
      ++hits_;
      MIVID_METRIC_COUNT("serve/corpus_cache_hits", 1);
      MIVID_METRIC_GAUGE_SET("serve/epoch_age_seconds",
                             SecondsSince(state.published->published_at));
      return state.published;
    }
    if (!state.loading) break;  // this thread loads
    // Another thread is loading this camera; wait for it to finish (or
    // fail — loading clears and the loop retries as loader).
    changed_.wait(lock);
  }

  states_[camera_id].loading = true;
  ++misses_;
  MIVID_METRIC_COUNT("serve/corpus_cache_misses", 1);
  lock.unlock();

  Result<LoadedEpoch> loaded = LoadPublished(camera_id);

  lock.lock();
  CameraState& state = states_[camera_id];
  state.loading = false;
  if (!loaded.ok()) {
    changed_.notify_all();
    return loaded.status();
  }
  state.published = loaded.value().epoch;
  state.included = std::move(loaded.value().included);
  state.segments = std::move(loaded.value().segments);
  // Clips staged before the cold load may already be covered by it
  // (the db scan sees everything IngestClip persisted).
  auto& tail = state.tail;
  tail.erase(std::remove_if(tail.begin(), tail.end(),
                            [&](const ClipExtraction& clip) {
                              return state.included.count(clip.clip_id) != 0;
                            }),
             tail.end());
  size_t cached = 0;
  for (const auto& [cam, st] : states_) cached += st.published ? 1 : 0;
  MIVID_METRIC_GAUGE_SET("serve/corpus_cached", cached);
  changed_.notify_all();
  return state.published;
}

Result<CorpusManager::LoadedEpoch> CorpusManager::LoadPublished(
    const std::string& camera_id) {
  // The whole cold path counts as corpus-load time in the request audit;
  // snapshot_hit distinguishes a segment restore from a full extraction.
  AuditPhaseTimer corpus_phase(&RequestAudit::corpus_ms);

  const std::vector<int> clip_ids = db_->ClipsForCamera(camera_id);
  if (clip_ids.empty()) {
    return Status::NotFound("no clips for camera '" + camera_id + "'");
  }

  LoadedEpoch out;
  uint64_t epoch_id = 1;
  std::shared_ptr<const CameraCorpus> corpus;

  // Stage 1: restore published segments via the epoch manifest.
  // snapshot.load.fail pretends the restore went bad (torn file,
  // version skew) so the full-extraction fallback stays exercised.
  const std::string manifest_path = ManifestPath(camera_id);
  if (!manifest_path.empty() && !MIVID_FAULT("snapshot.load.fail")) {
    Result<EpochManifest> manifest = ReadEpochManifest(manifest_path);
    if (manifest.ok() && manifest.value().camera_id == camera_id) {
      // The manifest must cover a prefix of the camera's clips (in
      // order) — anything else (deleted clips, reordering) falls back
      // to full extraction.
      const std::vector<int> covered = manifest.value().AllClips();
      const bool prefix =
          covered.size() <= clip_ids.size() &&
          std::equal(covered.begin(), covered.end(), clip_ids.begin());
      if (prefix) {
        std::vector<std::shared_ptr<const CameraCorpus>> parts;
        bool good = true;
        for (const EpochSegment& seg : manifest.value().segments) {
          Result<std::shared_ptr<const CameraCorpus>> part =
              ReadPackedCorpusFile(snapshot_dir_ + "/" + seg.file, query_);
          if (!part.ok() || part.value()->camera_id != camera_id) {
            good = false;
            break;
          }
          parts.push_back(std::move(part).value());
        }
        if (good && parts.size() > 1) {
          // Segments that disagree on the instance dimension cannot be
          // one corpus; extract the clips instead.
          auto merged = std::make_shared<CameraCorpus>();
          merged->camera_id = camera_id;
          for (const auto& part : parts) {
            good = good && AppendCorpusBags(*part, merged.get()).ok();
          }
          if (good) corpus = merged;
        } else if (good && !parts.empty()) {
          corpus = parts[0];  // common case: zero-copy mmap adoption
        }
        if (corpus != nullptr) {
          epoch_id = manifest.value().epoch;
          out.segments = manifest.value().segments;
          out.included.insert(covered.begin(), covered.end());
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++snapshot_hits_;
          }
          MIVID_METRIC_COUNT("serve/corpus_snapshot_hits", 1);
          if (RequestAudit* audit = CurrentRequestAudit()) {
            audit->snapshot_hit = true;
          }
        }
      }
    }
  }

  // Stage 2: extract whatever the segments do not cover.
  std::vector<int> missing;
  for (int clip : clip_ids) {
    if (out.included.count(clip) == 0) missing.push_back(clip);
  }
  if (!missing.empty()) {
    MIVID_SCOPED_TIMER("serve/corpus_load_seconds");
    QueryEngine engine(db_);
    auto built = std::make_shared<CameraCorpus>();
    built->camera_id = camera_id;
    int next_bag_id = 0;
    if (corpus != nullptr) {
      MIVID_RETURN_IF_ERROR(AppendCorpusBags(*corpus, built.get()));
      next_bag_id = NextBagId(*built);
      ++epoch_id;  // restored epoch + fresh clips = a new generation
    }
    CameraCorpus delta;
    delta.camera_id = camera_id;
    int delta_next = next_bag_id;
    MIVID_RETURN_IF_ERROR(
        engine.AppendClips(missing, query_, &delta, &delta_next));
    MIVID_RETURN_IF_ERROR(AppendCorpusBags(delta, built.get()));
    corpus = built;
    out.included.insert(missing.begin(), missing.end());

    if (!snapshot_dir_.empty()) {
      // Best effort: a failed segment write only costs the next start.
      Result<EpochSegment> seg =
          WriteSegment(delta, missing, camera_id, out.segments.size(),
                       epoch_id, out.segments);
      if (seg.ok()) out.segments.push_back(std::move(seg).value());
    }
  }

  auto epoch = std::make_shared<CorpusEpoch>();
  epoch->camera_id = camera_id;
  epoch->id = epoch_id;
  epoch->parts.push_back(std::move(corpus));
  epoch->published_at = std::chrono::steady_clock::now();
  out.epoch = std::move(epoch);
  return out;
}

Result<EpochSegment> CorpusManager::WriteSegment(
    const CameraCorpus& delta, const std::vector<int>& clip_ids,
    const std::string& camera_id, size_t segment_index, uint64_t epoch,
    std::vector<EpochSegment> manifest_segs) {
  const std::string file = StrFormat(
      "%s.seg%zu.mivpack", SanitizedName(camera_id).c_str(), segment_index);
  Status wrote =
      WritePackedCorpusFile(delta, snapshot_dir_ + "/" + file, query_);
  if (!wrote.ok()) {
    MIVID_LOG(Warn) << "corpus segment write failed: " << wrote.ToString();
    return wrote;
  }
  EpochSegment seg;
  seg.file = file;
  seg.clip_ids = clip_ids;
  seg.bag_count = static_cast<int>(delta.dataset.bags().size());

  EpochManifest manifest;
  manifest.camera_id = camera_id;
  manifest.epoch = epoch;
  manifest.segments = std::move(manifest_segs);
  manifest.segments.push_back(seg);
  Status manifest_status =
      WriteEpochManifest(manifest, ManifestPath(camera_id));
  if (!manifest_status.ok()) {
    MIVID_LOG(Warn) << "epoch manifest write failed: "
                    << manifest_status.ToString();
    return manifest_status;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++snapshot_writes_;
  }
  MIVID_METRIC_COUNT("serve/corpus_snapshot_writes", 1);
  return seg;
}

Status CorpusManager::Append(const std::string& camera_id,
                             ClipExtraction clip) {
  if (clip.clip_id < 0) {
    return Status::InvalidArgument("Append requires a persisted clip id");
  }
  std::lock_guard<std::mutex> lock(mu_);
  CameraState& state = states_[camera_id];
  if (state.included.count(clip.clip_id) != 0) {
    return Status::AlreadyExists("clip " + std::to_string(clip.clip_id) +
                                 " already published");
  }
  for (const ClipExtraction& staged : state.tail) {
    if (staged.clip_id == clip.clip_id) {
      return Status::AlreadyExists("clip " + std::to_string(clip.clip_id) +
                                   " already staged");
    }
  }
  state.tail.push_back(std::move(clip));
  return Status::OK();
}

Result<std::shared_ptr<const CorpusEpoch>> CorpusManager::Publish(
    const std::string& camera_id) {
  // Ensure the base epoch exists (cold load on first publish).
  MIVID_ASSIGN_OR_RETURN(std::shared_ptr<const CorpusEpoch> base,
                         Snapshot(camera_id));

  MIVID_SCOPED_TIMER("serve/epoch_publish_seconds");
  std::unique_lock<std::mutex> lock(mu_);
  CameraState* state = &states_[camera_id];
  while (state->publishing) {
    changed_.wait(lock);
    state = &states_[camera_id];
  }
  base = state->published;  // a racing publisher may have moved it
  // A clip cut before the camera's first Snapshot is extracted by the
  // cold load itself (it was already in the db); drop such staged
  // duplicates instead of publishing their bags twice.
  state->tail.erase(
      std::remove_if(state->tail.begin(), state->tail.end(),
                     [&](const ClipExtraction& clip) {
                       return state->included.count(clip.clip_id) != 0;
                     }),
      state->tail.end());
  if (state->tail.empty()) return base;
  state->publishing = true;
  // Take the staged clips; appends racing with this publish go into
  // the (now empty) tail and ride the next one.
  std::vector<ClipExtraction> staged = std::move(state->tail);
  state->tail.clear();
  std::vector<EpochSegment> segments = state->segments;
  lock.unlock();

  // Materialize the delta bags, ids continuing after the base epoch's
  // last bag.
  auto delta = std::make_shared<CameraCorpus>();
  delta->camera_id = camera_id;
  int next_bag_id = 0;
  std::optional<size_t> base_dim;
  for (const auto& part : base->parts) {
    next_bag_id = std::max(next_bag_id, NextBagId(*part));
    if (!base_dim) base_dim = InstanceDim(part->dataset);
  }
  std::vector<int> delta_clips;
  Status built = Status::OK();
  for (const ClipExtraction& clip : staged) {
    delta_clips.push_back(clip.clip_id);
    if (built.ok()) {
      built = AppendClipBags(clip, query_, delta.get(), &next_bag_id);
    }
  }
  const std::optional<size_t> delta_dim = InstanceDim(delta->dataset);
  if (built.ok() && base_dim && delta_dim && *base_dim != *delta_dim) {
    built = Status::InvalidArgument(StrFormat(
        "published clips have %zu features per instance; the corpus has %zu",
        *delta_dim, *base_dim));
  }
  if (!built.ok()) {
    // Clips whose instances do not match the corpus can never publish:
    // drop them and let the next publisher in.
    lock.lock();
    states_[camera_id].publishing = false;
    lock.unlock();
    changed_.notify_all();
    return built;
  }

  auto epoch = std::make_shared<CorpusEpoch>();
  epoch->camera_id = camera_id;
  epoch->id = base->id + 1;
  epoch->parts = base->parts;
  if (delta->dataset.size() > 0) epoch->parts.push_back(delta);
  epoch->published_at = std::chrono::steady_clock::now();

  if (!snapshot_dir_.empty()) {
    Result<EpochSegment> seg = WriteSegment(
        *delta, delta_clips, camera_id, segments.size(), epoch->id, segments);
    if (seg.ok()) segments.push_back(std::move(seg).value());
  }

  lock.lock();
  CameraState& st = states_[camera_id];
  st.published = epoch;
  st.segments = std::move(segments);
  for (int clip : delta_clips) st.included.insert(clip);
  st.publishing = false;
  ++publishes_;
  lock.unlock();
  changed_.notify_all();
  MIVID_METRIC_COUNT("serve/epoch_publishes", 1);
  MIVID_METRIC_GAUGE_SET("serve/epoch_age_seconds", 0.0);
  return std::shared_ptr<const CorpusEpoch>(epoch);
}

CorpusManager::Stats CorpusManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.snapshot_hits = snapshot_hits_;
  s.snapshot_writes = snapshot_writes_;
  s.publishes = publishes_;
  for (const auto& [camera, state] : states_) {
    if (state.published != nullptr) ++s.cached;
    s.tail_clips += state.tail.size();
  }
  return s;
}

std::vector<std::string> CorpusManager::cached_cameras() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(states_.size());
  for (const auto& [camera, state] : states_) {
    if (state.published != nullptr) out.push_back(camera);
  }
  return out;
}

}  // namespace mivid
