#include "db/packed_corpus_io.h"

#include <cstring>

#include "common/file_io.h"
#include "db/codec.h"

#if defined(__unix__) || defined(__APPLE__)
#define MIVID_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace mivid {

namespace {

constexpr char kMagic[8] = {'M', 'I', 'V', 'P', 'C', 'K', '0', '1'};
constexpr uint32_t kByteOrderProbe = 0x01020304;
constexpr uint32_t kPageSize = 4096;
constexpr size_t kHeaderBytes = 92;  // through the header CRC

/// Signed ints ride the fixed32 slots via value-preserving casts.
void PutI32(std::string* dst, int value) {
  PutFixed32(dst, static_cast<uint32_t>(value));
}

Status GetI32(Decoder* dec, int* value) {
  uint32_t raw = 0;
  MIVID_RETURN_IF_ERROR(dec->GetFixed32(&raw));
  *value = static_cast<int>(raw);
  return Status::OK();
}

/// FNV-1a, the usual 64-bit parameters.
uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

uint64_t QueryOptionsFingerprint(const QueryOptions& options) {
  // Serialize exactly the fields BuildCorpus consumes, then hash; the
  // session options ride along with the request and do not change corpus
  // content.
  std::string repr;
  PutFixed32(&repr, static_cast<uint32_t>(options.features.sampling_rate));
  PutDouble(&repr, options.features.min_mdist);
  PutDouble(&repr, options.features.min_motion);
  repr.push_back(options.features.include_velocity ? 1 : 0);
  PutFixed32(&repr, static_cast<uint32_t>(options.windows.window_size));
  PutFixed32(&repr, static_cast<uint32_t>(options.windows.stride));
  repr.push_back(options.windows.keep_empty ? 1 : 0);
  PutFixed32(&repr,
             static_cast<uint32_t>(options.relevant_types.size()));
  for (IncidentType type : options.relevant_types) {
    repr.push_back(static_cast<char>(type));
  }
  return Fnv1a(repr);
}

Status WritePackedCorpusFile(const CameraCorpus& corpus,
                             const std::string& path,
                             const QueryOptions& options) {
  const std::shared_ptr<const PackedCorpus> packed =
      corpus.dataset.EnsurePacked();
  const PackedFeatureMatrix& feat = packed->features;

  std::string meta;
  PutLengthPrefixed(&meta, corpus.camera_id);
  PutFixed64(&meta, corpus.dataset.size());
  for (const MilBag& bag : corpus.dataset.bags()) {
    PutI32(&meta, bag.id);
    PutFixed64(&meta, bag.instances.size());
    for (const MilInstance& inst : bag.instances) {
      PutI32(&meta, inst.instance_id);
      PutVec(&meta, inst.raw_features);
    }
  }
  PutFixed64(&meta, corpus.bag_refs.size());
  for (const auto& [bag_id, ref] : corpus.bag_refs) {
    PutI32(&meta, bag_id);
    PutI32(&meta, ref.clip_id);
    PutI32(&meta, ref.local_vs_id);
    PutI32(&meta, ref.begin_frame);
    PutI32(&meta, ref.end_frame);
  }
  PutFixed64(&meta, corpus.truth.size());
  for (const auto& [bag_id, label] : corpus.truth) {
    PutI32(&meta, bag_id);
    meta.push_back(static_cast<char>(label));
  }

  const uint64_t features_offset = kPageSize;
  const uint64_t features_bytes = feat.dim() * feat.stride() * sizeof(double);
  const std::string_view features_view(
      reinterpret_cast<const char*>(feat.data()), features_bytes);

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  {
    char probe[4];
    std::memcpy(probe, &kByteOrderProbe, sizeof(probe));
    header.append(probe, sizeof(probe));
  }
  PutFixed32(&header, kPageSize);
  PutFixed64(&header, QueryOptionsFingerprint(options));
  PutFixed64(&header, feat.n());
  PutFixed64(&header, feat.dim());
  PutFixed64(&header, feat.stride());
  PutFixed64(&header, features_offset);
  PutFixed64(&header, features_bytes);
  PutFixed64(&header, features_offset + features_bytes);
  PutFixed64(&header, meta.size());
  PutFixed32(&header, Crc32c(features_view));
  PutFixed32(&header, Crc32c(meta));
  PutFixed32(&header, Crc32c(header));  // over [0, 88)

  std::string blob;
  blob.reserve(kPageSize + features_bytes + meta.size());
  blob = header;
  blob.resize(kPageSize, '\0');
  blob.append(features_view);
  blob += meta;
  return WriteFileAtomic(path, blob);
}

namespace {

/// Pins the snapshot bytes: either an mmap'd range or a heap copy.
struct SnapshotMapping {
  const char* data = nullptr;
  size_t size = 0;
  std::shared_ptr<const void> keepalive;
};

Result<SnapshotMapping> MapSnapshot(const std::string& path) {
#if defined(MIVID_HAVE_MMAP)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open corpus snapshot '" + path + "'");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("cannot stat corpus snapshot '" + path + "'");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::Corruption("empty corpus snapshot '" + path + "'");
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping outlives the descriptor
  if (base == MAP_FAILED) {
    return Status::IOError("cannot mmap corpus snapshot '" + path + "'");
  }
  SnapshotMapping mapping;
  mapping.data = static_cast<const char*>(base);
  mapping.size = size;
  mapping.keepalive = std::shared_ptr<const void>(
      base, [size](const void* p) { ::munmap(const_cast<void*>(p), size); });
  return mapping;
#else
  // No mmap on this platform: a heap copy keeps the same zero-parse
  // adoption path (operator new is at least 8-byte aligned).
  MIVID_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  auto owned = std::make_shared<const std::string>(std::move(bytes));
  SnapshotMapping mapping;
  mapping.data = owned->data();
  mapping.size = owned->size();
  mapping.keepalive = std::shared_ptr<const void>(owned, owned->data());
  return mapping;
#endif
}

}  // namespace

Result<std::shared_ptr<const CameraCorpus>> ReadPackedCorpusFile(
    const std::string& path, const QueryOptions& options) {
  MIVID_ASSIGN_OR_RETURN(SnapshotMapping mapping, MapSnapshot(path));
  const char* base = mapping.data;
  if (mapping.size < kHeaderBytes) {
    return Status::Corruption("corpus snapshot too short: " + path);
  }
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad corpus snapshot magic: " + path);
  }
  uint32_t probe = 0;
  std::memcpy(&probe, base + 8, sizeof(probe));
  if (probe != kByteOrderProbe) {
    return Status::NotSupported(
        "corpus snapshot written on a foreign-endian host: " + path);
  }

  Decoder header(std::string_view(base + 12, kHeaderBytes - 12));
  uint32_t page = 0, features_crc = 0, meta_crc = 0, header_crc = 0;
  uint64_t fingerprint = 0, n = 0, dim = 0, stride = 0;
  uint64_t features_offset = 0, features_bytes = 0;
  uint64_t meta_offset = 0, meta_bytes = 0;
  MIVID_RETURN_IF_ERROR(header.GetFixed32(&page));
  MIVID_RETURN_IF_ERROR(header.GetFixed64(&fingerprint));
  MIVID_RETURN_IF_ERROR(header.GetFixed64(&n));
  MIVID_RETURN_IF_ERROR(header.GetFixed64(&dim));
  MIVID_RETURN_IF_ERROR(header.GetFixed64(&stride));
  MIVID_RETURN_IF_ERROR(header.GetFixed64(&features_offset));
  MIVID_RETURN_IF_ERROR(header.GetFixed64(&features_bytes));
  MIVID_RETURN_IF_ERROR(header.GetFixed64(&meta_offset));
  MIVID_RETURN_IF_ERROR(header.GetFixed64(&meta_bytes));
  MIVID_RETURN_IF_ERROR(header.GetFixed32(&features_crc));
  MIVID_RETURN_IF_ERROR(header.GetFixed32(&meta_crc));
  MIVID_RETURN_IF_ERROR(header.GetFixed32(&header_crc));
  if (Crc32c(std::string_view(base, kHeaderBytes - 4)) != header_crc) {
    return Status::Corruption("corpus snapshot header CRC mismatch: " + path);
  }
  if (fingerprint != QueryOptionsFingerprint(options)) {
    return Status::FailedPrecondition(
        "corpus snapshot was extracted under different query options: " +
        path);
  }
  if (stride != PackedFeatureMatrix::StrideFor(n) ||
      features_bytes != dim * stride * sizeof(double) ||
      features_offset % alignof(double) != 0 ||
      features_offset + features_bytes < features_offset ||
      features_offset + features_bytes > mapping.size ||
      meta_offset + meta_bytes < meta_offset ||
      meta_offset + meta_bytes > mapping.size) {
    return Status::Corruption("corpus snapshot layout out of bounds: " + path);
  }
  const std::string_view features_view(base + features_offset,
                                       features_bytes);
  const std::string_view meta_view(base + meta_offset, meta_bytes);
  if (Crc32c(features_view) != features_crc) {
    return Status::DataLoss("corpus snapshot feature CRC mismatch: " + path);
  }
  if (Crc32c(meta_view) != meta_crc) {
    return Status::DataLoss("corpus snapshot metadata CRC mismatch: " + path);
  }

  const double* features =
      reinterpret_cast<const double*>(base + features_offset);
  auto corpus = std::make_shared<CameraCorpus>();
  Decoder meta(meta_view);
  MIVID_RETURN_IF_ERROR(meta.GetLengthPrefixed(&corpus->camera_id));
  uint64_t bag_count = 0;
  MIVID_RETURN_IF_ERROR(meta.GetFixed64(&bag_count));
  size_t next_instance = 0;
  for (uint64_t b = 0; b < bag_count; ++b) {
    MilBag bag;
    uint64_t instance_count = 0;
    MIVID_RETURN_IF_ERROR(GetI32(&meta, &bag.id));
    MIVID_RETURN_IF_ERROR(meta.GetFixed64(&instance_count));
    bag.instances.reserve(instance_count);
    for (uint64_t i = 0; i < instance_count; ++i) {
      MilInstance inst;
      inst.bag_id = bag.id;
      MIVID_RETURN_IF_ERROR(GetI32(&meta, &inst.instance_id));
      MIVID_RETURN_IF_ERROR(meta.GetVec(&inst.raw_features));
      if (next_instance >= n) {
        return Status::Corruption(
            "corpus snapshot bag table exceeds the feature block: " + path);
      }
      // Materialize the AoS vector for the non-packed code paths; the
      // gather reads the exact stored doubles, so it round-trips bit-
      // for-bit with what the packed view serves.
      inst.features.resize(dim);
      for (size_t k = 0; k < dim; ++k) {
        inst.features[k] = features[k * stride + next_instance];
      }
      ++next_instance;
      bag.instances.push_back(std::move(inst));
    }
    MIVID_RETURN_IF_ERROR(corpus->dataset.AddBag(std::move(bag)));
  }
  if (next_instance != n) {
    return Status::Corruption(
        "corpus snapshot instance count disagrees with its bag table: " +
        path);
  }
  uint64_t ref_count = 0;
  MIVID_RETURN_IF_ERROR(meta.GetFixed64(&ref_count));
  for (uint64_t r = 0; r < ref_count; ++r) {
    int bag_id = 0;
    CorpusBagRef ref;
    MIVID_RETURN_IF_ERROR(GetI32(&meta, &bag_id));
    MIVID_RETURN_IF_ERROR(GetI32(&meta, &ref.clip_id));
    MIVID_RETURN_IF_ERROR(GetI32(&meta, &ref.local_vs_id));
    MIVID_RETURN_IF_ERROR(GetI32(&meta, &ref.begin_frame));
    MIVID_RETURN_IF_ERROR(GetI32(&meta, &ref.end_frame));
    corpus->bag_refs[bag_id] = ref;
  }
  uint64_t truth_count = 0;
  MIVID_RETURN_IF_ERROR(meta.GetFixed64(&truth_count));
  for (uint64_t t = 0; t < truth_count; ++t) {
    int bag_id = 0;
    uint8_t label = 0;
    MIVID_RETURN_IF_ERROR(GetI32(&meta, &bag_id));
    MIVID_RETURN_IF_ERROR(meta.GetByte(&label));
    if (label > static_cast<uint8_t>(BagLabel::kIrrelevant)) {
      return Status::Corruption("corpus snapshot has an unknown bag label: " +
                                path);
    }
    corpus->truth[bag_id] = static_cast<BagLabel>(label);
  }
  MIVID_RETURN_IF_ERROR(meta.ExpectDone());

  // Adopt the mapped block as the dataset's packed corpus: ranking reads
  // the file's pages directly. The keepalive pins the mapping for as long
  // as any dataset copy (sessions copy the dataset) holds the packing.
  auto packed = std::make_shared<PackedCorpus>();
  packed->bag_begin.assign(1, 0);
  packed->bag_begin.reserve(corpus->dataset.size() + 1);
  size_t running = 0;
  for (const MilBag& bag : corpus->dataset.bags()) {
    running += bag.instances.size();
    packed->bag_begin.push_back(running);
  }
  packed->features =
      PackedFeatureMatrix::View(features, n, dim, stride, mapping.keepalive);
  corpus->dataset.AdoptPacked(std::move(packed));
  return std::shared_ptr<const CameraCorpus>(std::move(corpus));
}

}  // namespace mivid
