#include "serve/model_registry.hpp"

#include <utility>

#include "nn/checkpoint.hpp"
#include "nn/trainer.hpp"
#include "obs/flight_recorder.hpp"

namespace tdfm::serve {

ServedModel::ServedModel(std::string name, std::uint64_t version,
                         std::vector<MemberInit> members, bool quantize)
    : name_(std::move(name)), version_(version) {
  TDFM_CHECK(!members.empty(), "a served model needs at least one member");
  members_.reserve(members.size());
  // The init RNG is irrelevant to behaviour (every weight is overwritten by
  // the copy below) but a fixed seed keeps construction deterministic anyway.
  Rng rng(0x5e7f3u + version_);
  for (MemberInit& member : members) {
    TDFM_CHECK(member.factory != nullptr && member.fitted != nullptr,
               "member needs a factory and a fitted network");
    const nn::Network& first = *members.front().fitted;
    TDFM_CHECK(member.fitted->num_classes() == first.num_classes(),
               "ensemble members must agree on the class count");
    if (member.fitted->sample_shape() != first.sample_shape()) {
      throw ShapeError("ensemble members must agree on the sample shape: " +
                       first.sample_shape().to_string() + " vs " +
                       member.fitted->sample_shape().to_string());
    }
    std::unique_ptr<nn::Network> served = member.factory(rng);
    served->copy_weights_from(*member.fitted);
    // Quantize after the fp32 copy: the checkpoint stays fp32 on disk and
    // only the in-memory network shrinks.
    if (quantize) served->quantize_for_inference();
    members_.push_back(std::move(served));
  }
}

std::vector<int> ServedModel::predict(const Tensor& batch, std::size_t /*slot*/) {
  if (members_.size() == 1) return nn::predict_batch(*members_.front(), batch);
  return nn::predict_ensemble(members_, batch);
}

// The publication slot.  Semantically this is std::atomic<std::shared_ptr>,
// but hand-rolled over a one-word acquire/release spinlock: libstdc++'s
// _Sp_atomic parks spinning threads on a futex proxy, which defeats TSan's
// happens-before tracking and floods the (tier-1, TSan-gated) serve suite
// with false races.  The critical section is a single shared_ptr copy (one
// refcount bump), publications are rare, and readers take the slot once per
// batch — contention is negligible by construction.
class VersionSlot {
 public:
  [[nodiscard]] std::shared_ptr<ServedModel> load() const {
    lock();
    std::shared_ptr<ServedModel> out = ptr_;
    unlock();
    return out;
  }

  void store(std::shared_ptr<ServedModel> next) {
    lock();
    ptr_.swap(next);
    unlock();
    // `next` (the previous version) releases outside the critical section;
    // in-flight batches holding it keep it alive until they finish.
  }

 private:
  void lock() const {
    while (locked_.exchange(true, std::memory_order_acquire)) {
      while (locked_.load(std::memory_order_relaxed)) {
      }
    }
  }
  void unlock() const { locked_.store(false, std::memory_order_release); }

  mutable std::atomic<bool> locked_{false};
  std::shared_ptr<ServedModel> ptr_;
};

struct ModelRegistry::Handle::Entry {
  VersionSlot current;
  std::atomic<std::uint64_t> next_version{1};
};

std::shared_ptr<ServedModel> ModelRegistry::Handle::snapshot() const {
  if (entry_ == nullptr) return nullptr;
  return entry_->current.load();
}

ModelRegistry::ModelRegistry(std::size_t /*workers*/) {}

ModelRegistry::~ModelRegistry() = default;

ModelRegistry::Handle::Entry& ModelRegistry::entry(const std::string& name) {
  TDFM_CHECK(!name.empty(), "model name must not be empty");
  const std::lock_guard<std::mutex> lk(mu_);
  std::unique_ptr<Handle::Entry>& slot = entries_[name];
  if (!slot) slot = std::make_unique<Handle::Entry>();
  return *slot;
}

std::uint64_t ModelRegistry::publish(const std::string& name,
                                     std::vector<MemberInit> members,
                                     bool quantize) {
  Handle::Entry& e = entry(name);
  const std::uint64_t version = e.next_version.fetch_add(1, std::memory_order_relaxed);
  auto model = std::make_shared<ServedModel>(name, version, std::move(members), quantize);
  // One slot store publishes the fully-constructed version; readers that
  // loaded the previous shared_ptr keep it alive until their batch is done.
  e.current.store(std::move(model));
  if (obs::flight::enabled()) {
    obs::flight::record(obs::flight::EventKind::kHotSwap,
                        name + " v" + std::to_string(version));
  }
  return version;
}

std::uint64_t ModelRegistry::install(const std::string& name,
                                     std::vector<MemberInit> members,
                                     bool quantize) {
  return publish(name, std::move(members), quantize);
}

std::uint64_t ModelRegistry::load(const std::string& name,
                                  const std::string& checkpoint_path,
                                  bool quantize) {
  const nn::CheckpointMeta meta = nn::read_checkpoint_meta(checkpoint_path);
  const models::Arch arch = models::arch_from_name(meta.arch);
  // A v3 header records the deployment form: a checkpoint saved as
  // "quantized" is re-quantized on load even when the caller passes false,
  // so promoted q8 candidates never silently revert to fp32.
  return load(name, checkpoint_path, arch, models::config_from_meta(meta),
              quantize || meta.quantize);
}

std::uint64_t ModelRegistry::load(const std::string& name,
                                  const std::string& checkpoint_path,
                                  models::Arch arch,
                                  const models::ModelConfig& config,
                                  bool quantize) {
  MemberInit member;
  member.factory = models::make_factory(arch, config);
  Rng rng(0x10adu);
  member.fitted = member.factory(rng);
  nn::load_checkpoint(*member.fitted, checkpoint_path);
  std::vector<MemberInit> members;
  members.push_back(std::move(member));
  return publish(name, std::move(members), quantize);
}

std::uint64_t ModelRegistry::load_ensemble(
    const std::string& name, const std::vector<std::string>& checkpoint_paths,
    bool quantize) {
  TDFM_CHECK(!checkpoint_paths.empty(), "ensemble needs at least one checkpoint");
  std::vector<MemberInit> members;
  members.reserve(checkpoint_paths.size());
  Rng rng(0x10adu);
  bool any_quantized = quantize;
  for (const std::string& path : checkpoint_paths) {
    const nn::CheckpointMeta meta = nn::read_checkpoint_meta(path);
    any_quantized = any_quantized || meta.quantize;
    MemberInit member;
    member.factory = models::make_factory(models::arch_from_name(meta.arch),
                                          models::config_from_meta(meta));
    member.fitted = member.factory(rng);
    nn::load_checkpoint(*member.fitted, path);
    members.push_back(std::move(member));
  }
  // Quantization is a property of the served version, so one member saved
  // quantized promotes the whole ensemble to q8 serving form.
  return publish(name, std::move(members), any_quantized);
}

ModelRegistry::Handle ModelRegistry::handle(const std::string& name) {
  return Handle(&entry(name));
}

std::shared_ptr<ServedModel> ModelRegistry::current(const std::string& name) const {
  const std::lock_guard<std::mutex> lk(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  return it->second->current.load();
}

std::vector<std::string> ModelRegistry::names() const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    if (e->current.load() != nullptr) out.push_back(name);
  }
  return out;
}

}  // namespace tdfm::serve
