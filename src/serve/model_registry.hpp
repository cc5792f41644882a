// Named + versioned model store with wait-light hot swap.
//
// A *logical model* is what clients address by name; a *ServedModel* is one
// immutable-by-convention version of it: one network per member, built once
// per version.  An eval-mode forward writes no layer member
// (nn::Layer::forward), so every engine worker predicts through the same
// networks, N workers serving N batches in parallel with no synchronisation
// on the networks themselves.
//
// Hot swap: each name maps to a stable Entry whose current version lives in
// a one-word-spinlock-guarded shared_ptr slot (atomic<shared_ptr> in spirit;
// hand-rolled so TSan models it exactly — see the VersionSlot comment in the
// .cpp).  Publishing a new version is one slot store; a worker takes one
// slot load (a refcount bump) per *batch*, so a batch is always served
// end-to-end by exactly one fully-constructed version (never a half-swapped
// mix), and in-flight batches keep the old version alive via shared
// ownership until they finish.
//
// Versions loaded from v2 checkpoints are self-describing (the header names
// the zoo architecture and geometry); v1 count-only checkpoints need the
// architecture supplied explicitly.  An ensemble is several member
// checkpoints behind one name — served through nn::predict_ensemble, the
// vote of mitigation::EnsembleClassifier, so the paper's
// highest-inference-cost technique is exercised end to end on the request
// path.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "models/model_zoo.hpp"
#include "nn/network.hpp"

namespace tdfm::serve {

/// One member of a logical model: the fitted network plus a factory that
/// builds a structurally identical instance to serve.
struct MemberInit {
  nn::NetworkFactory factory;
  std::unique_ptr<nn::Network> fitted;
};

/// One immutable version of a logical model: one network per member.
class ServedModel {
 public:
  /// Builds one instance of every member with its factory and copies the
  /// fitted weights into it, so the version holds none of the fitted
  /// network's training caches; the fitted networks are only read.  With
  /// `quantize` each instance is converted to q8_0 inference form after the
  /// copy (~4x less weight storage).  Members must agree on the class count
  /// and the sample shape.
  ServedModel(std::string name, std::uint64_t version,
              std::vector<MemberInit> members, bool quantize = false);

  /// Classifies one micro-batch (leading dim = batch).  Any number of
  /// threads may call it at once.  Single member: argmax.  Multiple
  /// members: nn::predict_ensemble's vote, as mitigation::EnsembleClassifier.
  /// The slot is ignored; it remains because perfbench still passes one.
  [[nodiscard]] std::vector<int> predict(const Tensor& batch, std::size_t /*slot*/ = 0);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] std::size_t num_members() const { return members_.size(); }
  [[nodiscard]] std::size_t num_classes() const { return members_.front()->num_classes(); }
  /// The shape of one request's image, shared by every member.
  [[nodiscard]] const Shape& sample_shape() const { return members_.front()->sample_shape(); }
  [[nodiscard]] bool quantized() const { return members_.front()->quantized(); }

 private:
  std::string name_;
  std::uint64_t version_;
  std::vector<std::unique_ptr<nn::Network>> members_;
};

class ModelRegistry {
 public:
  /// The worker count is ignored (every worker shares a version's networks);
  /// it remains because perfbench still passes one.
  explicit ModelRegistry(std::size_t /*workers*/ = 1);
  ~ModelRegistry();  // out of line: Handle::Entry is complete only in the .cpp

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Stable, copyable accessor bound to one logical model name.  snapshot()
  /// is a single slot load (one refcount bump) — the per-batch hot-path read.
  class Handle {
   public:
    Handle() = default;
    /// Current version (nullptr when none is loaded yet).
    [[nodiscard]] std::shared_ptr<ServedModel> snapshot() const;

   private:
    friend class ModelRegistry;
    struct Entry;
    explicit Handle(Entry* entry) : entry_(entry) {}
    Entry* entry_ = nullptr;
  };

  /// Publishes a new version built from already-fitted members.  Returns
  /// the version number (1-based, monotone per name).  `quantize` converts
  /// the served networks to q8_0 inference form (here and in every load
  /// below).
  std::uint64_t install(const std::string& name, std::vector<MemberInit> members,
                        bool quantize = false);

  /// Loads a self-describing v2 checkpoint: instantiates the architecture
  /// named in the header, restores the weights, publishes.  Throws on v1
  /// files (no metadata) — use the explicit-architecture overload.
  std::uint64_t load(const std::string& name, const std::string& checkpoint_path,
                     bool quantize = false);

  /// Loads a v1 (count-only) checkpoint with the architecture supplied out
  /// of band.  Also accepts v2 files (the header is validated then unused).
  std::uint64_t load(const std::string& name, const std::string& checkpoint_path,
                     models::Arch arch, const models::ModelConfig& config,
                     bool quantize = false);

  /// Loads several v2 checkpoints as the members of one logical ensemble.
  std::uint64_t load_ensemble(const std::string& name,
                              const std::vector<std::string>& checkpoint_paths,
                              bool quantize = false);

  /// Handle for `name`, creating an empty entry when absent (a model can be
  /// loaded after engines already hold handles to it).
  [[nodiscard]] Handle handle(const std::string& name);

  /// Convenience: current version of `name` (nullptr when none / unknown).
  [[nodiscard]] std::shared_ptr<ServedModel> current(const std::string& name) const;

  [[nodiscard]] std::vector<std::string> names() const;

 private:
  Handle::Entry& entry(const std::string& name);
  std::uint64_t publish(const std::string& name, std::vector<MemberInit> members,
                        bool quantize);

  mutable std::mutex mu_;  ///< guards the name map only, never the hot path
  std::map<std::string, std::unique_ptr<Handle::Entry>> entries_;
};

}  // namespace tdfm::serve
