// Network weight checkpointing.
//
// Training the heavier zoo members takes minutes on CPU; checkpoints let
// applications train once and reuse (e.g. the golden model across repeated
// AD evaluations, shipping a fitted ensemble, or feeding the serving
// layer's ModelRegistry).  Two on-disk formats share a magic prefix:
//
//   v1: magic | count:u64 | float32 * count
//       Count-only; the loader must already hold a structurally identical
//       network, so v1 files need out-of-band architecture knowledge.
//   v2: magic | meta (arch name, width, in_channels, image_size,
//       num_classes) | count:u64 | float32 * count
//       Self-describing: ModelRegistry::load() instantiates the right zoo
//       architecture from the header alone.
//   v3: v2 layout + flags:u32 after num_classes.  Flag bit 0 = quantize:
//       the checkpoint describes a model *deployed* in q8_0 inference form;
//       the weights themselves stay fp32 (quantization is irreversible, so
//       checkpoints are always written pre-quantization) and loaders are
//       expected to re-quantize after restoring.  This is how a
//       pipeline-promoted quantized candidate round-trips through
//       save/load without silently dequantizing.
//
// In every version the float block is Network::save_weights(): each
// parameter, then each layer's state, which is BatchNorm2D's running mean
// and variance (Layer::state).  A network without batch norm has no state,
// so its files are unchanged.  A batch-norm network's file written before
// the state was saved holds the parameters alone; it still loads, and the
// running statistics keep the freshly built values (mean 0, variance 1).
// Readers that predate the state refuse a batch-norm file written now: its
// count does not match their network.
//
// load_checkpoint reads all versions; save_checkpoint writes v1 unless a
// CheckpointMeta is supplied, and then v2 unless meta sets a v3-only field
// (so existing v2 files stay byte-identical).  The architecture is stored
// as its zoo *name* (not the enum value) so the format survives enum
// reordering and nn stays independent of the models library.
#pragma once

#include <cstdint>
#include <string>

#include "nn/network.hpp"

namespace tdfm::nn {

/// Architecture metadata carried by a v2 checkpoint header — everything a
/// registry needs to rebuild the network before loading its weights.
struct CheckpointMeta {
  std::uint32_t format_version = 2;  ///< set by the reader; 1 = count-only
  std::string arch;                  ///< model zoo name ("ConvNet", ...)
  std::uint32_t width = 0;           ///< base channel multiplier
  std::uint32_t in_channels = 0;
  std::uint32_t image_size = 0;
  std::uint32_t num_classes = 0;
  /// Deployment form: true = serve this model q8_0-quantized (v3 flag bit
  /// 0).  The stored weights are fp32 either way; loaders honouring the
  /// flag call quantize_for_inference() after restoring.
  bool quantize = false;

  [[nodiscard]] bool operator==(const CheckpointMeta&) const = default;
};

/// Writes the network's weights to `path` as a v1 (count-only) checkpoint.
/// Throws tdfm::Error on I/O failure.
void save_checkpoint(Network& net, const std::string& path);

/// Writes a self-describing checkpoint: `meta` followed by the weights.
/// Emits the v2 layout when no v3-only field is set (meta.quantize false),
/// v3 otherwise.  Throws tdfm::Error on I/O failure or when meta.arch is
/// empty.
void save_checkpoint(Network& net, const std::string& path,
                     const CheckpointMeta& meta);

/// Reads the header of a v2/v3 checkpoint.  Throws tdfm::Error on I/O
/// failure, on a non-checkpoint file, or on a v1 file (which carries no
/// metadata — callers must supply the architecture out of band).
[[nodiscard]] CheckpointMeta read_checkpoint_meta(const std::string& path);

/// Format version (1, 2 or 3) of the checkpoint at `path`.  Throws
/// tdfm::Error when the file is missing or not a tdfm checkpoint.
[[nodiscard]] std::uint32_t checkpoint_format_version(const std::string& path);

/// Loads weights saved by either save_checkpoint overload into a
/// structurally identical network (v2 metadata is validated for internal
/// consistency, then skipped).  Throws tdfm::Error on I/O failure or format
/// mismatch, and InvariantError when the stored scalar count matches
/// neither the network's parameters nor its parameters and state.
void load_checkpoint(Network& net, const std::string& path);

}  // namespace tdfm::nn
