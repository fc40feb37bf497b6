#ifndef AGSC_NN_LAYERS_H_
#define AGSC_NN_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/ops.h"
#include "util/rng.h"

namespace agsc::nn {

// `Activation` lives in ops.h (shared with the fused LinearActivate op) and
// is re-exported here through the include above.

/// Applies `act` to `x` (identity for kNone).
Variable Activate(const Variable& x, Activation act);

/// Interface for anything that owns trainable parameters.
class Module {
 public:
  virtual ~Module() = default;

  /// Returns all trainable parameters (stable order across calls so that
  /// serialization and optimizers can rely on it).
  virtual std::vector<Variable> Parameters() const = 0;

  /// Total scalar parameter count.
  int ParameterCount() const;
};

/// Fully-connected layer y = x W + b with orthogonal weight init.
class Linear : public Module {
 public:
  /// `gain` scales the orthogonal initialization (use sqrt(2) before ReLU,
  /// 0.01 for small policy heads, 1 otherwise).
  Linear(int in_features, int out_features, util::Rng& rng, float gain = 1.0f);

  /// Applies the layer to a batch (rows = batch).
  Variable Forward(const Variable& x) const;

  /// Applies the layer and `act` as one fused graph node (bit-exact
  /// equivalent to Activate(Forward(x), act), with fewer allocations).
  Variable Forward(const Variable& x, Activation act) const;

  /// Values-only forward for inference: no autograd nodes are built, and the
  /// result is bit-identical to Forward(x, act).value() (both run the same
  /// LinearActivateValue kernel). Safe to call concurrently from multiple
  /// threads as long as the parameters are not mutated.
  Tensor Infer(const Tensor& x, Activation act) const;

  std::vector<Variable> Parameters() const override;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  const Variable& weight() const { return weight_; }
  const Variable& bias() const { return bias_; }

 private:
  int in_features_;
  int out_features_;
  Variable weight_;  // in x out.
  Variable bias_;    // 1 x out.
};

/// Multi-layer perceptron: Linear -> act -> ... -> Linear (-> output_act).
class Mlp : public Module {
 public:
  /// `sizes` = {in, hidden..., out}; needs >= 2 entries. `hidden_act` is
  /// applied after every layer except the last, `output_act` after the last.
  Mlp(const std::vector<int>& sizes, util::Rng& rng,
      Activation hidden_act = Activation::kTanh,
      Activation output_act = Activation::kNone, float final_gain = 1.0f);

  Variable Forward(const Variable& x) const;

  /// Convenience: forward on raw data without building grad history upstream
  /// of the input (input becomes a constant leaf).
  Variable Forward(const Tensor& x) const;

  /// Const batched inference entry point: the full forward pass on values
  /// only, building no autograd graph. Bit-identical to Forward(x).value()
  /// — every layer runs the same fused LinearActivateValue kernel the graph
  /// op uses — and rows are independent, so a batched call equals the
  /// row-by-row calls bit-for-bit. This is the serving hot path.
  Tensor Infer(const Tensor& x) const;

  std::vector<Variable> Parameters() const override;

  int in_features() const { return layers_.front().in_features(); }
  int out_features() const { return layers_.back().out_features(); }
  const std::vector<Linear>& layers() const { return layers_; }

 private:
  std::vector<Linear> layers_;
  Activation hidden_act_;
  Activation output_act_;
};

/// Fills `w` (in x out) with a (semi-)orthogonal matrix scaled by `gain`,
/// using Gram-Schmidt on Gaussian columns. Exposed for testing.
void OrthogonalInit(Tensor& w, util::Rng& rng, float gain);

}  // namespace agsc::nn

#endif  // AGSC_NN_LAYERS_H_
