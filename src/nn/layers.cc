#include "nn/layers.h"

#include <cmath>
#include <stdexcept>

namespace agsc::nn {

Variable Activate(const Variable& x, Activation act) {
  switch (act) {
    case Activation::kNone: return x;
    case Activation::kRelu: return Relu(x);
    case Activation::kTanh: return Tanh(x);
    case Activation::kSigmoid: return Sigmoid(x);
  }
  throw std::logic_error("unknown activation");
}

int Module::ParameterCount() const {
  int n = 0;
  for (const Variable& p : Parameters()) n += p.value().size();
  return n;
}

void OrthogonalInit(Tensor& w, util::Rng& rng, float gain) {
  const int rows = w.rows(), cols = w.cols();
  // Orthonormalize the smaller dimension's vectors via modified Gram-Schmidt
  // on Gaussian samples; transpose logic handled by treating vectors as rows
  // of the wider orientation.
  const bool wide = cols > rows;
  const int nvec = wide ? rows : cols;
  const int dim = wide ? cols : rows;
  std::vector<std::vector<double>> basis(nvec, std::vector<double>(dim));
  for (auto& v : basis) {
    for (double& x : v) x = rng.Gaussian();
  }
  for (int i = 0; i < nvec; ++i) {
    for (int j = 0; j < i; ++j) {
      double dot = 0.0;
      for (int d = 0; d < dim; ++d) dot += basis[i][d] * basis[j][d];
      for (int d = 0; d < dim; ++d) basis[i][d] -= dot * basis[j][d];
    }
    double norm = 0.0;
    for (double x : basis[i]) norm += x * x;
    norm = std::sqrt(std::max(norm, 1e-12));
    for (double& x : basis[i]) x /= norm;
  }
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const double v = wide ? basis[r][c] : basis[c][r];
      w(r, c) = gain * static_cast<float>(v);
    }
  }
}

Linear::Linear(int in_features, int out_features, util::Rng& rng, float gain)
    : in_features_(in_features), out_features_(out_features) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Linear: non-positive layer size");
  }
  Tensor w(in_features, out_features);
  OrthogonalInit(w, rng, gain);
  weight_ = Variable::Parameter(std::move(w));
  bias_ = Variable::Parameter(Tensor(1, out_features));
}

Variable Linear::Forward(const Variable& x) const {
  return Forward(x, Activation::kNone);
}

Variable Linear::Forward(const Variable& x, Activation act) const {
  if (x.cols() != in_features_) {
    throw std::invalid_argument("Linear::Forward: expected " +
                                std::to_string(in_features_) + " cols, got " +
                                std::to_string(x.cols()));
  }
  return LinearActivate(x, weight_, bias_, act);
}

Tensor Linear::Infer(const Tensor& x, Activation act) const {
  if (x.cols() != in_features_) {
    throw std::invalid_argument("Linear::Infer: expected " +
                                std::to_string(in_features_) + " cols, got " +
                                std::to_string(x.cols()));
  }
  return LinearActivateValue(x, weight_.value(), bias_.value(), act);
}

std::vector<Variable> Linear::Parameters() const { return {weight_, bias_}; }

Mlp::Mlp(const std::vector<int>& sizes, util::Rng& rng, Activation hidden_act,
         Activation output_act, float final_gain)
    : hidden_act_(hidden_act), output_act_(output_act) {
  if (sizes.size() < 2) throw std::invalid_argument("Mlp: need >= 2 sizes");
  const float hidden_gain =
      hidden_act == Activation::kRelu ? std::sqrt(2.0f) : 1.0f;
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    const bool last = i + 2 == sizes.size();
    layers_.emplace_back(sizes[i], sizes[i + 1], rng,
                         last ? final_gain : hidden_gain);
  }
}

Variable Mlp::Forward(const Variable& x) const {
  Variable h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    h = layers_[i].Forward(h, last ? output_act_ : hidden_act_);
  }
  return h;
}

Variable Mlp::Forward(const Tensor& x) const {
  return Forward(Variable::Constant(x));
}

Tensor Mlp::Infer(const Tensor& x) const {
  auto act = [&](size_t i) {
    return i + 1 == layers_.size() ? output_act_ : hidden_act_;
  };
  Tensor h = layers_[0].Infer(x, act(0));
  for (size_t i = 1; i < layers_.size(); ++i) h = layers_[i].Infer(h, act(i));
  return h;
}

std::vector<Variable> Mlp::Parameters() const {
  std::vector<Variable> params;
  for (const Linear& layer : layers_) {
    for (Variable& p : layer.Parameters()) params.push_back(std::move(p));
  }
  return params;
}

}  // namespace agsc::nn
