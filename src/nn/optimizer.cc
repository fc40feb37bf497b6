#include "nn/optimizer.h"

#include <cmath>

namespace agsc::nn {

Optimizer::Optimizer(std::vector<Variable> params)
    : params_(std::move(params)) {}

void Optimizer::ZeroGrad() {
  for (Variable& p : params_) p.ZeroGrad();
}

Sgd::Sgd(std::vector<Variable> params, float lr)
    : Optimizer(std::move(params)), lr_(lr) {}

void Sgd::Step() {
  for (Variable& p : params_) {
    Tensor& value = p.mutable_value();
    const Tensor& g = p.grad();
    for (int i = 0; i < value.size(); ++i) value[i] -= lr_ * g[i];
  }
}

Adam::Adam(std::vector<Variable> params, float lr, float beta1, float beta2,
           float eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {}

void Adam::EnsureState() {
  if (m_.size() == params_.size()) return;
  m_.clear();
  v_.clear();
  for (const Variable& p : params_) {
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::Step() {
  EnsureState();
  ++step_count_;
  const float bc1 =
      1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bc2 =
      1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  // Locals and restrict pointers let gcc run the loop in vector lanes (this
  // file builds with -fno-math-errno, so sqrt is an instruction). Every lane
  // performs the scalar loop's correctly rounded operations in its order,
  // so the result bits do not change.
  const float beta1 = beta1_, beta2 = beta2_, lr = lr_, eps = eps_;
  for (size_t k = 0; k < params_.size(); ++k) {
    float* __restrict value = params_[k].mutable_value().data();
    const float* __restrict g = params_[k].grad().data();
    float* __restrict m = m_[k].data();
    float* __restrict v = v_[k].data();
    const int n = m_[k].size();
    for (int i = 0; i < n; ++i) {
      m[i] = beta1 * m[i] + (1.0f - beta1) * g[i];
      v[i] = beta2 * v[i] + (1.0f - beta2) * g[i] * g[i];
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      value[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
}

Adam::State Adam::ExportState() {
  EnsureState();
  State state;
  state.step_count = step_count_;
  state.lr = lr_;
  state.m = m_;
  state.v = v_;
  return state;
}

bool Adam::ImportState(const State& state) {
  if (state.m.size() != params_.size() || state.v.size() != params_.size()) {
    return false;
  }
  for (size_t k = 0; k < params_.size(); ++k) {
    const Tensor& p = params_[k].value();
    if (state.m[k].rows() != p.rows() || state.m[k].cols() != p.cols() ||
        state.v[k].rows() != p.rows() || state.v[k].cols() != p.cols()) {
      return false;
    }
  }
  step_count_ = state.step_count;
  lr_ = state.lr;
  m_ = state.m;
  v_ = state.v;
  return true;
}

float ClipGradNorm(std::vector<Variable>& params, float max_norm) {
  double total = 0.0;
  for (Variable& p : params) {
    const Tensor& g = p.grad();
    for (int i = 0; i < g.size(); ++i) {
      total += static_cast<double>(g[i]) * g[i];
    }
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (Variable& p : params) p.grad().Scale(scale);
  }
  return norm;
}

}  // namespace agsc::nn
