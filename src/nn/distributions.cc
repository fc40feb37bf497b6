#include "nn/distributions.h"

#include <cmath>
#include <stdexcept>

namespace agsc::nn {

namespace {
constexpr float kLogTwoPi = 1.8378770664093453f;  // log(2*pi)
}  // namespace

DiagGaussian::DiagGaussian(Variable mean, Variable log_std)
    : mean_(std::move(mean)), log_std_(std::move(log_std)) {
  if (log_std_.rows() != 1 || log_std_.cols() != mean_.cols()) {
    throw std::invalid_argument("DiagGaussian: log_std must be 1 x D");
  }
}

Tensor DiagGaussian::Sample(util::Rng& rng) const {
  Tensor out = mean_.value();
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) {
      const float sigma = std::exp(log_std_.value()(0, c));
      out(r, c) += sigma * static_cast<float>(rng.Gaussian());
    }
  }
  return out;
}

Tensor DiagGaussian::SamplePerRow(const std::vector<util::Rng*>& rngs) const {
  Tensor out = mean_.value();
  if (static_cast<int>(rngs.size()) != out.rows()) {
    throw std::invalid_argument(
        "DiagGaussian::SamplePerRow: one rng per row required");
  }
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) {
      const float sigma = std::exp(log_std_.value()(0, c));
      out(r, c) += sigma * static_cast<float>(rngs[r]->Gaussian());
    }
  }
  return out;
}

Tensor DiagGaussian::Mode() const { return mean_.value(); }

Variable DiagGaussian::LogProb(const Tensor& actions) const {
  if (actions.rows() != mean_.rows() || actions.cols() != mean_.cols()) {
    throw std::invalid_argument("DiagGaussian::LogProb: shape mismatch");
  }
  // z = (a - mean) * exp(-log_std); per-dim logp = -0.5 z^2 - log_std -
  // 0.5 log(2 pi); total = row sum.
  Variable a = Variable::Constant(actions);
  Variable diff = Sub(a, mean_);
  Variable inv_sigma = Exp(Neg(log_std_));
  Variable z = MulRowVector(diff, inv_sigma);
  Variable per_dim = SquareScale(z, -0.5f);
  per_dim = AddRowVector(per_dim, Neg(log_std_));
  per_dim = ScalarAdd(per_dim, -0.5f * kLogTwoPi);
  return RowSum(per_dim);
}

void SampleDiagGaussianRow(const float* mean, const float* log_std, int dims,
                           util::Rng& rng, float* action) {
  for (int c = 0; c < dims; ++c) {
    const float sigma = std::exp(log_std[c]);
    action[c] = mean[c] + sigma * static_cast<float>(rng.Gaussian());
  }
}

float DiagGaussianRowLogProb(const float* mean, const float* log_std,
                             const float* action, int dims) {
  // LogProb's graph, one element at a time: Sub, Exp(Neg) (Neg is a
  // multiplication by -1), MulRowVector, SquareScale, AddRowVector,
  // ScalarAdd, and RowSum's double accumulation.
  double sum = 0.0;
  for (int c = 0; c < dims; ++c) {
    const float neg_log_std = log_std[c] * -1.0f;
    const float z = (action[c] - mean[c]) * std::exp(neg_log_std);
    float per_dim = -0.5f * (z * z);
    per_dim += neg_log_std;
    per_dim += -0.5f * kLogTwoPi;
    sum += per_dim;
  }
  return static_cast<float>(sum);
}

Variable DiagGaussian::Entropy() const {
  const float d = static_cast<float>(dims());
  return ScalarAdd(Sum(log_std_), 0.5f * d * (1.0f + kLogTwoPi));
}

CategoricalDist::CategoricalDist(Variable logits)
    : logits_(std::move(logits)) {}

Tensor CategoricalDist::Probabilities() const {
  const Tensor& l = logits_.value();
  Tensor p(l.rows(), l.cols());
  for (int r = 0; r < l.rows(); ++r) {
    float mx = l(r, 0);
    for (int c = 1; c < l.cols(); ++c) mx = std::max(mx, l(r, c));
    double denom = 0.0;
    for (int c = 0; c < l.cols(); ++c) {
      p(r, c) = std::exp(l(r, c) - mx);
      denom += p(r, c);
    }
    for (int c = 0; c < l.cols(); ++c) {
      p(r, c) = static_cast<float>(p(r, c) / denom);
    }
  }
  return p;
}

std::vector<int> CategoricalDist::Sample(util::Rng& rng) const {
  Tensor p = Probabilities();
  std::vector<int> out(p.rows());
  for (int r = 0; r < p.rows(); ++r) {
    double target = rng.Uniform();
    int pick = p.cols() - 1;
    for (int c = 0; c < p.cols(); ++c) {
      target -= p(r, c);
      if (target < 0.0) {
        pick = c;
        break;
      }
    }
    out[r] = pick;
  }
  return out;
}

std::vector<int> CategoricalDist::Mode() const {
  const Tensor& l = logits_.value();
  std::vector<int> out(l.rows());
  for (int r = 0; r < l.rows(); ++r) {
    int best = 0;
    for (int c = 1; c < l.cols(); ++c) {
      if (l(r, c) > l(r, best)) best = c;
    }
    out[r] = best;
  }
  return out;
}

Variable CategoricalDist::LogProb(const std::vector<int>& labels) const {
  return PickPerRow(LogSoftmax(logits_), labels);
}

Variable CategoricalDist::Entropy() const { return SoftmaxEntropy(logits_); }

}  // namespace agsc::nn
