#include "nn/ops.h"

#include <cmath>
#include <stdexcept>

namespace agsc::nn {
namespace {

using internal::Node;

std::shared_ptr<Node> MakeNode(const char* name, Tensor value,
                               std::vector<Variable> inputs,
                               std::function<void(Node&)> backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->op_name = name;
  bool needs_grad = false;
  node->parents.reserve(inputs.size());
  for (const Variable& v : inputs) {
    if (!v.defined()) throw std::logic_error(std::string(name) + ": null input");
    node->parents.push_back(v.node());
    needs_grad = needs_grad || v.node()->requires_grad;
  }
  node->requires_grad = needs_grad;
  if (needs_grad) node->backward_fn = std::move(backward);
  return node;
}

void CheckSameShape(const char* name, const Variable& a, const Variable& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string(name) + ": shape mismatch " +
                                a.value().ShapeString() + " vs " +
                                b.value().ShapeString());
  }
}

/// Accumulates `delta` into parent `p`'s grad if it participates.
void Accumulate(const std::shared_ptr<Node>& p, const Tensor& delta) {
  if (!p->requires_grad) return;
  p->EnsureGrad();
  p->grad.AddInPlace(delta);
}

}  // namespace

Variable MatMul(const Variable& a, const Variable& b) {
  Tensor out = MatMul(a.value(), b.value());
  return Variable::FromNode(MakeNode(
      "matmul", std::move(out), {a, b}, [](Node& n) {
        const auto& pa = n.parents[0];
        const auto& pb = n.parents[1];
        if (pa->requires_grad) {
          Accumulate(pa, MatMulTransposedB(n.grad, pb->value));
        }
        if (pb->requires_grad) {
          Accumulate(pb, MatMulTransposedA(pa->value, n.grad));
        }
      }));
}

Variable Add(const Variable& a, const Variable& b) {
  CheckSameShape("add", a, b);
  Tensor out = a.value();
  out.AddInPlace(b.value());
  return Variable::FromNode(MakeNode("add", std::move(out), {a, b}, [](Node& n) {
    Accumulate(n.parents[0], n.grad);
    Accumulate(n.parents[1], n.grad);
  }));
}

Variable Sub(const Variable& a, const Variable& b) {
  CheckSameShape("sub", a, b);
  Tensor out = a.value();
  for (int i = 0; i < out.size(); ++i) out[i] -= b.value()[i];
  return Variable::FromNode(MakeNode("sub", std::move(out), {a, b}, [](Node& n) {
    Accumulate(n.parents[0], n.grad);
    if (n.parents[1]->requires_grad) {
      Tensor neg = n.grad;
      neg.Scale(-1.0f);
      Accumulate(n.parents[1], neg);
    }
  }));
}

Variable Mul(const Variable& a, const Variable& b) {
  CheckSameShape("mul", a, b);
  Tensor out = a.value();
  for (int i = 0; i < out.size(); ++i) out[i] *= b.value()[i];
  return Variable::FromNode(MakeNode("mul", std::move(out), {a, b}, [](Node& n) {
    const auto& pa = n.parents[0];
    const auto& pb = n.parents[1];
    if (pa->requires_grad) {
      Tensor d = n.grad;
      for (int i = 0; i < d.size(); ++i) d[i] *= pb->value[i];
      Accumulate(pa, d);
    }
    if (pb->requires_grad) {
      Tensor d = n.grad;
      for (int i = 0; i < d.size(); ++i) d[i] *= pa->value[i];
      Accumulate(pb, d);
    }
  }));
}

Variable Neg(const Variable& a) { return ScalarMul(a, -1.0f); }

Variable ScalarMul(const Variable& a, float s) {
  Tensor out = a.value();
  out.Scale(s);
  return Variable::FromNode(
      MakeNode("scalar_mul", std::move(out), {a}, [s](Node& n) {
        Tensor d = n.grad;
        d.Scale(s);
        Accumulate(n.parents[0], d);
      }));
}

Variable ScalarAdd(const Variable& a, float s) {
  Tensor out = a.value();
  for (int i = 0; i < out.size(); ++i) out[i] += s;
  return Variable::FromNode(
      MakeNode("scalar_add", std::move(out), {a}, [](Node& n) {
        Accumulate(n.parents[0], n.grad);
      }));
}

Variable AddRowVector(const Variable& m, const Variable& v) {
  if (v.rows() != 1 || v.cols() != m.cols()) {
    throw std::invalid_argument("AddRowVector: v must be 1x" +
                                std::to_string(m.cols()));
  }
  Tensor out = m.value();
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out(r, c) += v.value()(0, c);
  }
  return Variable::FromNode(
      MakeNode("add_row_vector", std::move(out), {m, v}, [](Node& n) {
        Accumulate(n.parents[0], n.grad);
        const auto& pv = n.parents[1];
        if (pv->requires_grad) {
          Tensor d(1, n.grad.cols());
          for (int r = 0; r < n.grad.rows(); ++r) {
            for (int c = 0; c < n.grad.cols(); ++c) d(0, c) += n.grad(r, c);
          }
          Accumulate(pv, d);
        }
      }));
}

Variable MulRowVector(const Variable& m, const Variable& v) {
  if (v.rows() != 1 || v.cols() != m.cols()) {
    throw std::invalid_argument("MulRowVector: v must be 1x" +
                                std::to_string(m.cols()));
  }
  Tensor out = m.value();
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out(r, c) *= v.value()(0, c);
  }
  return Variable::FromNode(
      MakeNode("mul_row_vector", std::move(out), {m, v}, [](Node& n) {
        const auto& pm = n.parents[0];
        const auto& pv = n.parents[1];
        if (pm->requires_grad) {
          Tensor d = n.grad;
          for (int r = 0; r < d.rows(); ++r) {
            for (int c = 0; c < d.cols(); ++c) d(r, c) *= pv->value(0, c);
          }
          Accumulate(pm, d);
        }
        if (pv->requires_grad) {
          Tensor d(1, n.grad.cols());
          for (int r = 0; r < n.grad.rows(); ++r) {
            for (int c = 0; c < n.grad.cols(); ++c) {
              d(0, c) += n.grad(r, c) * pm->value(r, c);
            }
          }
          Accumulate(pv, d);
        }
      }));
}

namespace {

/// Node of an elementwise unary op with forward value `out`, where
/// d(out)/d(in) can be written as a function of (input, output). Templated
/// on the callable so the backward closure is a capture of one empty functor
/// — small enough for std::function's inline storage, so building a unary
/// node performs no heap allocation beyond the node itself.
template <typename DydxFromXY>
Variable UnaryNode(const char* name, const Variable& a, Tensor out,
                   DydxFromXY dydx_from_x_y) {
  return Variable::FromNode(
      MakeNode(name, std::move(out), {a}, [dydx_from_x_y](Node& n) {
        const auto& pa = n.parents[0];
        if (!pa->requires_grad) return;
        Tensor d = n.grad;
        for (int i = 0; i < d.size(); ++i) {
          d[i] *= dydx_from_x_y(pa->value[i], n.value[i]);
        }
        Accumulate(pa, d);
      }));
}

/// UnaryNode with the forward value computed element by element by `fwd`,
/// which inlines into the loop.
template <typename Fwd, typename DydxFromXY>
Variable UnaryOp(const char* name, const Variable& a, Fwd fwd,
                 DydxFromXY dydx_from_x_y) {
  Tensor out = a.value();
  for (int i = 0; i < out.size(); ++i) out[i] = fwd(out[i]);
  return UnaryNode(name, a, std::move(out), dydx_from_x_y);
}

}  // namespace

Variable Exp(const Variable& a) {
  return UnaryOp("exp", a, [](float x) { return std::exp(x); },
                 [](float, float y) { return y; });
}

Variable Log(const Variable& a) {
  return UnaryOp("log", a, [](float x) { return std::log(x); },
                 [](float x, float) { return 1.0f / x; });
}

Variable Tanh(const Variable& a) {
  Tensor out = a.value();
  TanhInPlace(out.data(), out.size());
  return UnaryNode("tanh", a, std::move(out),
                   [](float, float y) { return 1.0f - y * y; });
}

Variable Relu(const Variable& a) {
  return UnaryOp("relu", a, [](float x) { return x > 0.0f ? x : 0.0f; },
                 [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Variable Sigmoid(const Variable& a) {
  return UnaryOp("sigmoid", a,
                 [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
                 [](float, float y) { return y * (1.0f - y); });
}

Variable Square(const Variable& a) {
  return UnaryOp("square", a, [](float x) { return x * x; },
                 [](float x, float) { return 2.0f * x; });
}

Variable Clamp(const Variable& a, float lo, float hi) {
  return UnaryOp(
      "clamp", a,
      [lo, hi](float x) { return x < lo ? lo : (x > hi ? hi : x); },
      [lo, hi](float x, float) { return (x >= lo && x <= hi) ? 1.0f : 0.0f; });
}

namespace {

Variable BinarySelect(const char* name, const Variable& a, const Variable& b,
                      bool take_min) {
  CheckSameShape(name, a, b);
  Tensor out(a.rows(), a.cols());
  for (int i = 0; i < out.size(); ++i) {
    const float av = a.value()[i], bv = b.value()[i];
    out[i] = take_min ? std::min(av, bv) : std::max(av, bv);
  }
  return Variable::FromNode(
      MakeNode(name, std::move(out), {a, b}, [take_min](Node& n) {
        const auto& pa = n.parents[0];
        const auto& pb = n.parents[1];
        Tensor da(n.value.rows(), n.value.cols());
        Tensor db(n.value.rows(), n.value.cols());
        for (int i = 0; i < n.value.size(); ++i) {
          const float av = pa->value[i], bv = pb->value[i];
          const bool pick_a = take_min ? (av <= bv) : (av >= bv);
          (pick_a ? da[i] : db[i]) = n.grad[i];
        }
        Accumulate(pa, da);
        Accumulate(pb, db);
      }));
}

}  // namespace

Variable Minimum(const Variable& a, const Variable& b) {
  return BinarySelect("minimum", a, b, /*take_min=*/true);
}

Variable Maximum(const Variable& a, const Variable& b) {
  return BinarySelect("maximum", a, b, /*take_min=*/false);
}

Variable Sum(const Variable& a) {
  Tensor out = Tensor::Scalar(a.value().Sum());
  return Variable::FromNode(MakeNode("sum", std::move(out), {a}, [](Node& n) {
    const auto& pa = n.parents[0];
    if (!pa->requires_grad) return;
    Tensor d(pa->value.rows(), pa->value.cols(), n.grad[0]);
    Accumulate(pa, d);
  }));
}

Variable Mean(const Variable& a) {
  const float inv = 1.0f / static_cast<float>(a.value().size());
  Tensor out = Tensor::Scalar(a.value().Sum() * inv);
  return Variable::FromNode(
      MakeNode("mean", std::move(out), {a}, [inv](Node& n) {
        const auto& pa = n.parents[0];
        if (!pa->requires_grad) return;
        Tensor d(pa->value.rows(), pa->value.cols(), n.grad[0] * inv);
        Accumulate(pa, d);
      }));
}

Variable RowSum(const Variable& a) {
  Tensor out(a.rows(), 1);
  for (int r = 0; r < a.rows(); ++r) {
    double s = 0.0;
    for (int c = 0; c < a.cols(); ++c) s += a.value()(r, c);
    out(r, 0) = static_cast<float>(s);
  }
  return Variable::FromNode(
      MakeNode("row_sum", std::move(out), {a}, [](Node& n) {
        const auto& pa = n.parents[0];
        if (!pa->requires_grad) return;
        Tensor d(pa->value.rows(), pa->value.cols());
        for (int r = 0; r < d.rows(); ++r) {
          for (int c = 0; c < d.cols(); ++c) d(r, c) = n.grad(r, 0);
        }
        Accumulate(pa, d);
      }));
}

Variable ConcatCols(const Variable& a, const Variable& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("ConcatCols: row mismatch");
  }
  Tensor out(a.rows(), a.cols() + b.cols());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) out(r, c) = a.value()(r, c);
    for (int c = 0; c < b.cols(); ++c) out(r, a.cols() + c) = b.value()(r, c);
  }
  const int ac = a.cols();
  return Variable::FromNode(
      MakeNode("concat_cols", std::move(out), {a, b}, [ac](Node& n) {
        const auto& pa = n.parents[0];
        const auto& pb = n.parents[1];
        if (pa->requires_grad) {
          Tensor d(pa->value.rows(), pa->value.cols());
          for (int r = 0; r < d.rows(); ++r) {
            for (int c = 0; c < d.cols(); ++c) d(r, c) = n.grad(r, c);
          }
          Accumulate(pa, d);
        }
        if (pb->requires_grad) {
          Tensor d(pb->value.rows(), pb->value.cols());
          for (int r = 0; r < d.rows(); ++r) {
            for (int c = 0; c < d.cols(); ++c) d(r, c) = n.grad(r, ac + c);
          }
          Accumulate(pb, d);
        }
      }));
}

Variable SliceCols(const Variable& a, int start, int count) {
  if (start < 0 || count <= 0 || start + count > a.cols()) {
    throw std::invalid_argument("SliceCols: bad range [" +
                                std::to_string(start) + ", " +
                                std::to_string(start + count) + ") of " +
                                std::to_string(a.cols()) + " cols");
  }
  Tensor out(a.rows(), count);
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < count; ++c) out(r, c) = a.value()(r, start + c);
  }
  return Variable::FromNode(
      MakeNode("slice_cols", std::move(out), {a}, [start, count](Node& n) {
        const auto& pa = n.parents[0];
        if (!pa->requires_grad) return;
        Tensor d(pa->value.rows(), pa->value.cols());
        for (int r = 0; r < d.rows(); ++r) {
          for (int c = 0; c < count; ++c) d(r, start + c) = n.grad(r, c);
        }
        Accumulate(pa, d);
      }));
}

namespace {

Tensor RowSoftmax(const Tensor& logits) {
  Tensor p(logits.rows(), logits.cols());
  for (int r = 0; r < logits.rows(); ++r) {
    float mx = logits(r, 0);
    for (int c = 1; c < logits.cols(); ++c) mx = std::max(mx, logits(r, c));
    double denom = 0.0;
    for (int c = 0; c < logits.cols(); ++c) {
      p(r, c) = std::exp(logits(r, c) - mx);
      denom += p(r, c);
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (int c = 0; c < logits.cols(); ++c) p(r, c) *= inv;
  }
  return p;
}

}  // namespace

Variable Softmax(const Variable& logits) {
  Tensor p = RowSoftmax(logits.value());
  return Variable::FromNode(
      MakeNode("softmax", std::move(p), {logits}, [](Node& n) {
        const auto& pl = n.parents[0];
        if (!pl->requires_grad) return;
        // dL/dx = p * (g - sum_c g*p) row-wise.
        Tensor d(n.value.rows(), n.value.cols());
        for (int r = 0; r < n.value.rows(); ++r) {
          double dot = 0.0;
          for (int c = 0; c < n.value.cols(); ++c) {
            dot += static_cast<double>(n.grad(r, c)) * n.value(r, c);
          }
          for (int c = 0; c < n.value.cols(); ++c) {
            d(r, c) = n.value(r, c) *
                      (n.grad(r, c) - static_cast<float>(dot));
          }
        }
        Accumulate(pl, d);
      }));
}

Variable LogSoftmax(const Variable& logits) {
  Tensor p = RowSoftmax(logits.value());
  Tensor out(p.rows(), p.cols());
  for (int i = 0; i < p.size(); ++i) {
    out[i] = std::log(std::max(p[i], 1e-30f));
  }
  // Keep the softmax probabilities for the backward pass.
  auto probs = std::make_shared<Tensor>(std::move(p));
  return Variable::FromNode(
      MakeNode("log_softmax", std::move(out), {logits}, [probs](Node& n) {
        const auto& pl = n.parents[0];
        if (!pl->requires_grad) return;
        // dL/dx = g - p * rowsum(g).
        Tensor d(n.value.rows(), n.value.cols());
        for (int r = 0; r < n.value.rows(); ++r) {
          double gsum = 0.0;
          for (int c = 0; c < n.value.cols(); ++c) gsum += n.grad(r, c);
          for (int c = 0; c < n.value.cols(); ++c) {
            d(r, c) = n.grad(r, c) -
                      (*probs)(r, c) * static_cast<float>(gsum);
          }
        }
        Accumulate(pl, d);
      }));
}

Variable PickPerRow(const Variable& m, const std::vector<int>& indices) {
  if (static_cast<int>(indices.size()) != m.rows()) {
    throw std::invalid_argument("PickPerRow: need one index per row");
  }
  Tensor out(m.rows(), 1);
  for (int r = 0; r < m.rows(); ++r) {
    const int c = indices[r];
    if (c < 0 || c >= m.cols()) {
      throw std::out_of_range("PickPerRow: index out of range");
    }
    out(r, 0) = m.value()(r, c);
  }
  auto idx = std::make_shared<std::vector<int>>(indices);
  return Variable::FromNode(
      MakeNode("pick_per_row", std::move(out), {m}, [idx](Node& n) {
        const auto& pm = n.parents[0];
        if (!pm->requires_grad) return;
        Tensor d(pm->value.rows(), pm->value.cols());
        for (int r = 0; r < d.rows(); ++r) d(r, (*idx)[r]) = n.grad(r, 0);
        Accumulate(pm, d);
      }));
}

Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int>& labels) {
  return Neg(Mean(PickPerRow(LogSoftmax(logits), labels)));
}

Variable SoftmaxEntropy(const Variable& logits) {
  Variable p = Softmax(logits);
  Variable logp = LogSoftmax(logits);
  // H = -mean_over_rows( sum_c p*logp ) = -sum(p*logp)/rows.
  return ScalarMul(Sum(Mul(p, logp)),
                   -1.0f / static_cast<float>(logits.rows()));
}

Variable MseLoss(const Variable& pred, const Tensor& target) {
  if (pred.rows() != target.rows() || pred.cols() != target.cols()) {
    throw std::invalid_argument("MseLoss: shape mismatch");
  }
  return Mean(Square(Sub(pred, Variable::Constant(target))));
}

namespace {

// d(act)/dx expressed from the post-activation value y. Matches the
// unfused ops exactly: tanh and sigmoid already differentiate from y, and
// for relu the y > 0 test is equivalent to the x > 0 test (y == x when
// x > 0, else y == 0).
float ActivationPrimeFromY(Activation act, float y) {
  switch (act) {
    case Activation::kNone: return 1.0f;
    case Activation::kRelu: return y > 0.0f ? 1.0f : 0.0f;
    case Activation::kTanh: return 1.0f - y * y;
    case Activation::kSigmoid: return y * (1.0f - y);
  }
  throw std::logic_error("unknown activation");
}

}  // namespace

Tensor LinearActivateValue(const Tensor& m, const Tensor& w, const Tensor& b,
                           Activation act) {
  if (m.cols() != w.rows()) {
    throw std::invalid_argument("LinearActivateValue: inner dims " +
                                m.ShapeString() + " vs " + w.ShapeString());
  }
  if (b.rows() != 1 || b.cols() != w.cols()) {
    throw std::invalid_argument("LinearActivateValue: b must be 1x" +
                                std::to_string(w.cols()));
  }
  Tensor out = MatMul(m, w);
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out(r, c) += b(0, c);
  }
  switch (act) {
    case Activation::kNone: break;
    case Activation::kRelu:
      for (int i = 0; i < out.size(); ++i) {
        out[i] = out[i] > 0.0f ? out[i] : 0.0f;
      }
      break;
    case Activation::kTanh: TanhInPlace(out.data(), out.size()); break;
    case Activation::kSigmoid:
      for (int i = 0; i < out.size(); ++i) {
        out[i] = 1.0f / (1.0f + std::exp(-out[i]));
      }
      break;
  }
  return out;
}

Variable LinearActivate(const Variable& m, const Variable& w,
                        const Variable& b, Activation act) {
  Tensor out = LinearActivateValue(m.value(), w.value(), b.value(), act);
  return Variable::FromNode(
      MakeNode("linear_activate", std::move(out), {m, w, b}, [act](Node& n) {
        const auto& pm = n.parents[0];
        const auto& pw = n.parents[1];
        const auto& pb = n.parents[2];
        // d = g * act'(y), the gradient at the pre-activation output.
        Tensor d = n.grad;
        if (act != Activation::kNone) {
          for (int i = 0; i < d.size(); ++i) {
            d[i] *= ActivationPrimeFromY(act, n.value[i]);
          }
        }
        if (pb->requires_grad) {
          Tensor db(1, d.cols());
          for (int r = 0; r < d.rows(); ++r) {
            for (int c = 0; c < d.cols(); ++c) db(0, c) += d(r, c);
          }
          Accumulate(pb, db);
        }
        if (pm->requires_grad) {
          Accumulate(pm, MatMulTransposedB(d, pw->value));
        }
        if (pw->requires_grad) {
          Accumulate(pw, MatMulTransposedA(pm->value, d));
        }
      }));
}

Variable AddScaled(const Variable& a, const Variable& b, float s) {
  CheckSameShape("add_scaled", a, b);
  Tensor out = a.value();
  for (int i = 0; i < out.size(); ++i) out[i] += s * b.value()[i];
  return Variable::FromNode(
      MakeNode("add_scaled", std::move(out), {a, b}, [s](Node& n) {
        Accumulate(n.parents[0], n.grad);
        const auto& pb = n.parents[1];
        if (pb->requires_grad) {
          Tensor d = n.grad;
          d.Scale(s);
          Accumulate(pb, d);
        }
      }));
}

Variable SquareScale(const Variable& a, float s) {
  Tensor out = a.value();
  for (int i = 0; i < out.size(); ++i) out[i] = s * (out[i] * out[i]);
  return Variable::FromNode(
      MakeNode("square_scale", std::move(out), {a}, [s](Node& n) {
        const auto& pa = n.parents[0];
        if (!pa->requires_grad) return;
        Tensor d = n.grad;
        for (int i = 0; i < d.size(); ++i) {
          d[i] = (d[i] * s) * (2.0f * pa->value[i]);
        }
        Accumulate(pa, d);
      }));
}

}  // namespace agsc::nn
