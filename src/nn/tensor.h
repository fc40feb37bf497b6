#ifndef AGSC_NN_TENSOR_H_
#define AGSC_NN_TENSOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.h"

namespace agsc::nn {

/// Selects the GEMM implementation used by MatMul / MatMulTransposedA /
/// MatMulTransposedB. Every variant computes each output element through the
/// same single accumulation chain (ascending inner index), so results are
/// bit-identical across kernels — the choice affects speed only.
enum class GemmKernel {
  kNaive,    ///< Reference triple-loop kernels (the original implementation).
  kBlocked,  ///< Cache-blocked, register-tiled kernels (default).
};

/// Process-wide configuration of the tensor compute kernels.
struct KernelConfig {
  GemmKernel gemm = GemmKernel::kBlocked;
};

/// Installs `config` process-wide. Thread-safe: a product already running
/// finishes with the kernel it started on.
void SetKernelConfig(const KernelConfig& config);

/// Returns the currently installed configuration.
KernelConfig GetKernelConfig();

/// Name of the SIMD tier the blocked GEMM kernels dispatched to on this
/// CPU at runtime: "avx512", "avx2", or "generic". Build provenance for
/// --build-info / bug reports; the choice never affects result bits.
const char* ActiveGemmIsaName();

/// Dense row-major 2-D float matrix. This is the only tensor rank the
/// library needs: batches are rows, features are columns; vectors are 1xC or
/// Rx1 matrices and scalars are 1x1.
///
/// Element storage is recycled through a thread-local buffer pool (see
/// internal::AcquireBuffer), so graph-shaped workloads — e.g. one PPO
/// optimize epoch — perform O(1) heap allocations after warm-up. The pool is
/// transparent: construction, copying, and destruction have value semantics
/// exactly as before.
class Tensor {
 public:
  /// Creates an empty 0x0 tensor.
  Tensor() = default;

  /// Creates a rows x cols tensor initialized to zero.
  /// Throws std::invalid_argument for negative dims (checked before any
  /// storage is sized, so a negative dim can never trigger an allocation).
  Tensor(int rows, int cols) : Tensor(rows, cols, 0.0f) {}

  /// Creates a rows x cols tensor filled with `fill`.
  Tensor(int rows, int cols, float fill);

  Tensor(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(const Tensor& other);
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  /// Builds a 1xN row vector from `values`.
  static Tensor RowVector(const std::vector<float>& values);

  /// Builds an Nx1 column vector from `values`.
  static Tensor ColVector(const std::vector<float>& values);

  /// Builds a 1x1 scalar tensor.
  static Tensor Scalar(float value);

  /// Builds a rows x cols tensor from row-major `values`
  /// (values.size() must equal rows*cols).
  static Tensor FromRowMajor(int rows, int cols,
                             const std::vector<float>& values);

  /// Tensor with i.i.d. N(0, stddev^2) entries.
  static Tensor Randn(int rows, int cols, util::Rng& rng,
                      float stddev = 1.0f);

  /// Tensor with i.i.d. U(lo, hi) entries.
  static Tensor Uniform(int rows, int cols, util::Rng& rng, float lo,
                        float hi);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Element access (bounds unchecked in release; asserted in debug).
  float& operator()(int r, int c) { return data_[r * cols_ + c]; }
  float operator()(int r, int c) const { return data_[r * cols_ + c]; }

  /// Flat element access in row-major order.
  float& operator[](int i) { return data_[i]; }
  float operator[](int i) const { return data_[i]; }

  /// Sets every element to `value`.
  void Fill(float value);

  /// Returns the transpose.
  Tensor Transposed() const;

  /// Returns a copy of row `r` as a 1xC tensor.
  /// Throws std::out_of_range for r outside [0, rows()).
  Tensor Row(int r) const;

  /// In-place elementwise add of a same-shaped tensor.
  void AddInPlace(const Tensor& other);

  /// In-place scale by a scalar.
  void Scale(float factor);

  /// Sum of all elements.
  float Sum() const;

  /// Mean of all elements; 0 for empty tensors.
  float Mean() const;

  /// Maximum absolute value of any element; 0 for empty tensors.
  float AbsMax() const;

  /// Frobenius norm.
  float Norm() const;

  /// Returns true if shapes and all elements match exactly.
  bool SameAs(const Tensor& other) const;

  /// Human-readable "rows x cols" string.
  std::string ShapeString() const;

  /// Row-major copy of the contents.
  std::vector<float> ToVector() const {
    return std::vector<float>(data_.begin(), data_.end());
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

/// C = A * B (matrix product). Shapes must agree.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C = A * B^T without materializing the transpose.
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);

/// C = A^T * B without materializing the transpose.
Tensor MatMulTransposedA(const Tensor& a, const Tensor& b);

/// Replaces each of the n floats at `data` by its tanh, in vector lanes of
/// the GEMM's ISA tier. Every result has the bits of glibc 2.36's
/// std::tanh(float), at every tier (DESIGN item 17).
void TanhInPlace(float* data, std::size_t n);

namespace internal {

/// Reference GEMMs, kept verbatim (minus the NaN-swallowing zero-skip) as the
/// golden implementations the blocked kernels are tested bit-exact against.
/// `MatMul` et al. route here when KernelConfig::gemm == GemmKernel::kNaive.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b);
Tensor NaiveMatMulTransposedB(const Tensor& a, const Tensor& b);
Tensor NaiveMatMulTransposedA(const Tensor& a, const Tensor& b);

/// SIMD tiers of the blocked GEMM kernels, lowest first. MatMul et al. run
/// the highest one the CPU supports (ActiveGemmIsaName).
enum class GemmIsa { kGeneric, kAvx2, kAvx512 };

/// Every tier this CPU can run, lowest first; always starts with kGeneric.
std::vector<GemmIsa> SupportedGemmIsas();

/// "generic", "avx2" or "avx512".
const char* GemmIsaName(GemmIsa isa);

/// The blocked kernels run serially at a forced tier, so the bit-exactness
/// sweep covers the tiers below the one MatMul dispatches to. Throws
/// std::invalid_argument for a tier this CPU cannot run.
Tensor BlockedMatMul(const Tensor& a, const Tensor& b, GemmIsa isa);
Tensor BlockedMatMulTransposedB(const Tensor& a, const Tensor& b, GemmIsa isa);
Tensor BlockedMatMulTransposedA(const Tensor& a, const Tensor& b, GemmIsa isa);

/// TanhInPlace at a forced tier, for the same sweep.
void TanhInPlaceAtTier(float* data, std::size_t n, GemmIsa isa);

/// Per-thread buffer-pool counters (for this calling thread).
struct BufferPoolStats {
  long long acquires = 0;    ///< Total AcquireBuffer calls.
  long long pool_hits = 0;   ///< Acquires served from the free list.
  long long heap_allocs = 0; ///< Acquires that had to touch the heap.
};

/// Snapshot of this thread's pool counters.
BufferPoolStats GetBufferPoolStats();

/// False when pooling is compiled out (ASan/TSan builds keep the allocator
/// instrumented); stats still count heap allocations in that mode.
bool BufferPoolEnabled();

/// Obtains a float buffer of exactly `n` elements, all set to `fill`,
/// reusing a pooled allocation when one of sufficient capacity exists.
std::vector<float> AcquireBuffer(std::size_t n, float fill);

/// Returns a buffer to this thread's pool (or frees it if the pool is full,
/// the buffer is outside pooled size classes, or the thread is exiting).
void ReleaseBuffer(std::vector<float>&& buffer) noexcept;

}  // namespace internal

}  // namespace agsc::nn

#endif  // AGSC_NN_TENSOR_H_
