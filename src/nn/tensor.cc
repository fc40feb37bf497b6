#include "nn/tensor.h"

// This translation unit must be compiled with floating-point contraction
// disabled (-ffp-contract=off, set in src/nn/CMakeLists.txt): the blocked
// kernels are bit-exact against the naive references only if the compiler
// never fuses their mul+add chains into FMAs. The avx512 tile additionally
// pins fp-contract=off at function level because its target attribute
// enables FMA hardware.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace agsc::nn {

// ---------------------------------------------------------------------------
// Thread-local buffer pool
//
// Tensor element storage cycles at graph-node frequency during training —
// every op result, every gradient, every minibatch slice. The pool keeps
// freed vectors in per-thread power-of-two size classes so steady-state
// training performs no heap traffic for tensor data: an optimize epoch is
// O(1) heap allocations after warm-up (asserted in nn_kernel_test).
//
// Determinism: pooling only recycles capacity; every acquired buffer is
// fully overwritten via assign(), so values never depend on pool state.
// ---------------------------------------------------------------------------

namespace {

// Sanitizer builds keep the instrumented allocator in the loop: pooling
// would otherwise mask use-after-free at the exact layer these builds exist
// to check.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kPoolCompiledIn = false;
#else
constexpr bool kPoolCompiledIn = true;
#endif

constexpr int kNumBuckets = 25;  // size classes 2^0 .. 2^24 floats (64 MiB)
constexpr std::size_t kMaxPooledFloats = std::size_t{1} << (kNumBuckets - 1);
constexpr std::size_t kMaxPerBucket = 64;

int CeilLog2(std::size_t n) {  // n >= 1
  return std::bit_width(n - 1);
}

int FloorLog2(std::size_t n) {  // n >= 1
  return std::bit_width(n) - 1;
}

// Kept outside BufferPool (and trivially destructible) so ReleaseBuffer can
// tell the pool has been torn down regardless of the order thread_local
// destructors run in during thread exit.
thread_local bool t_pool_alive = false;

struct BufferPool {
  std::vector<std::vector<float>> buckets[kNumBuckets];
  internal::BufferPoolStats stats;
  BufferPool() { t_pool_alive = true; }
  ~BufferPool() { t_pool_alive = false; }
};

BufferPool& GetPool() {
  thread_local BufferPool pool;
  return pool;
}

}  // namespace

namespace internal {

bool BufferPoolEnabled() { return kPoolCompiledIn; }

BufferPoolStats GetBufferPoolStats() { return GetPool().stats; }

std::vector<float> AcquireBuffer(std::size_t n, float fill) {
  if (n == 0) return {};
  BufferPool& pool = GetPool();
  ++pool.stats.acquires;
  if (kPoolCompiledIn && n <= kMaxPooledFloats) {
    auto& bucket = pool.buckets[CeilLog2(n)];
    if (!bucket.empty()) {
      std::vector<float> buf = std::move(bucket.back());
      bucket.pop_back();
      ++pool.stats.pool_hits;
      buf.assign(n, fill);  // capacity >= 2^ceil_log2(n) >= n: no realloc
      return buf;
    }
  }
  ++pool.stats.heap_allocs;
  std::vector<float> buf;
  if (kPoolCompiledIn && n <= kMaxPooledFloats) {
    // Reserve the full size class so this buffer satisfies any later
    // request that maps to the same bucket.
    buf.reserve(std::size_t{1} << CeilLog2(n));
  }
  buf.assign(n, fill);
  return buf;
}

void ReleaseBuffer(std::vector<float>&& buffer) noexcept {
  if (!kPoolCompiledIn || !t_pool_alive) return;
  const std::size_t cap = buffer.capacity();
  if (cap == 0 || cap > kMaxPooledFloats) return;
  auto& bucket = GetPool().buckets[FloorLog2(cap)];
  if (bucket.size() >= kMaxPerBucket) return;
  try {
    bucket.push_back(std::move(buffer));
  } catch (...) {
    // Free-list growth failed; just let the buffer die.
  }
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Tensor value semantics over pooled storage
// ---------------------------------------------------------------------------

Tensor::Tensor(int rows, int cols, float fill) : rows_(rows), cols_(cols) {
  // Validate before sizing any storage: a negative dim must throw, not
  // attempt a static_cast<size_t>(-1)-scale allocation.
  if (rows < 0 || cols < 0) {
    throw std::invalid_argument("negative tensor dim");
  }
  data_ = internal::AcquireBuffer(static_cast<std::size_t>(rows) * cols, fill);
}

Tensor::Tensor(const Tensor& other) : rows_(other.rows_), cols_(other.cols_) {
  data_ = internal::AcquireBuffer(other.data_.size(), 0.0f);
  if (!data_.empty()) {
    std::memcpy(data_.data(), other.data_.data(),
                data_.size() * sizeof(float));
  }
}

Tensor::Tensor(Tensor&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_.clear();
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) {
    Tensor tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this != &other) {
    internal::ReleaseBuffer(std::move(data_));
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_ = std::move(other.data_);
    other.rows_ = 0;
    other.cols_ = 0;
    other.data_.clear();
  }
  return *this;
}

Tensor::~Tensor() { internal::ReleaseBuffer(std::move(data_)); }

Tensor Tensor::RowVector(const std::vector<float>& values) {
  Tensor t(1, static_cast<int>(values.size()));
  if (!values.empty()) {
    std::memcpy(t.data(), values.data(), values.size() * sizeof(float));
  }
  return t;
}

Tensor Tensor::ColVector(const std::vector<float>& values) {
  Tensor t(static_cast<int>(values.size()), 1);
  if (!values.empty()) {
    std::memcpy(t.data(), values.data(), values.size() * sizeof(float));
  }
  return t;
}

Tensor Tensor::Scalar(float value) {
  Tensor t(1, 1);
  t[0] = value;
  return t;
}

Tensor Tensor::FromRowMajor(int rows, int cols,
                            const std::vector<float>& values) {
  if (rows < 0 || cols < 0) {
    throw std::invalid_argument("negative tensor dim");
  }
  if (static_cast<std::size_t>(rows) * cols != values.size()) {
    throw std::invalid_argument("FromRowMajor: size mismatch");
  }
  Tensor t(rows, cols);
  if (!values.empty()) {
    std::memcpy(t.data(), values.data(), values.size() * sizeof(float));
  }
  return t;
}

Tensor Tensor::Randn(int rows, int cols, util::Rng& rng, float stddev) {
  Tensor t(rows, cols);
  for (int i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Gaussian()) * stddev;
  }
  return t;
}

Tensor Tensor::Uniform(int rows, int cols, util::Rng& rng, float lo,
                       float hi) {
  Tensor t(rows, cols);
  for (int i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Uniform(lo, hi));
  }
  return t;
}

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Tensor Tensor::Transposed() const {
  Tensor out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Tensor Tensor::Row(int r) const {
  if (r < 0 || r >= rows_) {
    throw std::out_of_range("Tensor::Row: index " + std::to_string(r) +
                            " out of range for " + ShapeString());
  }
  Tensor out(1, cols_);
  if (cols_ > 0) {
    std::memcpy(out.data(), data_.data() + static_cast<std::size_t>(r) * cols_,
                cols_ * sizeof(float));
  }
  return out;
}

void Tensor::AddInPlace(const Tensor& other) {
  if (other.rows_ != rows_ || other.cols_ != cols_) {
    throw std::invalid_argument("AddInPlace: shape mismatch " + ShapeString() +
                                " vs " + other.ShapeString());
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::Scale(float factor) {
  for (float& x : data_) x *= factor;
}

float Tensor::Sum() const {
  double s = 0.0;
  for (float x : data_) s += x;
  return static_cast<float>(s);
}

float Tensor::Mean() const {
  return data_.empty() ? 0.0f : Sum() / static_cast<float>(data_.size());
}

float Tensor::AbsMax() const {
  float m = 0.0f;
  for (float x : data_) m = std::max(m, std::fabs(x));
  return m;
}

float Tensor::Norm() const {
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(s));
}

bool Tensor::SameAs(const Tensor& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         std::equal(data_.begin(), data_.end(), other.data_.begin());
}

std::string Tensor::ShapeString() const {
  return std::to_string(rows_) + "x" + std::to_string(cols_);
}

// ---------------------------------------------------------------------------
// GEMM kernels
//
// Determinism contract: every kernel — naive or blocked (any ISA tier, any
// tile shape including the MatMul remainder tiles, or a scalar edge) —
// computes each output element C[i][j] through one accumulation chain in
// ascending-p order, starting from 0. Nothing ever splits or reorders a
// chain, so the result bits are identical for every (kernel, tile) choice.
// MatMul / MatMulTransposedA accumulate in float; MatMulTransposedB
// accumulates each dot product in double, exactly as the naive reference.
// ---------------------------------------------------------------------------

namespace internal {

Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("MatMul: inner dims " + a.ShapeString() +
                                " vs " + b.ShapeString());
  }
  Tensor c(a.rows(), b.cols());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  for (int i = 0; i < m; ++i) {
    float* crow = c.data() + static_cast<std::size_t>(i) * n;
    const float* arow = a.data() + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      // No zero-skip here: 0 * NaN must stay NaN so diverging weights are
      // visible to the divergence guard instead of being masked by a zero
      // activation.
      const float av = arow[p];
      const float* brow = b.data() + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor NaiveMatMulTransposedB(const Tensor& a, const Tensor& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("MatMulTransposedB: dims " + a.ShapeString() +
                                " vs " + b.ShapeString());
  }
  Tensor c(a.rows(), b.rows());
  const int m = a.rows(), k = a.cols(), n = b.rows();
  for (int i = 0; i < m; ++i) {
    const float* arow = a.data() + static_cast<std::size_t>(i) * k;
    for (int j = 0; j < n; ++j) {
      const float* brow = b.data() + static_cast<std::size_t>(j) * k;
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        s += static_cast<double>(arow[p]) * brow[p];
      }
      c(i, j) = static_cast<float>(s);
    }
  }
  return c;
}

Tensor NaiveMatMulTransposedA(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("MatMulTransposedA: dims " + a.ShapeString() +
                                " vs " + b.ShapeString());
  }
  Tensor c(a.cols(), b.cols());
  const int m = a.cols(), k = a.rows(), n = b.cols();
  for (int p = 0; p < k; ++p) {
    const float* arow = a.data() + static_cast<std::size_t>(p) * m;
    const float* brow = b.data() + static_cast<std::size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];  // no zero-skip: see NaiveMatMul
      float* crow = c.data() + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

}  // namespace internal

namespace {

using internal::GemmIsa;

GemmIsa DetectIsa() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f")) return GemmIsa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return GemmIsa::kAvx2;
#endif
  return GemmIsa::kGeneric;
}

GemmIsa Isa() {
  static const GemmIsa level = DetectIsa();
  return level;
}

// Running a tier's code on a CPU without its instructions is SIGILL, not an
// exception; the tier hooks refuse instead.
void RequireTier(GemmIsa isa) {
  if (static_cast<int>(isa) > static_cast<int>(Isa())) {
    throw std::invalid_argument("GEMM tier not supported by this CPU");
  }
}

}  // namespace

const char* ActiveGemmIsaName() { return internal::GemmIsaName(Isa()); }

namespace internal {

const char* GemmIsaName(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kAvx512: return "avx512";
    case GemmIsa::kAvx2: return "avx2";
    case GemmIsa::kGeneric: return "generic";
  }
  return "generic";
}

}  // namespace internal

namespace {

// --- MatMul family: C[i][j] = sum_p A[i][p]*B[p][j], A is m x k row-major --

constexpr int kMmMr = 8;       // max rows per register tile
constexpr int kMmNr = 32;      // cols per full register tile
constexpr int kMmPanel = 256;  // values of p per packed A panel (8 KiB)

// Full register tile: rows [i0, i0 + MR) x cols [j0, j0 + 32), all of k.
// Each acc[ii][jj] is the complete ascending-p chain for one output element.
template <int MR>
__attribute__((always_inline)) inline void MmTile(const float* a,
                                                  const float* b, float* c,
                                                  int k, int n, int i0,
                                                  int j0) {
  float acc[MR][kMmNr] = {};
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<std::size_t>(p) * n + j0;
    const float* acol = a + static_cast<std::size_t>(i0) * k + p;
    for (int ii = 0; ii < MR; ++ii) {
      const float av = acol[static_cast<std::size_t>(ii) * k];
      for (int jj = 0; jj < kMmNr; ++jj) acc[ii][jj] += av * brow[jj];
    }
  }
  for (int ii = 0; ii < MR; ++ii) {
    float* crow = c + static_cast<std::size_t>(i0 + ii) * n + j0;
    for (int jj = 0; jj < kMmNr; ++jj) crow[jj] = acc[ii][jj];
  }
}

// One float per row of a band: a GCC vector extension, so the remainder
// block compiles to the registers of whichever tier inlines it.
typedef float MmLanes __attribute__((vector_size(kMmMr * sizeof(float))));

// NC remainder columns over one packed panel of pn values of p. chains[jj]
// holds column jj's chain for every row of the band, one per lane, so one
// multiply and one add advance all of them by one p.
template <int NC>
__attribute__((always_inline)) inline void MmLaneCols(const float* panel,
                                                      int pn, const float* b,
                                                      int n,
                                                      MmLanes* chains) {
  MmLanes acc[NC];
  for (int jj = 0; jj < NC; ++jj) acc[jj] = chains[jj];
  for (int p = 0; p < pn; ++p) {
    MmLanes av;
    std::memcpy(&av, panel + static_cast<std::size_t>(p) * kMmMr, sizeof(av));
    const float* brow = b + static_cast<std::size_t>(p) * n;
    for (int jj = 0; jj < NC; ++jj) acc[jj] += av * brow[jj];
  }
  for (int jj = 0; jj < NC; ++jj) chains[jj] = acc[jj];
}

// The n % 32 remainder columns [j0, n) of rows [i0, i0 + MR) — the 1-, 2-
// and 4-wide critic, actor and i-EOI heads. A row's p values lie apart in
// row-major A, so each run of kMmPanel values of p is first packed
// transposed into `panel` (lanes >= MR hold 0 and are never stored); the
// columns then advance four at a time. Panels run in ascending p, so every
// chain keeps its order.
template <int MR>
__attribute__((always_inline)) inline void MmRemainder(const float* a,
                                                       const float* b,
                                                       float* c, int k,
                                                       int n, int i0,
                                                       int j0) {
  MmLanes chains[kMmNr] = {};
  float panel[kMmPanel * kMmMr];
  const float* arows = a + static_cast<std::size_t>(i0) * k;
  for (int p0 = 0; p0 < k; p0 += kMmPanel) {
    const int pn = std::min(kMmPanel, k - p0);
    for (int p = 0; p < pn; ++p) {
      float* lanes = panel + static_cast<std::size_t>(p) * kMmMr;
      for (int ii = 0; ii < MR; ++ii) {
        lanes[ii] = arows[static_cast<std::size_t>(ii) * k + p0 + p];
      }
      for (int ii = MR; ii < kMmMr; ++ii) lanes[ii] = 0.0f;
    }
    const float* bp = b + static_cast<std::size_t>(p0) * n;
    int j = j0;
    for (; j + 4 <= n; j += 4) {
      MmLaneCols<4>(panel, pn, bp + j, n, chains + (j - j0));
    }
    switch (n - j) {
      case 3: MmLaneCols<3>(panel, pn, bp + j, n, chains + (j - j0)); break;
      case 2: MmLaneCols<2>(panel, pn, bp + j, n, chains + (j - j0)); break;
      case 1: MmLaneCols<1>(panel, pn, bp + j, n, chains + (j - j0)); break;
    }
  }
  for (int ii = 0; ii < MR; ++ii) {
    float* crow = c + static_cast<std::size_t>(i0 + ii) * n;
    for (int j = j0; j < n; ++j) crow[j] = chains[j - j0][ii];
  }
}

// Rows [i0, i0 + MR) across all n columns.
template <int MR>
__attribute__((always_inline)) inline void MmBandBody(const float* a,
                                                      const float* b,
                                                      float* c, int k, int n,
                                                      int i0) {
  int j0 = 0;
  for (; j0 + kMmNr <= n; j0 += kMmNr) MmTile<MR>(a, b, c, k, n, i0, j0);
  if (j0 < n) MmRemainder<MR>(a, b, c, k, n, i0, j0);
}

template <int MR>
void MmBandGeneric(const float* a, const float* b, float* c, int k, int n,
                   int i0) {
  MmBandBody<MR>(a, b, c, k, n, i0);
}

#if defined(__x86_64__) || defined(__i386__)
template <int MR>
__attribute__((target("avx2"))) void MmBandAvx2(const float* a,
                                                const float* b, float* c,
                                                int k, int n, int i0) {
  MmBandBody<MR>(a, b, c, k, n, i0);
}

// avx512f implies FMA hardware; fp-contract must stay off or gcc fuses the
// mul+add into an FMA and the tile stops being bit-exact vs the reference.
template <int MR>
__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
MmBandAvx512(const float* a, const float* b, float* c, int k, int n, int i0) {
  MmBandBody<MR>(a, b, c, k, n, i0);
}
#endif  // x86

using MmBandFn = void (*)(const float*, const float*, float*, int, int, int);

// One tier's band kernels, indexed by row count - 1.
#define AGSC_MM_BANDS(KERNEL)                                              \
  {KERNEL<1>, KERNEL<2>, KERNEL<3>, KERNEL<4>,                             \
   KERNEL<5>, KERNEL<6>, KERNEL<7>, KERNEL<8>}

const MmBandFn* MmBands([[maybe_unused]] GemmIsa isa) {
  static constexpr MmBandFn kGeneric[kMmMr] = AGSC_MM_BANDS(MmBandGeneric);
#if defined(__x86_64__) || defined(__i386__)
  static constexpr MmBandFn kAvx2[kMmMr] = AGSC_MM_BANDS(MmBandAvx2);
  static constexpr MmBandFn kAvx512[kMmMr] = AGSC_MM_BANDS(MmBandAvx512);
  if (isa == GemmIsa::kAvx512) return kAvx512;
  if (isa == GemmIsa::kAvx2) return kAvx2;
#endif
  return kGeneric;
}

#undef AGSC_MM_BANDS

// Full 8-row bands, then the m % 8 remainder rows as one shorter band.
void MmRange(GemmIsa isa, const float* a, const float* b, float* c, int k,
             int n, int r0, int r1) {
  const MmBandFn* bands = MmBands(isa);
  int i0 = r0;
  for (; i0 + kMmMr <= r1; i0 += kMmMr) bands[kMmMr - 1](a, b, c, k, n, i0);
  if (i0 < r1) bands[r1 - i0 - 1](a, b, c, k, n, i0);
}

// --- TransposedA family: C[i][j] = sum_p A[p][i]*B[p][j], A is k x m ------

#define AGSC_MTA_TILE_BODY                                                \
  float acc[kMmMr][kMmNr] = {};                                           \
  for (int p = 0; p < k; ++p) {                                           \
    const float* brow = b + static_cast<std::size_t>(p) * n + j0;         \
    const float* arow = a + static_cast<std::size_t>(p) * m + i0;         \
    for (int ii = 0; ii < kMmMr; ++ii) {                                  \
      const float av = arow[ii];                                          \
      for (int jj = 0; jj < kMmNr; ++jj) acc[ii][jj] += av * brow[jj];    \
    }                                                                     \
  }                                                                       \
  for (int ii = 0; ii < kMmMr; ++ii) {                                    \
    float* crow = c + static_cast<std::size_t>(i0 + ii) * n + j0;         \
    for (int jj = 0; jj < kMmNr; ++jj) crow[jj] = acc[ii][jj];            \
  }

void MtaTileGeneric(const float* a, const float* b, float* c, int k, int m,
                    int n, int i0, int j0) {
  AGSC_MTA_TILE_BODY
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void MtaTileAvx2(const float* a,
                                                 const float* b, float* c,
                                                 int k, int m, int n, int i0,
                                                 int j0) {
  AGSC_MTA_TILE_BODY
}

__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
MtaTileAvx512(const float* a, const float* b, float* c, int k, int m, int n,
              int i0, int j0) {
  AGSC_MTA_TILE_BODY
}
#endif  // x86

#undef AGSC_MTA_TILE_BODY

void MtaEdge(const float* a, const float* b, float* c, int k, int m, int n,
             int i0, int i1, int j0, int j1) {
  for (int i = i0; i < i1; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = j0; j < j1; ++j) {
      float s = 0.0f;
      for (int p = 0; p < k; ++p) {
        s += a[static_cast<std::size_t>(p) * m + i] *
             b[static_cast<std::size_t>(p) * n + j];
      }
      crow[j] = s;
    }
  }
}

void MtaRange([[maybe_unused]] GemmIsa isa, const float* a, const float* b,
              float* c, int k, int m, int n, int r0, int r1) {
  auto* tile = MtaTileGeneric;
#if defined(__x86_64__) || defined(__i386__)
  if (isa == GemmIsa::kAvx512) {
    tile = MtaTileAvx512;
  } else if (isa == GemmIsa::kAvx2) {
    tile = MtaTileAvx2;
  }
#endif
  int i0 = r0;
  for (; i0 + kMmMr <= r1; i0 += kMmMr) {
    int j0 = 0;
    for (; j0 + kMmNr <= n; j0 += kMmNr) tile(a, b, c, k, m, n, i0, j0);
    if (j0 < n) MtaEdge(a, b, c, k, m, n, i0, i0 + kMmMr, j0, n);
  }
  if (i0 < r1) MtaEdge(a, b, c, k, m, n, i0, r1, 0, n);
}

// --- TransposedB family: C[i][j] = dot(A row i, B row j) in double --------

// Products of fewer than kTbPackMinRows rows, one-column products and empty
// sums run one row at a time over B as stored; the rest pack B (below).
// Timed serially against each other at every tier (BENCH_nn.json,
// "transposed_b_paths"), the packed path is 0.4-0.6x the row path at one
// row and 0.7-0.9x at two, still loses at 4x3012x128 (0.7-0.85x, packing
// 385k values), and at n = 1 fills one lane per vector and loses at
// 33x7x1 (0.7-0.8x). From 8 rows with n >= 2 every shape of the kernel
// test sweep is faster packed (1.1-5.5x).
constexpr int kTbPackMinRows = 8;
constexpr int kTbNr = 8;  // independent double accumulator chains per tile

#define AGSC_TB_TILE_BODY                                                 \
  double acc[kTbNr] = {};                                                 \
  const float* arow = a + static_cast<std::size_t>(i) * k;                \
  for (int p = 0; p < k; ++p) {                                           \
    const double av = static_cast<double>(arow[p]);                       \
    for (int jj = 0; jj < kTbNr; ++jj) {                                  \
      acc[jj] += av * b[static_cast<std::size_t>(j0 + jj) * k + p];       \
    }                                                                     \
  }                                                                       \
  float* crow = c + static_cast<std::size_t>(i) * n + j0;                 \
  for (int jj = 0; jj < kTbNr; ++jj) {                                    \
    crow[jj] = static_cast<float>(acc[jj]);                               \
  }

void TbTileGeneric(const float* a, const float* b, float* c, int k, int n,
                   int i, int j0) {
  AGSC_TB_TILE_BODY
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void TbTileAvx2(const float* a,
                                                const float* b, float* c,
                                                int k, int n, int i,
                                                int j0) {
  AGSC_TB_TILE_BODY
}

__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
TbTileAvx512(const float* a, const float* b, float* c, int k, int n, int i,
             int j0) {
  AGSC_TB_TILE_BODY
}
#endif  // x86

#undef AGSC_TB_TILE_BODY

void TbRowsRange([[maybe_unused]] GemmIsa isa, const float* a,
                 const float* b, float* c, int k, int n, int r0, int r1) {
  auto* tile = TbTileGeneric;
#if defined(__x86_64__) || defined(__i386__)
  if (isa == GemmIsa::kAvx512) {
    tile = TbTileAvx512;
  } else if (isa == GemmIsa::kAvx2) {
    tile = TbTileAvx2;
  }
#endif
  for (int i = r0; i < r1; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    int j0 = 0;
    for (; j0 + kTbNr <= n; j0 += kTbNr) tile(a, b, c, k, n, i, j0);
    for (; j0 < n; ++j0) {
      const float* brow = b + static_cast<std::size_t>(j0) * k;
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        s += static_cast<double>(arow[p]) * brow[p];
      }
      c[static_cast<std::size_t>(i) * n + j0] = static_cast<float>(s);
    }
  }
}

constexpr int kTbMr = 4;  // rows per register block
constexpr int kTbNv = 2;  // lane vectors of columns per full register block

// B's rows lie k floats apart, so a column block of them cannot be one
// vector load. Each call packs B transposed and widened instead,
// bt[p][j] = double(B[j][p]), into a buffer from the tensor pool that holds
// two floats per double (written and read through memcpy); each packed row
// is zero-padded to ldb columns, a multiple of the tier's lane count.
std::vector<float> PackTransposedB(const float* b, int n, int k, int ldb) {
  std::vector<float> bt = internal::AcquireBuffer(
      2 * static_cast<std::size_t>(k) * ldb, 0.0f);
  for (int p = 0; p < k; ++p) {
    float* row = bt.data() + 2 * static_cast<std::size_t>(p) * ldb;
    for (int j = 0; j < n; ++j) {
      const double v = b[static_cast<std::size_t>(j) * k + p];
      std::memcpy(row + 2 * j, &v, sizeof(v));
    }
  }
  return bt;
}

// Rows [i0, i0 + MR) x columns [j0, j0 + NV * lanes), all of k. V holds one
// tier's native number of double lanes and F as many floats; lane l of
// acc[ii][v] is the whole chain of C[i0 + ii][j0 + v * lanes + l], advanced
// by one exact product double(a) * double(b) and one rounded double add per
// p, in ascending p from 0.0 like the naive reference. Padded lanes are
// computed but never stored.
template <typename V, typename F, int MR, int NV>
__attribute__((always_inline)) inline void TbBlock(const float* a,
                                                   const float* bt, float* c,
                                                   int k, int n, int ldb,
                                                   int i0, int j0) {
  constexpr int kLanes = sizeof(V) / sizeof(double);
  V acc[MR][NV] = {};
  const float* arows = a + static_cast<std::size_t>(i0) * k;
  const float* bp = bt + 2 * static_cast<std::size_t>(j0);
  for (int p = 0; p < k; ++p, bp += 2 * static_cast<std::size_t>(ldb)) {
    V bv[NV];
    for (int v = 0; v < NV; ++v) {
      std::memcpy(&bv[v], bp + 2 * v * kLanes, sizeof(V));
    }
    for (int ii = 0; ii < MR; ++ii) {
      const double av = arows[static_cast<std::size_t>(ii) * k + p];
      for (int v = 0; v < NV; ++v) acc[ii][v] += av * bv[v];
    }
  }
  // Converted in a branch-free loop first, so acc stays in registers.
  F out[MR][NV];
  for (int ii = 0; ii < MR; ++ii) {
    for (int v = 0; v < NV; ++v) {
      out[ii][v] = __builtin_convertvector(acc[ii][v], F);
    }
  }
  for (int ii = 0; ii < MR; ++ii) {
    float* crow = c + static_cast<std::size_t>(i0 + ii) * n;
    for (int v = 0; v < NV; ++v) {
      const int j = j0 + v * kLanes;
      if (j + kLanes <= n) {
        std::memcpy(crow + j, &out[ii][v], sizeof(F));
      } else {
        for (int l = 0; l < n - j; ++l) crow[j + l] = out[ii][v][l];
      }
    }
  }
}

// Rows [i0, i0 + MR) across all n columns: blocks of kTbNv lane vectors,
// then at most one single-vector block for the rest of the padded row
// (ldb is a multiple of the lane count).
template <typename V, typename F, int MR>
__attribute__((always_inline)) inline void TbBandBody(const float* a,
                                                      const float* bt,
                                                      float* c, int k, int n,
                                                      int ldb, int i0) {
  constexpr int kLanes = sizeof(V) / sizeof(double);
  int j0 = 0;
  for (; j0 + kTbNv * kLanes <= ldb; j0 += kTbNv * kLanes) {
    TbBlock<V, F, MR, kTbNv>(a, bt, c, k, n, ldb, i0, j0);
  }
  for (; j0 < ldb; j0 += kLanes) {
    TbBlock<V, F, MR, 1>(a, bt, c, k, n, ldb, i0, j0);
  }
}

typedef double TbLanes2 __attribute__((vector_size(2 * sizeof(double))));
typedef float TbFloats2 __attribute__((vector_size(2 * sizeof(float))));

template <int MR>
void TbBandGeneric(const float* a, const float* bt, float* c, int k, int n,
                   int ldb, int i0) {
  TbBandBody<TbLanes2, TbFloats2, MR>(a, bt, c, k, n, ldb, i0);
}

#if defined(__x86_64__) || defined(__i386__)
typedef double TbLanes4 __attribute__((vector_size(4 * sizeof(double))));
typedef float TbFloats4 __attribute__((vector_size(4 * sizeof(float))));
typedef double TbLanes8 __attribute__((vector_size(8 * sizeof(double))));
typedef float TbFloats8 __attribute__((vector_size(8 * sizeof(float))));

template <int MR>
__attribute__((target("avx2"))) void TbBandAvx2(const float* a,
                                                const float* bt, float* c,
                                                int k, int n, int ldb,
                                                int i0) {
  TbBandBody<TbLanes4, TbFloats4, MR>(a, bt, c, k, n, ldb, i0);
}

template <int MR>
__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
TbBandAvx512(const float* a, const float* bt, float* c, int k, int n,
             int ldb, int i0) {
  TbBandBody<TbLanes8, TbFloats8, MR>(a, bt, c, k, n, ldb, i0);
}
#endif  // x86

using TbBandFn = void (*)(const float*, const float*, float*, int, int, int,
                          int);

const TbBandFn* TbBands([[maybe_unused]] GemmIsa isa) {
  static constexpr TbBandFn kGeneric[kTbMr] = {
      TbBandGeneric<1>, TbBandGeneric<2>, TbBandGeneric<3>, TbBandGeneric<4>};
#if defined(__x86_64__) || defined(__i386__)
  static constexpr TbBandFn kAvx2[kTbMr] = {TbBandAvx2<1>, TbBandAvx2<2>,
                                            TbBandAvx2<3>, TbBandAvx2<4>};
  static constexpr TbBandFn kAvx512[kTbMr] = {
      TbBandAvx512<1>, TbBandAvx512<2>, TbBandAvx512<3>, TbBandAvx512<4>};
  if (isa == GemmIsa::kAvx512) return kAvx512;
  if (isa == GemmIsa::kAvx2) return kAvx2;
#endif
  return kGeneric;
}

// Double lanes per vector in each tier's bands.
int TbLanes(GemmIsa isa) {
  return isa == GemmIsa::kAvx512 ? 8 : isa == GemmIsa::kAvx2 ? 4 : 2;
}

// Full kTbMr-row bands, then the remainder rows as one shorter band.
void TbRange(GemmIsa isa, const float* a, const float* bt, float* c, int k,
             int n, int ldb, int r0, int r1) {
  const TbBandFn* bands = TbBands(isa);
  int i0 = r0;
  for (; i0 + kTbMr <= r1; i0 += kTbMr) {
    bands[kTbMr - 1](a, bt, c, k, n, ldb, i0);
  }
  if (i0 < r1) bands[r1 - i0 - 1](a, bt, c, k, n, ldb, i0);
}

// --- Kernel configuration -------------------------------------------------

// The GEMM choice is read by every product, from any thread; an atomic keeps
// that read lock-free.
std::atomic<GemmKernel>& GemmChoice() {
  static std::atomic<GemmKernel> choice{GemmKernel::kBlocked};
  return choice;
}

}  // namespace

void SetKernelConfig(const KernelConfig& config) {
  GemmChoice().store(config.gemm);
}

KernelConfig GetKernelConfig() {
  KernelConfig config;
  config.gemm = GemmChoice().load();
  return config;
}

namespace {

// Blocked GEMMs at tier `isa`. Each checks its shapes; the naive references
// check their own.
Tensor RunMatMul(const Tensor& a, const Tensor& b, GemmIsa isa) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("MatMul: inner dims " + a.ShapeString() +
                                " vs " + b.ShapeString());
  }
  const int m = a.rows(), k = a.cols(), n = b.cols();
  Tensor c(m, n);
  if (m == 0 || n == 0) return c;
  MmRange(isa, a.data(), b.data(), c.data(), k, n, 0, m);
  return c;
}

// The packed path, kept out of line so the row-at-a-time products do not
// carry its code and stack frame.
__attribute__((noinline)) void RunPackedTb(GemmIsa isa, const float* a,
                                           const float* b, float* c, int m,
                                           int k, int n) {
  const int lanes = TbLanes(isa);
  const int ldb = (n + lanes - 1) / lanes * lanes;
  std::vector<float> bt = PackTransposedB(b, n, k, ldb);
  TbRange(isa, a, bt.data(), c, k, n, ldb, 0, m);
  internal::ReleaseBuffer(std::move(bt));
}

Tensor RunMatMulTransposedB(const Tensor& a, const Tensor& b, GemmIsa isa) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("MatMulTransposedB: dims " + a.ShapeString() +
                                " vs " + b.ShapeString());
  }
  const int m = a.rows(), k = a.cols(), n = b.rows();
  Tensor c(m, n);
  if (m == 0 || n == 0) return c;
  if (m < kTbPackMinRows || n == 1 || k == 0) {
    TbRowsRange(isa, a.data(), b.data(), c.data(), k, n, 0, m);
  } else {
    RunPackedTb(isa, a.data(), b.data(), c.data(), m, k, n);
  }
  return c;
}

Tensor RunMatMulTransposedA(const Tensor& a, const Tensor& b, GemmIsa isa) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("MatMulTransposedA: dims " + a.ShapeString() +
                                " vs " + b.ShapeString());
  }
  const int m = a.cols(), k = a.rows(), n = b.cols();
  Tensor c(m, n);
  if (m == 0 || n == 0) return c;
  MtaRange(isa, a.data(), b.data(), c.data(), k, m, n, 0, m);
  return c;
}

bool NaiveKernels() {
  return GemmChoice().load() == GemmKernel::kNaive;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  if (NaiveKernels()) return internal::NaiveMatMul(a, b);
  return RunMatMul(a, b, Isa());
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  if (NaiveKernels()) return internal::NaiveMatMulTransposedB(a, b);
  return RunMatMulTransposedB(a, b, Isa());
}

Tensor MatMulTransposedA(const Tensor& a, const Tensor& b) {
  if (NaiveKernels()) return internal::NaiveMatMulTransposedA(a, b);
  return RunMatMulTransposedA(a, b, Isa());
}

// ---------------------------------------------------------------------------
// tanh in lanes
//
// A lane-wise transcription of fdlibm's tanhf and of the expm1f it calls, as
// glibc 2.36 ships them (sysdeps/ieee754/flt-32/s_tanhf.c, s_expm1f.c). Each
// lane performs the scalar code's IEEE float operations on its input, in its
// order, each rounded once; this file never contracts them into FMAs. Where
// the scalar code branches, every lane computes each arm and a select keeps
// the one the scalar code takes. So every tier returns glibc's tanhf bits
// for every input (DESIGN item 17 lists the arms tanh never reaches).
// ---------------------------------------------------------------------------

namespace {

constexpr float FloatBits(std::uint32_t bits) {
  return std::bit_cast<float>(bits);
}

// expm1f's constants, by bit pattern.
constexpr float kLn2Hi = FloatBits(0x3f317180u);
constexpr float kLn2Lo = FloatBits(0x3717f7d1u);
constexpr float kInvLn2 = FloatBits(0x3fb8aa3bu);
constexpr float kQ1 = FloatBits(0xbd088889u);
constexpr float kQ2 = FloatBits(0x3ad00d01u);
constexpr float kQ3 = FloatBits(0xb8a670cdu);
constexpr float kQ4 = FloatBits(0x36867e54u);
constexpr float kQ5 = FloatBits(0xb457edbbu);

// x = tanhf(x) in each lane. F holds the floats, I and U the same lanes as
// signed and unsigned 32-bit words; casts between them reinterpret bits.
template <typename F, typename I, typename U>
__attribute__((always_inline)) inline void TanhLanes(F& x) {
  const F one = F{} + 1.0f, two = F{} + 2.0f;
  const U sign = (U)x & 0x80000000u;
  const F ax = (F)((U)x & 0x7fffffffu);
  // tanhf returns +-1 from |x| >= 22 on, infinities included. Clamped to 22,
  // those lanes take the |x| >= 1 arm below, which rounds to exactly 1 there.
  // NaN lanes fail the compare too; they are replaced at the end.
  const F a = ax < 22.0f ? ax : F{} + 22.0f;
  const I big = a >= 1.0f;  // tanhf's expm1f(2|x|) arm, else expm1f(-2|x|)
  const F u = a * (big ? two : -two);

  // expm1f(u) for u in [-2, 44]. Reduce u = k ln2 + r - c: k = 0 for
  // |u| <= ln2 / 2, k = -1 from there to 3 ln2 / 2 (u < 0 there), else
  // u / ln2 rounded. With k = 0 the same operations leave r = u.
  const I hu = (I)((U)u & 0x7fffffffu);
  const F half = (I)u < 0 ? F{} - 0.5f : F{} + 0.5f;
  const I nearest = __builtin_convertvector(kInvLn2 * u + half, I);
  const I k = hu > 0x3eb17218 ? (hu < 0x3f851592 ? I{} - 1 : nearest)
                              : I{};
  const F kf = __builtin_convertvector(k, F);
  const F hi = u - kf * kLn2Hi;  // exact
  const F lo = kf * kLn2Lo;
  const F r = hi - lo;
  const F c = (hi - r) - lo;

  const F hfx = 0.5f * r;
  const F hxs = r * hfx;
  const F r1 =
      one + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const F t = 3.0f - r1 * hfx;
  const F e = hxs * ((r1 - t) / (6.0f - r * t));
  const F at_k0 = r - (r * e - hxs);
  const F ek = (r * (e - c) - c) - hxs;
  const F at_km1 = 0.5f * (r - ek) - 0.5f;
  // The other k scale y by 2^k through its exponent field: y is
  // exp(r - c) - 2^-k, or exp(r - c) for k <= -2 and k > 56, which
  // subtract 1 after scaling.
  const F two_mk = (F)((U)(127 - k) << 23);
  const I wide = (U)(k + 1) > 57u;  // k <= -2 or k > 56
  const F y_low = (wide ? one : one - two_mk) - (ek - r);
  const F y_high = (r - (ek + two_mk)) + one;
  const F y = (U)(k - 23) <= 33u ? y_high : y_low;  // 23 <= k <= 56
  const F scaled = (F)((U)y + ((U)k << 23));
  const F at_k = wide ? scaled - one : scaled;
  const F expm1 = hu < 0x33000000 ? u  // |u| < 2^-25 returns u
                  : k == 0        ? at_k0
                  : k == -1       ? at_km1
                                  : at_k;

  // tanhf with t = expm1f(u): 1 - 2 / (t + 2) for |x| >= 1, else
  // -t / (t + 2), both >= +0, then the sign of x. Its |x| < 2^-55 arm
  // returns x * (1 + x) == x, which the second quotient also gives there:
  // t == -2|x| and t + 2 == 2.
  const F q = (big ? two : -expm1) / (expm1 + two);
  const F z = big ? one - q : q;
  const F tanh = (F)((U)z | sign);
  x = x != x ? x + x : tanh;  // NaN: tanhf's 1/x +- 1 is x + x's bits
}

template <typename F, typename I, typename U>
__attribute__((always_inline)) inline void TanhSpan(float* data,
                                                    std::size_t n) {
  constexpr std::size_t kLanes = sizeof(F) / sizeof(float);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    F x;
    std::memcpy(&x, data + i, sizeof(F));
    TanhLanes<F, I, U>(x);
    std::memcpy(data + i, &x, sizeof(F));
  }
  if (i < n) {  // the tail runs in a zero-padded vector
    F x{};
    std::memcpy(&x, data + i, (n - i) * sizeof(float));
    TanhLanes<F, I, U>(x);
    std::memcpy(data + i, &x, (n - i) * sizeof(float));
  }
}

typedef float TanhF4 __attribute__((vector_size(4 * sizeof(float))));
typedef std::int32_t TanhI4 __attribute__((vector_size(4 * sizeof(float))));
typedef std::uint32_t TanhU4 __attribute__((vector_size(4 * sizeof(float))));

void TanhGeneric(float* data, std::size_t n) {
  TanhSpan<TanhF4, TanhI4, TanhU4>(data, n);
}

#if defined(__x86_64__) || defined(__i386__)
typedef float TanhF8 __attribute__((vector_size(8 * sizeof(float))));
typedef std::int32_t TanhI8 __attribute__((vector_size(8 * sizeof(float))));
typedef std::uint32_t TanhU8 __attribute__((vector_size(8 * sizeof(float))));
typedef float TanhF16 __attribute__((vector_size(16 * sizeof(float))));
typedef std::int32_t TanhI16 __attribute__((vector_size(16 * sizeof(float))));
typedef std::uint32_t TanhU16
    __attribute__((vector_size(16 * sizeof(float))));

__attribute__((target("avx2"))) void TanhAvx2(float* data, std::size_t n) {
  TanhSpan<TanhF8, TanhI8, TanhU8>(data, n);
}

__attribute__((target("avx512f"), optimize("fp-contract=off"))) void
TanhAvx512(float* data, std::size_t n) {
  TanhSpan<TanhF16, TanhI16, TanhU16>(data, n);
}
#endif  // x86

void RunTanh([[maybe_unused]] GemmIsa isa, float* data, std::size_t n) {
#if defined(__x86_64__) || defined(__i386__)
  if (isa == GemmIsa::kAvx512) return TanhAvx512(data, n);
  if (isa == GemmIsa::kAvx2) return TanhAvx2(data, n);
#endif
  TanhGeneric(data, n);
}

}  // namespace

void TanhInPlace(float* data, std::size_t n) { RunTanh(Isa(), data, n); }

namespace internal {

void TanhInPlaceAtTier(float* data, std::size_t n, GemmIsa isa) {
  RequireTier(isa);
  RunTanh(isa, data, n);
}

std::vector<GemmIsa> SupportedGemmIsas() {
  std::vector<GemmIsa> tiers;
  for (int t = 0; t <= static_cast<int>(Isa()); ++t) {
    tiers.push_back(static_cast<GemmIsa>(t));
  }
  return tiers;
}

Tensor BlockedMatMul(const Tensor& a, const Tensor& b, GemmIsa isa) {
  RequireTier(isa);
  return RunMatMul(a, b, isa);
}

Tensor BlockedMatMulTransposedB(const Tensor& a, const Tensor& b,
                                GemmIsa isa) {
  RequireTier(isa);
  return RunMatMulTransposedB(a, b, isa);
}

Tensor BlockedMatMulTransposedA(const Tensor& a, const Tensor& b,
                                GemmIsa isa) {
  RequireTier(isa);
  return RunMatMulTransposedA(a, b, isa);
}

}  // namespace internal

}  // namespace agsc::nn
