#include "linalg/matrix.hpp"

#include <cmath>

#include "util/error.hpp"

namespace tomo::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  for (const auto& row : rows) {
    append_row(Vector(row));
  }
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  TOMO_ASSERT(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  TOMO_ASSERT(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double* Matrix::row_data(std::size_t r) {
  TOMO_ASSERT(r < rows_);
  return data_.data() + r * cols_;
}

const double* Matrix::row_data(std::size_t r) const {
  TOMO_ASSERT(r < rows_);
  return data_.data() + r * cols_;
}

void Matrix::append_row(const Vector& row) {
  if (rows_ == 0 && cols_ == 0) {
    cols_ = row.size();
  }
  TOMO_REQUIRE(row.size() == cols_, "appending a row of mismatched width");
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

Vector Matrix::multiply(const Vector& x) const {
  TOMO_REQUIRE(x.size() == cols_, "matrix-vector size mismatch");
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = row_data(r);
    double sum = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
      sum += row[c] * x[c];
    }
    y[r] = sum;
  }
  return y;
}

Vector Matrix::multiply_transposed(const Vector& x) const {
  TOMO_REQUIRE(x.size() == rows_, "matrix^T-vector size mismatch");
  Vector y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = row_data(r);
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) {
      y[c] += row[c] * xr;
    }
  }
  return y;
}

double norm2(const Vector& v) {
  double sum = 0.0;
  for (double x : v) sum += x * x;
  return std::sqrt(sum);
}

double norm1(const Vector& v) {
  double sum = 0.0;
  for (double x : v) sum += std::abs(x);
  return sum;
}

double norm_inf(const Vector& v) {
  double best = 0.0;
  for (double x : v) best = std::max(best, std::abs(x));
  return best;
}

double dot(const Vector& a, const Vector& b) {
  TOMO_REQUIRE(a.size() == b.size(), "dot-product size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

Vector residual(const Matrix& a, const Vector& x, const Vector& b) {
  TOMO_REQUIRE(b.size() == a.rows(), "residual size mismatch");
  Vector ax = a.multiply(x);
  Vector r(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) r[i] = b[i] - ax[i];
  return r;
}

}  // namespace tomo::linalg
