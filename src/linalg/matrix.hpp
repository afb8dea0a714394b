// Dense row-major matrix and vector helpers.
//
// libtomo's linear systems are small by numerical-linear-algebra standards
// (a few thousand unknowns), so a straightforward dense implementation with
// careful algorithms (Householder QR, Lawson-Hanson NNLS, simplex) is both
// sufficient and dependency-free.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace tomo::linalg {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols);

  /// Construction from nested initializer lists (rows of equal width).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Raw pointer to the start of row r (row-major storage).
  double* row_data(std::size_t r);
  const double* row_data(std::size_t r) const;

  /// Appends a row; its size must equal cols() (or define cols if empty).
  void append_row(const Vector& row);

  Matrix transposed() const;

  /// y = A x.
  Vector multiply(const Vector& x) const;

  /// y = A^T x.
  Vector multiply_transposed(const Vector& x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm.
double norm2(const Vector& v);

/// L1 norm.
double norm1(const Vector& v);

/// Max-abs norm.
double norm_inf(const Vector& v);

/// Dot product; sizes must match.
double dot(const Vector& a, const Vector& b);

/// Residual b - A x.
Vector residual(const Matrix& a, const Vector& x, const Vector& b);

}  // namespace tomo::linalg
