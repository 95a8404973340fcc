// Linear system and least-squares solvers.
//
// The trajectory fitter (Sec. 3.2 of the paper, Eq. 1-2) solves an
// overdetermined Vandermonde system by Householder QR. The
// normal-equations path (Cholesky) is kept as the reference the QR
// solver is tested against.

#ifndef MIVID_LINALG_SOLVE_H_
#define MIVID_LINALG_SOLVE_H_

#include "common/status.h"
#include "linalg/matrix.h"

namespace mivid {

/// Cholesky factorization A = L L^T of a symmetric positive-definite matrix.
/// Returns the lower-triangular factor, or InvalidArgument if A is not SPD
/// (within a small tolerance).
Result<Matrix> CholeskyFactor(const Matrix& a);

/// Solves A x = b for SPD A via Cholesky.
Result<Vec> CholeskySolve(const Matrix& a, const Vec& b);

/// Least-squares solution of min |A x - b|_2 via Householder QR.
/// Requires rows >= cols and full column rank.
Result<Vec> LeastSquaresQR(const Matrix& a, const Vec& b);

/// Least-squares via normal equations (A^T A) x = A^T b with Cholesky.
/// Faster but squares the condition number; fine for low-degree fits.
Result<Vec> LeastSquaresNormal(const Matrix& a, const Vec& b);

}  // namespace mivid

#endif  // MIVID_LINALG_SOLVE_H_
