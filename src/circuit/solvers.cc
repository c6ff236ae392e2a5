#include "solvers.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "common/profiler.hh"

namespace ladder
{

namespace
{

double
dot(const std::vector<double> &a, const std::vector<double> &b)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += a[i] * b[i];
    return acc;
}

double
norm2(const std::vector<double> &a)
{
    return std::sqrt(dot(a, a));
}

} // anonymous namespace

CgResult
conjugateGradient(const SparseMatrix &a, const std::vector<double> &b,
                  std::vector<double> &x, double tol,
                  std::size_t maxIter)
{
    PROF_SCOPE("cg_solve");
    const std::size_t n = a.size();
    ladder_assert(b.size() == n, "cg: rhs dimension mismatch");
    if (x.size() != n)
        x.assign(n, 0.0);
    if (maxIter == 0)
        maxIter = 10 * n + 100;

    std::vector<double> diag = a.diagonal();
    std::vector<double> invDiag(n);
    for (std::size_t i = 0; i < n; ++i)
        invDiag[i] = diag[i] != 0.0 ? 1.0 / diag[i] : 1.0;

    std::vector<double> r(n), z(n), p(n), ap(n);
    a.multiply(x, ap);
    for (std::size_t i = 0; i < n; ++i)
        r[i] = b[i] - ap[i];

    const double bNorm = norm2(b);
    const double target = tol * (bNorm > 0.0 ? bNorm : 1.0);

    CgResult result;
    double rNorm = norm2(r);
    if (rNorm <= target) {
        result.converged = true;
        result.residualNorm = rNorm;
        return result;
    }

    for (std::size_t i = 0; i < n; ++i)
        z[i] = invDiag[i] * r[i];
    p = z;
    double rz = dot(r, z);

    for (std::size_t iter = 0; iter < maxIter; ++iter) {
        a.multiply(p, ap);
        double pap = dot(p, ap);
        if (pap <= 0.0) {
            // Not SPD (or breakdown); bail with current iterate.
            break;
        }
        double alpha = rz / pap;
        for (std::size_t i = 0; i < n; ++i) {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        rNorm = norm2(r);
        result.iterations = iter + 1;
        if (rNorm <= target) {
            result.converged = true;
            break;
        }
        for (std::size_t i = 0; i < n; ++i)
            z[i] = invDiag[i] * r[i];
        double rzNew = dot(r, z);
        double beta = rzNew / rz;
        rz = rzNew;
        for (std::size_t i = 0; i < n; ++i)
            p[i] = z[i] + beta * p[i];
    }
    result.residualNorm = rNorm;
    return result;
}

void
denseSolveInPlace(std::vector<double> &dense, std::vector<double> &b,
                  std::size_t n)
{
    ladder_assert(dense.size() == n * n && b.size() == n,
                  "denseSolve: dimension mismatch");
    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivoting.
        std::size_t pivot = col;
        double best = std::abs(dense[col * n + col]);
        for (std::size_t r = col + 1; r < n; ++r) {
            double v = std::abs(dense[r * n + col]);
            if (v > best) {
                best = v;
                pivot = r;
            }
        }
        ladder_assert(best > 0.0, "denseSolve: singular matrix");
        if (pivot != col) {
            for (std::size_t c = 0; c < n; ++c)
                std::swap(dense[col * n + c], dense[pivot * n + c]);
            std::swap(b[col], b[pivot]);
        }
        double inv = 1.0 / dense[col * n + col];
        for (std::size_t r = col + 1; r < n; ++r) {
            double factor = dense[r * n + col] * inv;
            if (factor == 0.0)
                continue;
            dense[r * n + col] = 0.0;
            for (std::size_t c = col + 1; c < n; ++c)
                dense[r * n + c] -= factor * dense[col * n + c];
            b[r] -= factor * b[col];
        }
    }
    for (std::size_t ri = n; ri-- > 0;) {
        double acc = b[ri];
        for (std::size_t c = ri + 1; c < n; ++c)
            acc -= dense[ri * n + c] * b[c];
        b[ri] = acc / dense[ri * n + ri];
    }
}

void
solveTridiagonal(std::vector<double> &sub, std::vector<double> &diag,
                 std::vector<double> &sup, std::vector<double> &rhs)
{
    const std::size_t n = diag.size();
    ladder_assert(sub.size() == n && sup.size() == n && rhs.size() == n,
                  "tridiag: dimension mismatch");
    for (std::size_t i = 1; i < n; ++i) {
        double w = sub[i] / diag[i - 1];
        diag[i] -= w * sup[i - 1];
        rhs[i] -= w * rhs[i - 1];
    }
    rhs[n - 1] /= diag[n - 1];
    for (std::size_t i = n - 1; i-- > 0;)
        rhs[i] = (rhs[i] - sup[i] * rhs[i + 1]) / diag[i];
}

} // namespace ladder
