#include "solvers.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace ladder
{

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
