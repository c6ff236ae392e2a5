/** @file Tests for the linear solvers (dense, tridiagonal). */

#include <gtest/gtest.h>

#include "circuit/solvers.hh"
#include "common/rng.hh"

namespace ladder
{
namespace
{

TEST(DenseSolve, PivotingHandlesZeroDiagonal)
{
    // [[0 1],[1 0]] x = [2, 3] -> x = [3, 2]
    std::vector<double> a = {0, 1, 1, 0};
    std::vector<double> b = {2, 3};
    denseSolveInPlace(a, b, 2);
    EXPECT_NEAR(b[0], 3.0, 1e-12);
    EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(Tridiagonal, MatchesDense)
{
    Rng rng(7);
    const std::size_t n = 30;
    std::vector<double> sub(n), diag(n), sup(n), rhs(n);
    for (std::size_t i = 0; i < n; ++i) {
        sub[i] = i ? -(0.5 + rng.nextDouble()) : 0.0;
        sup[i] = i + 1 < n ? -(0.5 + rng.nextDouble()) : 0.0;
        diag[i] = 4.0 + rng.nextDouble();
        rhs[i] = rng.nextDouble() * 2.0 - 1.0;
    }
    // Dense reference.
    std::vector<double> dense(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        dense[i * n + i] = diag[i];
        if (i)
            dense[i * n + i - 1] = sub[i];
        if (i + 1 < n)
            dense[i * n + i + 1] = sup[i];
    }
    std::vector<double> ref = rhs;
    denseSolveInPlace(dense, ref, n);

    std::vector<double> x = rhs;
    solveTridiagonal(sub, diag, sup, x);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x[i], ref[i], 1e-9);
}

TEST(Tridiagonal, SingleElement)
{
    std::vector<double> sub{0.0}, diag{2.0}, sup{0.0}, rhs{6.0};
    solveTridiagonal(sub, diag, sup, rhs);
    EXPECT_DOUBLE_EQ(rhs[0], 3.0);
}

} // namespace
} // namespace ladder
