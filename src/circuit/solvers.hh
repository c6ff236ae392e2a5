/**
 * @file
 * Linear solvers for the crossbar circuit simulation: the Thomas
 * algorithm for the tridiagonal wordline and bitline systems that both
 * the full MNA and the fast sneak-path model solve, and dense Gaussian
 * elimination as a validation reference.
 */

#ifndef LADDER_CIRCUIT_SOLVERS_HH
#define LADDER_CIRCUIT_SOLVERS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ladder
{

/**
 * Nonlinear-solve effort a TimingModel carries for the fast-model
 * solves that built it, exported as the `solver` block of stats.json.
 * Only integer sums are kept, so a model's totals do not depend on how
 * its build was parallelized.
 */
struct SolverCounters
{
    std::uint64_t solves = 0;
    std::uint64_t iterations = 0;
    std::uint64_t stalls = 0; //!< solves that did not converge

    /** Count one nonlinear solve. */
    void
    note(std::size_t solveIterations, bool converged)
    {
        ++solves;
        iterations += solveIterations;
        stalls += converged ? 0 : 1;
    }

    SolverCounters &
    operator+=(const SolverCounters &other)
    {
        solves += other.solves;
        iterations += other.iterations;
        stalls += other.stalls;
        return *this;
    }
};

/**
 * Solve a dense system by Gaussian elimination with partial pivoting.
 * Intended for validation on small systems only (O(n^3)).
 *
 * @param dense Row-major n x n matrix (modified in place).
 * @param b Right-hand side (modified in place; becomes the solution).
 */
void denseSolveInPlace(std::vector<double> &dense,
                       std::vector<double> &b,
                       std::size_t n);

/**
 * Solve a tridiagonal system with the Thomas algorithm.
 *
 * diag/rhs are modified in place; the solution is returned in rhs.
 * sub[i] couples row i to i-1 (sub[0] unused); sup[i] couples row i to
 * i+1 (sup[n-1] unused).
 */
void solveTridiagonal(std::vector<double> &sub,
                      std::vector<double> &diag,
                      std::vector<double> &sup,
                      std::vector<double> &rhs);

} // namespace ladder

#endif // LADDER_CIRCUIT_SOLVERS_HH
