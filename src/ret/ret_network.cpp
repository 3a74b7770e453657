#include "ret/ret_network.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "rng/distributions.h"

namespace rsu::ret {

ExponentialNetwork::ExponentialNetwork(double base_rate_per_ns,
                                       WearModel wear)
    : base_rate_(base_rate_per_ns), wear_(wear)
{
    if (base_rate_ <= 0.0)
        throw std::invalid_argument("ExponentialNetwork: base rate "
                                    "must be positive");
}

void
ExponentialNetwork::refresh()
{
    surviving_ = 1.0;
}

void
ExponentialNetwork::age(uint64_t cycles)
{
    cycles_ += cycles;
    const double bleach = wear_.effectiveBleach();
    if (bleach > 0.0) {
        surviving_ *= std::pow(1.0 - bleach,
                               static_cast<double>(cycles));
    }
}

PhaseTypeNetwork::PhaseTypeNetwork(
    std::vector<std::vector<double>> rates, int initial_state)
    : rates_(std::move(rates)), initial_state_(initial_state)
{
    const int n = static_cast<int>(rates_.size());
    if (n == 0)
        throw std::invalid_argument("PhaseTypeNetwork: empty");
    if (initial_state_ < 0 || initial_state_ >= n)
        throw std::invalid_argument("PhaseTypeNetwork: bad initial "
                                    "state");
    for (const auto &row : rates_) {
        if (static_cast<int>(row.size()) != n + 1)
            throw std::invalid_argument("PhaseTypeNetwork: each row "
                                        "needs size() + 1 entries");
        for (double r : row) {
            if (r < 0.0)
                throw std::invalid_argument("PhaseTypeNetwork: "
                                            "negative rate");
        }
    }
}

double
PhaseTypeNetwork::sampleTtf(rsu::rng::Xoshiro256 &rng,
                            double intensity) const
{
    const int n = size();
    int state = initial_state_;
    double t = 0.0;
    bool first_hop = true;
    for (;;) {
        const auto &row = rates_[state];
        double total = 0.0;
        for (int j = 0; j <= n; ++j) {
            if (j != state)
                total += row[j];
        }
        if (total <= 0.0) {
            // Dark trap state: the excitation decays non-radiatively.
            return std::numeric_limits<double>::infinity();
        }
        // Excitation of the entry state is intensity-gated; hops
        // inside the network proceed at their geometric rates.
        const double hop_rate =
            first_hop ? total * intensity : total;
        if (hop_rate <= 0.0)
            return std::numeric_limits<double>::infinity();
        t += rsu::rng::sampleExponential(rng, hop_rate);
        first_hop = false;

        // Pick the destination proportional to the rates.
        double u = rng.uniform() * total;
        int next = n;
        for (int j = 0; j <= n; ++j) {
            if (j == state)
                continue;
            u -= row[j];
            if (u < 0.0) {
                next = j;
                break;
            }
        }
        if (next == n)
            return t; // absorbed: photon emitted
        state = next;
    }
}

double
PhaseTypeNetwork::meanTtf() const
{
    // Solve (I - P) m = h where m[i] is the mean absorption time from
    // state i, h[i] the mean holding time, and P the jump matrix.
    // Gaussian elimination on the small dense system.
    const int n = size();
    std::vector<std::vector<double>> a(n, std::vector<double>(n + 1));
    for (int i = 0; i < n; ++i) {
        double total = 0.0;
        for (int j = 0; j <= n; ++j) {
            if (j != i)
                total += rates_[i][j];
        }
        if (total <= 0.0)
            return std::numeric_limits<double>::infinity();
        for (int j = 0; j < n; ++j) {
            const double p =
                (j == i) ? 0.0 : rates_[i][j] / total;
            a[i][j] = (i == j ? 1.0 : 0.0) - p;
        }
        a[i][n] = 1.0 / total;
    }
    // Forward elimination with partial pivoting.
    for (int col = 0; col < n; ++col) {
        int pivot = col;
        for (int r = col + 1; r < n; ++r) {
            if (std::abs(a[r][col]) > std::abs(a[pivot][col]))
                pivot = r;
        }
        std::swap(a[col], a[pivot]);
        if (std::abs(a[col][col]) < 1e-15)
            return std::numeric_limits<double>::infinity();
        for (int r = 0; r < n; ++r) {
            if (r == col)
                continue;
            const double f = a[r][col] / a[col][col];
            for (int j = col; j <= n; ++j)
                a[r][j] -= f * a[col][j];
        }
    }
    return a[initial_state_][n] / a[initial_state_][initial_state_];
}

PhaseTypeNetwork
PhaseTypeNetwork::makeErlang(int k, double rate)
{
    if (k < 1 || rate <= 0.0)
        throw std::invalid_argument("makeErlang: bad parameters");
    std::vector<std::vector<double>> rates(
        k, std::vector<double>(k + 1, 0.0));
    for (int i = 0; i < k; ++i)
        rates[i][i + 1] = rate; // last hop lands on index k: absorb
    return PhaseTypeNetwork(std::move(rates), 0);
}

PhaseTypeNetwork
PhaseTypeNetwork::makeBernoulli(double bright_rate, double dark_rate)
{
    if (bright_rate < 0.0 || dark_rate < 0.0 ||
        bright_rate + dark_rate <= 0.0) {
        throw std::invalid_argument("makeBernoulli: bad rates");
    }
    // State 0 races toward absorption (bright) or the trap state 1.
    std::vector<std::vector<double>> rates(
        2, std::vector<double>(3, 0.0));
    rates[0][2] = bright_rate;
    rates[0][1] = dark_rate;
    // State 1 has no exits: dark trap.
    return PhaseTypeNetwork(std::move(rates), 0);
}

} // namespace rsu::ret
