#include "stats/special_functions.h"

#include <cassert>
#include <cmath>
#include <math.h>  // lgamma_r (POSIX)

namespace aqp {
namespace stats {

namespace {

// std::lgamma stores the sign of Γ(x) in the global `signgam`, a data
// race when concurrent queries run their binomial tests; lgamma_r
// returns the same value and writes the sign to a local instead.
double LogGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

double LogBeta(double a, double b) {
  assert(a > 0 && b > 0);
  return LogGamma(a) + LogGamma(b) - LogGamma(a + b);
}

double LogBinomialCoefficient(unsigned long long n, unsigned long long k) {
  assert(k <= n);
  return LogGamma(static_cast<double>(n) + 1.0) -
         LogGamma(static_cast<double>(k) + 1.0) -
         LogGamma(static_cast<double>(n - k) + 1.0);
}

namespace {

/// Continued-fraction kernel for the incomplete beta function
/// (Numerical Recipes "betacf", modified Lentz algorithm).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIterations = 500;
  constexpr double kEpsilon = 1e-15;
  constexpr double kFloor = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFloor) d = kFloor;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFloor) d = kFloor;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFloor) c = kFloor;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFloor) d = kFloor;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFloor) c = kFloor;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return h;
}

}  // namespace

double RegularizedIncompleteBeta(double a, double b, double x) {
  assert(a > 0 && b > 0);
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double log_front =
      a * std::log(x) + b * std::log1p(-x) - LogBeta(a, b);
  const double front = std::exp(log_front);
  // Use the expansion that converges fast for the given x.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

}  // namespace stats
}  // namespace aqp
