// vdlint fixture: a standard-library distribution — must fire
// vdl-std-distribution.
#include <random>

double library_normal(std::mt19937_64& engine) {
  return std::normal_distribution<double>(0.0, 1.0)(engine);
}
