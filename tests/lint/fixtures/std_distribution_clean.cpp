// vdlint fixture: a stats::Rng variate and a project name that merely ends
// in _distribution — vdl-std-distribution stays quiet.
#include "stats/rng.h"

struct class_distribution {
  double share = 0.0;
};

double owned_normal(vdbench::stats::Rng& rng) {
  return rng.normal(0.0, 1.0);
}
