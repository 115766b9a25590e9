#!/usr/bin/env python3
"""Recompute stats::Rng's golden vectors without the C++ code.

    python3 tests/support/rng_golden.py > tests/stats/rng_golden_vectors.h

The script implements std::mt19937_64 from the standard's parameters and
every Rng variate from the formulas documented in src/stats/rng.h, then
prints the first 16 outputs of each method for three seeds as a C++ header
that RngGoldenTest compares against. The doubles print as hex literals, so
the comparison is exact. Python's floats are IEEE doubles and its math.log,
math.sqrt and math.exp call the platform libm, as the C++ code does.
"""

import math
import sys

MASK = (1 << 64) - 1
SEEDS = (5489, 20150622, MASK)
COUNT = 16


class MT19937_64:
    """std::mt19937_64: w=64, n=312, m=156, r=31 and the standard's constants."""

    N, M = 312, 156
    UPPER, LOWER = 0xFFFFFFFF80000000, 0x7FFFFFFF

    def __init__(self, seed=5489):
        self.state = [seed & MASK]
        for i in range(1, self.N):
            prev = self.state[-1]
            self.state.append((6364136223846793005 * (prev ^ (prev >> 62)) + i) & MASK)
        self.index = self.N

    def twist(self):
        mt = self.state
        for i in range(self.N):
            y = (mt[i] & self.UPPER) | (mt[(i + 1) % self.N] & self.LOWER)
            mt[i] = mt[(i + self.M) % self.N] ^ (y >> 1) ^ (0xB5026F5AA96619E9 if y & 1 else 0)
        self.index = 0

    def __call__(self):
        if self.index >= self.N:
            self.twist()
        y = self.state[self.index]
        self.index += 1
        y ^= (y >> 29) & 0x5555555555555555
        y ^= (y << 17) & 0x71D67FFFEDA60000
        y ^= (y << 37) & 0xFFF7EEE000000000
        y ^= y >> 43
        return y & MASK


class Rng:
    """The formulas of src/stats/rng.cpp over raw engine output."""

    def __init__(self, seed):
        self.engine = MT19937_64(seed)

    def uniform(self, lo=None, hi=None):
        u = float(self.engine() >> 11) * 2.0 ** -53
        if lo is None:
            return u
        x = u * (hi - lo) + lo
        return x if x < hi else math.nextafter(hi, lo)

    def below(self, span):
        product = self.engine() * span
        if product & MASK < span:
            threshold = (-span & MASK) % span
            while product & MASK < threshold:
                product = self.engine() * span
        return product >> 64

    def uniform_int(self, lo, hi):
        span = (hi - lo) & MASK
        offset = self.engine() if span == MASK else self.below(span + 1)
        value = (lo + offset) & MASK
        return value - (1 << 64) if value >> 63 else value

    def bernoulli(self, p):
        return self.uniform() < min(max(p, 0.0), 1.0)

    def normal(self, mean, sd):
        while True:
            x = 2.0 * self.uniform() - 1.0
            y = 2.0 * self.uniform() - 1.0
            r2 = x * x + y * y
            if not (r2 > 1.0 or r2 == 0.0):
                break
        m = math.sqrt(-2.0 * math.log(r2) / r2)
        return (y * m) * sd + mean

    def lognormal(self, mu, sigma):
        return math.exp(self.normal(mu, sigma))

    def binomial(self, n, p):
        return sum(1 for _ in range(n) if self.uniform() < p)

    def categorical(self, weights):
        x = self.uniform() * sum(weights)
        for i, w in enumerate(weights):
            x -= w
            if x < 0.0:
                return i
        return len(weights) - 1

    def pick_index(self, size):
        return self.uniform_int(0, size - 1)

    def sample_without_replacement(self, n, k):
        indices = list(range(n))
        for i in range(k):
            j = i + self.pick_index(n - i)
            indices[i], indices[j] = indices[j], indices[i]
        return indices[:k]


# (C++ name, element type, one draw per call or None for a whole-call method)
TABLES = (
    ("kUniform", "double", lambda r: r.uniform()),
    ("kUniformRange", "double", lambda r: r.uniform(-2.0, 5.0)),
    ("kUniformIntSmall", "std::int64_t", lambda r: r.uniform_int(-3, 3)),
    ("kUniformIntPow62", "std::int64_t", lambda r: r.uniform_int(-(1 << 62), 1 << 62)),
    ("kUniformIntFull", "std::int64_t", lambda r: r.uniform_int(-(1 << 63), (1 << 63) - 1)),
    ("kBernoulli", "bool", lambda r: r.bernoulli(0.3)),
    ("kNormal", "double", lambda r: r.normal(10.0, 2.0)),
    ("kLognormal", "double", lambda r: r.lognormal(0.5, 0.75)),
    ("kBinomial", "std::uint64_t", lambda r: r.binomial(50, 0.4)),
    ("kBinomial1000", "std::uint64_t", lambda r: r.binomial(1000, 0.03)),
    ("kCategorical", "std::size_t", lambda r: r.categorical([0.0, 3.0, 1.0, 0.5])),
    ("kPickIndex", "std::size_t", lambda r: r.pick_index(10)),
    ("kSampleWithoutReplacement", "std::size_t", None),
)


def literal(ctype, value):
    if ctype == "double":
        return value.hex()
    if ctype == "bool":
        return "true" if value else "false"
    return str(value) if ctype == "std::int64_t" else f"{value}u"


def row(items, indent="    ", width=78):
    """One brace-enclosed row, wrapped to the repository's line width."""
    lines, line = [], indent + "{{"
    for i, item in enumerate(items):
        text = item + ("}}," if i == len(items) - 1 else ",")
        if len(line) + 1 + len(text) > width and line.strip() != "{{":
            lines.append(line)
            line = indent + "  " + text
        else:
            line += ("" if line.endswith("{{") else " ") + text
    lines.append(line)
    return lines


def main():
    check = MT19937_64()
    for _ in range(9999):
        check()
    if check() != 9981545732273789042:
        sys.exit("rng_golden.py: the engine misses the standard's check value")

    out = [
        "// Generated by tests/support/rng_golden.py; do not edit by hand.",
        "// The first 16 outputs of each stats::Rng method for the seeds in",
        "// kGoldenSeeds, each table drawn from a fresh Rng(seed).",
        "#pragma once",
        "",
        "#include <array>",
        "#include <cstddef>",
        "#include <cstdint>",
        "",
        "namespace vdbench::stats::golden {",
        "",
        "inline constexpr std::array<std::uint64_t, 3> kGoldenSeeds = {",
        "    " + ", ".join(f"{s}u" for s in SEEDS) + "};",
        "",
        "/// One row of the first outputs per seed in kGoldenSeeds.",
        "template <typename T>",
        f"using Table = std::array<std::array<T, {COUNT}>, 3>;",
    ]
    for name, ctype, draw in TABLES:
        out.append("")
        out.append(f"inline constexpr Table<{ctype}> {name} = {{{{")
        for seed in SEEDS:
            rng = Rng(seed)
            if draw is None:
                values = rng.sample_without_replacement(100, COUNT)
            else:
                values = [draw(rng) for _ in range(COUNT)]
            out += row([literal(ctype, v) for v in values])
        out.append("}};")
    out += ["", "}  // namespace vdbench::stats::golden", ""]
    sys.stdout.write("\n".join(out))


if __name__ == "__main__":
    main()
