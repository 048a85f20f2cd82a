"""Statistics helpers shared by run.py and steadiness.py.

Percentiles use the nearest-rank rule and refuse to report a percentile
with fewer than MIN_BEYOND samples above it. Quartiles follow Python's
statistics.quantiles(values, n=4), the same definition used to judge the
benchmark's run-to-run spread.
"""

import math
import re
import statistics

MIN_BEYOND = 10
# Share of window values trimmed_mean drops at each end.
TRIM = 0.1

# A metric name: starts with a letter or digit, then up to 63 more letters,
# digits, '_', '.' or '-'.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# A unit: up to 16 letters, digits, '_', '/', '%', '.' or '-'.
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class NotEnoughSamples(ValueError):
    pass


def valid_name(name):
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and _UNIT.fullmatch(unit) is not None


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-th percentile (0 < q <= 100).

    Raises NotEnoughSamples unless at least `min_beyond` samples lie beyond
    the selected one.
    """
    if not 0 < q <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        raise NotEnoughSamples(
            "p%g of %d samples has %d beyond it; need %d"
            % (q, n, max(0, n - rank), min_beyond))
    return ordered[rank - 1]


def min_samples(q, min_beyond=MIN_BEYOND):
    """Smallest sample count for which percentile(values, q) succeeds."""
    n = min_beyond + 1
    while n - max(1, math.ceil(q / 100.0 * n)) < min_beyond:
        n += 1
    return n


def window_count(n, q, max_windows=20, min_beyond=MIN_BEYOND):
    """Windows window_percentiles uses for n samples: as many as allow
    every window its percentile, at most max_windows, at least 1."""
    return max(1, min(max_windows, n // min_samples(q, min_beyond)))


def window_percentiles(values, q, max_windows=20, min_beyond=MIN_BEYOND):
    """The q-th percentile of each of window_count() contiguous windows.

    `values` must be in completion order; windows hold equal counts, and
    one window is the plain percentile.
    """
    k = window_count(len(values), q, max_windows, min_beyond)
    n = len(values)
    bounds = [n * i // k for i in range(k + 1)]
    return [percentile(values[bounds[i]:bounds[i + 1]], q, min_beyond)
            for i in range(k)]


def window_rates(times, duration, windows=20):
    """Events per second in each of `windows` equal time windows.

    `times` are event times in [0, duration].
    """
    counts = [0] * windows
    for t in times:
        counts[min(windows - 1, int(t / duration * windows))] += 1
    return [c * windows / duration for c in counts]


def trimmed_mean(values):
    """Mean of `values` without the lowest and highest TRIM share.

    Over the windows of a run this averages the machine's slow and fast
    stretches within the run, while one stalled or outlying window cannot
    move the result.
    """
    ordered = sorted(values)
    k = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[k:len(ordered) - k])


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if second == first else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


class Ratio:
    """A ratio that remembers its base, so reports can show both."""

    def __init__(self, part, base):
        self.part = part
        self.base = base

    @property
    def value(self):
        return self.part / self.base if self.base else 0.0

    def __str__(self):
        return "%.6g (%g of %g)" % (self.value, self.part, self.base)
