"""Answers the benchmark checks every item against.

Each table names its source.  None of them is computed by the feaslab code
under test: the numbers are closed forms or constants frozen in the test
suite, and the matrix powers use plain integer arithmetic written here.
"""

# Generated line counts, slope * n + intercept.  Source: acceptance
# criterion 02 (tests/test_acceptance.py), which pins them for n >= 2; the
# small-n sweeps of tests/test_generators.py extend them to n = 0 and 1.
AFFINE_LINES = {
    "unary": (2, 1),
    "geometric": (8, -3),
    "square-cut": (10, 5),
    "quantifier": (15, 17),
    "group-power-linear": (4, -3),
    "group-power-squaring": (3, 1),
    "group-power-quantifier": (11, 9),
    "distorted": (6, 11),
    "matrix-power-squaring": (39, 15),
    "matrix-power-quantifier": (22, 65),
    "rational-orbit": (39, 34),
}

# The two stages where tests/test_generators.py pins a count off the line.
LINE_SPECIALS = {
    ("group-power-linear", 0): 1,
    ("distorted", 0): 15,
}


def generated_lines(family: str, n: int) -> int:
    special = LINE_SPECIALS.get((family, n))
    if special is not None:
        return special
    slope, intercept = AFFINE_LINES[family]
    return slope * n + intercept


# Cut-free line counts.  Sources: the closed forms in the module docstring
# of tests/test_cutelim.py and its golden tables (square-cut 3, 9, 21, 45
# is acceptance criterion 04); quantifier has no closed form and is frozen
# stage by stage in test_quantifier_blowup_table.
_QUANTIFIER_CUT_FREE = {0: 9, 1: 23, 2: 105, 3: 1739}


def cut_free_lines(family: str, n: int):
    """Exact cut-free line count, or None where no independent answer exists."""
    if family == "square-cut":
        return 3 * 2 ** (n + 1) - 3
    if family == "group-power-squaring":
        return 2 ** (n + 1) - 1
    if family == "distorted":
        return 8 if n == 0 else 2 ** (n + 2) + 2
    if family == "group-power-quantifier":
        return 2 ** (2**n + 1) - 1
    if family == "quantifier":
        return _QUANTIFIER_CUT_FREE.get(n)
    return None


# Advertised values, over the ranges of acceptance criterion 03.
VALUE_RANGES = {
    "square-cut": range(0, 7),
    "distorted": range(0, 6),
    "matrix-power-squaring": range(0, 11),
}

FIB = (2, 1, 1, 1)


def _mat_mul(p, q):
    return (
        p[0] * q[0] + p[1] * q[2],
        p[0] * q[1] + p[1] * q[3],
        p[2] * q[0] + p[3] * q[2],
        p[2] * q[1] + p[3] * q[3],
    )


def fib_power_2n(n: int) -> tuple:
    """Entries (a, b, c, d) of (2 1; 1 1)^(2^n) by n integer squarings."""
    m = FIB
    for _ in range(n):
        m = _mat_mul(m, m)
    return m


# Flow graphs are built up to these stages; beyond them the tree expansion
# explodes (matrix-power squaring n=8 alone takes about 10 s).
FLOW_CAPS = {
    "unary": 20,
    "geometric": 20,
    "square-cut": 20,
    "group-power-linear": 20,
    "group-power-squaring": 12,
    "distorted": 12,
    "quantifier": 6,
    "matrix-power-squaring": 5,
    "rational-orbit": 5,
    "group-power-quantifier": 4,
    "matrix-power-quantifier": 2,
}


def flow_cycles(family: str, n: int):
    """Known cycle count (acceptance criterion 08), or None."""
    if family == "unary":
        return 0
    if family == "square-cut":
        return 2 * n
    return None


# Oracle goldens, from tests/test_oracle.py.
MIN_LINES = [1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 10, 11, 10, 11, 12, 11, 11]
DISTORTION = {
    "proof_lines": [15, 17, 23, 29],
    "normal_form": ["(2, 0)", "(4, 0)", "(16, 0)", "(256, 0)"],
    "conjugated_length": [3, 5, 9, 17],
    "word_distance": [2, 4, 8, 16],
}
