"""Synthetic regression datasets: physics-equation benchmark + univariate targets.

The equation registry carries closed forms and per-variable sampling ranges
transcribed from the public Feynman symbolic-regression benchmark tables.
Variables are drawn uniformly over their declared ranges with numpy's
default PCG64 generator (one column per variable, in declared order), so a
seed pins a dataset bit-for-bit on any platform.

CSV files use one shared dialect everywhere in this package: comma
separated, "\\n" newlines, no quoting, floats printed with ``repr`` so they
round-trip exactly.  Datasets specifically use the header ``x1,...,xn,y``.

Every public entry checks its input by one of two rules: ``check_count``
for counts and seeds, ``finite_rows`` for rows, grids, samples and targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_N_SAMPLES = 3000
SPLIT_FRACTIONS = (0.70, 0.15, 0.15)


class CSVFormatError(ValueError):
    """CSV file malformed; message carries the offending row number."""


def check_count(name: str, v, least: int) -> None:
    """A count or seed: an int or numpy integer (a bool is not one) of at
    least ``least``; a ValueError naming ``name`` otherwise."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")


def finite_rows(values, what: str, width: int | None = None,
                single: bool = False) -> np.ndarray:
    """``values`` as float64 rows (B, width) from a row (width,) or rows, or
    with ``single`` a row as it is; ``width`` None takes any.  A ValueError
    naming ``what`` on any other shape or a non-finite value."""
    a = np.asarray(values, dtype=np.float64)
    if a.ndim not in ((1,) if single else (1, 2)) or width not in (None, a.shape[-1]):
        n = "n" if width is None else width
        want = f"({n},)" if single else f"({n},) or (B, {n})"
        raise ValueError(f"{what} must have shape {want}, got {a.shape}")
    # the method, not np.all: it skips numpy's Python wrapper, which is a
    # microsecond of every served row
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a if single else a.reshape(-1, a.shape[-1])


@dataclass(frozen=True)
class EquationDef:
    """One benchmark target: identifier, sampled variables, closed form."""

    id: str
    variables: tuple  # of (name, low, high)
    formula: str      # documentation string, python syntax
    fn: object        # vectorized evaluator, one array argument per variable
    group: str = "feynman"

    @property
    def arity(self) -> int:
        return len(self.variables)

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.arity:
            raise ValueError(
                f"{self.id} takes {self.arity} variables, got {X.shape[1]}")
        return np.asarray(self.fn(*(X[:, j] for j in range(self.arity))),
                          dtype=np.float64)


def _sinc_sq(u):
    # sin(u)^2 / u^2 with the removable singularity filled in
    return np.sinc(u / np.pi) ** 2


def _defs():
    pi = np.pi
    e = [
        EquationDef(
            "I.6.2", (("sigma", 1, 3), ("theta", 1, 3)),
            "exp(-(theta/sigma)**2/2) / (sqrt(2*pi)*sigma)",
            lambda sigma, theta: np.exp(-(theta / sigma) ** 2 / 2)
            / (np.sqrt(2 * pi) * sigma)),
        EquationDef(
            "I.6.2b", (("sigma", 1, 3), ("theta", 1, 3), ("theta1", 1, 3)),
            "exp(-((theta-theta1)/sigma)**2/2) / (sqrt(2*pi)*sigma)",
            lambda sigma, theta, theta1: np.exp(-((theta - theta1) / sigma) ** 2 / 2)
            / (np.sqrt(2 * pi) * sigma)),
        EquationDef(
            "I.9.18",
            (("m1", 1, 2), ("m2", 1, 2), ("G", 1, 2), ("x1", 3, 4), ("x2", 1, 2),
             ("y1", 3, 4), ("y2", 1, 2), ("z1", 3, 4), ("z2", 1, 2)),
            "G*m1*m2 / ((x2-x1)**2 + (y2-y1)**2 + (z2-z1)**2)",
            lambda m1, m2, G, x1, x2, y1, y2, z1, z2:
            G * m1 * m2 / ((x2 - x1) ** 2 + (y2 - y1) ** 2 + (z2 - z1) ** 2)),
        EquationDef(
            "I.12.11",
            (("q", 1, 5), ("Ef", 1, 5), ("B", 1, 5), ("v", 1, 5), ("theta", 1, 5)),
            "q*(Ef + B*v*sin(theta))",
            lambda q, Ef, B, v, theta: q * (Ef + B * v * np.sin(theta))),
        EquationDef(
            "I.13.12",
            (("m1", 1, 5), ("m2", 1, 5), ("r1", 1, 5), ("r2", 1, 5), ("G", 1, 5)),
            "G*m1*m2*(1/r2 - 1/r1)",
            lambda m1, m2, r1, r2, G: G * m1 * m2 * (1 / r2 - 1 / r1)),
        EquationDef(
            "I.15.3x",
            (("x", 5, 10), ("u", 1, 2), ("c", 3, 20), ("t", 1, 2)),
            "(x - u*t) / sqrt(1 - u**2/c**2)",
            lambda x, u, c, t: (x - u * t) / np.sqrt(1 - u**2 / c**2)),
        EquationDef(
            "I.16.6", (("c", 1, 5), ("v", 1, 5), ("u", 1, 5)),
            "(u + v) / (1 + u*v/c**2)",
            lambda c, v, u: (u + v) / (1 + u * v / c**2)),
        EquationDef(
            "I.18.4",
            (("m1", 1, 5), ("m2", 1, 5), ("r1", 1, 5), ("r2", 1, 5)),
            "(m1*r1 + m2*r2) / (m1 + m2)",
            lambda m1, m2, r1, r2: (m1 * r1 + m2 * r2) / (m1 + m2)),
        EquationDef(
            "I.26.2", (("n", 0, 1), ("theta2", 1, 5)),
            "arcsin(n*sin(theta2))",
            lambda n, theta2: np.arcsin(n * np.sin(theta2))),
        EquationDef(
            "I.27.6", (("d1", 1, 5), ("d2", 1, 5), ("n", 1, 5)),
            "1 / (1/d1 + n/d2)",
            lambda d1, d2, n: 1 / (1 / d1 + n / d2)),
        EquationDef(
            "I.29.16",
            (("x1", 1, 5), ("x2", 1, 5), ("theta1", 1, 5), ("theta2", 1, 5)),
            "sqrt(x1**2 + x2**2 - 2*x1*x2*cos(theta1 - theta2))",
            lambda x1, x2, theta1, theta2:
            np.sqrt(x1**2 + x2**2 - 2 * x1 * x2 * np.cos(theta1 - theta2))),
        EquationDef(
            "I.30.3", (("Int_0", 1, 5), ("theta", 1, 5), ("n", 1, 5)),
            "Int_0 * sin(n*theta/2)**2 / sin(theta/2)**2",
            lambda Int_0, theta, n:
            Int_0 * np.sin(n * theta / 2) ** 2 / np.sin(theta / 2) ** 2),
        EquationDef(
            "I.30.5", (("lambd", 1, 2), ("d", 2, 5), ("n", 1, 5)),
            "arcsin(lambd / (n*d))",
            lambda lambd, d, n: np.arcsin(lambd / (n * d))),
        EquationDef(
            "I.37.4", (("I1", 1, 5), ("I2", 1, 5), ("delta", 1, 5)),
            "I1 + I2 + 2*sqrt(I1*I2)*cos(delta)",
            lambda I1, I2, delta: I1 + I2 + 2 * np.sqrt(I1 * I2) * np.cos(delta)),
        EquationDef(
            "I.40.1",
            (("n_0", 1, 5), ("m", 1, 5), ("x", 1, 5), ("T", 1, 5), ("g", 1, 5),
             ("kb", 1, 5)),
            "n_0 * exp(-m*g*x / (kb*T))",
            lambda n_0, m, x, T, g, kb: n_0 * np.exp(-m * g * x / (kb * T))),
        EquationDef(
            "I.44.4",
            (("n", 1, 5), ("kb", 1, 5), ("T", 1, 5), ("V1", 1, 5), ("V2", 1, 5)),
            "n*kb*T*log(V2/V1)",
            lambda n, kb, T, V1, V2: n * kb * T * np.log(V2 / V1)),
        EquationDef(
            "I.50.26",
            (("x1", 1, 3), ("omega", 1, 3), ("t", 1, 3), ("alpha", 1, 3)),
            "x1*(cos(omega*t) + alpha*cos(omega*t)**2)",
            lambda x1, omega, t, alpha:
            x1 * (np.cos(omega * t) + alpha * np.cos(omega * t) ** 2)),
        EquationDef(
            "II.2.42",
            (("kappa", 1, 5), ("T1", 1, 5), ("T2", 1, 5), ("A", 1, 5), ("d", 1, 5)),
            "kappa*(T2 - T1)*A/d",
            lambda kappa, T1, T2, A, d: kappa * (T2 - T1) * A / d),
        EquationDef(
            "II.6.15a",
            (("epsilon", 1, 3), ("p_d", 1, 3), ("r", 1, 3), ("x", 1, 3),
             ("y", 1, 3), ("z", 1, 3)),
            "p_d/(4*pi*epsilon) * 3*z/r**5 * sqrt(x**2 + y**2)",
            lambda epsilon, p_d, r, x, y, z:
            p_d / (4 * pi * epsilon) * 3 * z / r**5 * np.sqrt(x**2 + y**2)),
        EquationDef(
            "II.11.7",
            (("n_0", 1, 3), ("kb", 1, 3), ("T", 1, 3), ("theta", 1, 3),
             ("p_d", 1, 3), ("Ef", 1, 3)),
            "n_0*(1 + p_d*Ef*cos(theta)/(kb*T))",
            lambda n_0, kb, T, theta, p_d, Ef:
            n_0 * (1 + p_d * Ef * np.cos(theta) / (kb * T))),
        EquationDef(
            "II.11.27",
            (("n", 0, 1), ("alpha", 0, 1), ("epsilon", 1, 2), ("Ef", 1, 2)),
            "n*alpha / (1 - n*alpha/3) * epsilon*Ef",
            lambda n, alpha, epsilon, Ef:
            n * alpha / (1 - n * alpha / 3) * epsilon * Ef),
        EquationDef(
            "II.35.18",
            (("n_0", 1, 3), ("kb", 1, 3), ("T", 1, 3), ("mom", 1, 3), ("B", 1, 3)),
            "n_0 / (exp(mom*B/(kb*T)) + exp(-mom*B/(kb*T)))",
            lambda n_0, kb, T, mom, B:
            n_0 / (np.exp(mom * B / (kb * T)) + np.exp(-mom * B / (kb * T)))),
        EquationDef(
            "II.36.38",
            (("mom", 1, 3), ("H", 1, 3), ("kb", 1, 3), ("T", 1, 3),
             ("alpha", 1, 3), ("epsilon", 1, 3), ("c", 1, 3), ("M", 1, 3)),
            "mom*H/(kb*T) + mom*alpha*M/(epsilon*c**2*kb*T)",
            lambda mom, H, kb, T, alpha, epsilon, c, M:
            mom * H / (kb * T) + mom * alpha * M / (epsilon * c**2 * kb * T)),
        EquationDef(
            "II.38.3",
            (("Y", 1, 5), ("A", 1, 5), ("x", 1, 5), ("d", 1, 5)),
            "Y*A*x/d",
            lambda Y, A, x, d: Y * A * x / d),
        EquationDef(
            "III.9.52",
            (("p_d", 1, 3), ("Ef", 1, 3), ("t", 1, 3), ("hbar", 1, 3),
             ("om", 1, 5), ("om_0", 1, 5)),
            "p_d*Ef*t/hbar * sin((om-om_0)*t/2)**2 / ((om-om_0)*t/2)**2",
            lambda p_d, Ef, t, hbar, om, om_0:
            p_d * Ef * t / hbar * _sinc_sq((om - om_0) * t / 2)),
        EquationDef(
            "III.10.19",
            (("mom", 1, 5), ("Bx", 1, 5), ("By", 1, 5), ("Bz", 1, 5)),
            "mom*sqrt(Bx**2 + By**2 + Bz**2)",
            lambda mom, Bx, By, Bz: mom * np.sqrt(Bx**2 + By**2 + Bz**2)),
        EquationDef(
            "III.17.37", (("beta", 1, 5), ("alpha", 1, 5), ("theta", 1, 5)),
            "beta*(1 + alpha*cos(theta))",
            lambda beta, alpha, theta: beta * (1 + alpha * np.cos(theta))),
    ]
    return {eq.id: eq for eq in e}


FEYNMAN_EQUATIONS = _defs()

# extra closed-form targets used by the interpretability demo
DEMO_EQUATIONS = {
    "x2-y2": EquationDef(
        "x2-y2", (("x", -1, 1), ("y", -1, 1)), "x**2 - y**2",
        lambda x, y: x**2 - y**2, group="demo"),
}

EQUATIONS = {**FEYNMAN_EQUATIONS, **DEMO_EQUATIONS}

# univariate comparison targets; the canonical name describes the function
UNIVARIATE_TARGETS = {
    "exp_sin_poly": lambda x: (np.exp(np.sin(x)) * x**3 + x**2) / 15000.0,
    "sin": np.sin,
}
UNIVARIATE_ALIASES = {"fig4_fn": "exp_sin_poly"}
DEFAULT_UNIVARIATE_RANGE = (0.0, 20.0)


@dataclass
class Dataset:
    """Feature matrix, targets, column names, optional split indices."""

    X: np.ndarray
    y: np.ndarray
    columns: tuple = ()
    splits: dict | None = None
    seed: int | None = None

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        if self.X.ndim > 2:
            raise ValueError(f"features must have shape (B, n), got {self.X.shape}")
        self.y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"{self.X.shape[0]} rows of inputs vs {self.y.shape[0]} targets")
        if self.X.shape[0] < 1:
            raise ValueError("dataset must have at least one row")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("dataset contains non-finite values")
        if not self.columns:
            self.columns = tuple(f"x{j + 1}" for j in range(self.X.shape[1])) + ("y",)
        if self.splits is not None:
            _check_splits(self.splits, self.X.shape[0])

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def input_dim(self) -> int:
        return self.X.shape[1]

    def part(self, name: str):
        """(X, y) of one split ('train' | 'val' | 'test')."""
        if self.splits is None:
            raise RuntimeError("dataset has no splits; call split() first")
        idx = self.splits[name]
        return self.X[idx], self.y[idx]

    def split(self, seed: int) -> "Dataset":
        """New Dataset with a seeded shuffled train/val/test split attached."""
        splits = train_val_test_split(self.n, seed)
        return Dataset(self.X, self.y, self.columns, splits, self.seed)

    def unit_scaled(self) -> "Dataset":
        """Targets divided by ``target_scale`` of the training split: the
        scale benchmark RMSEs are reported on."""
        _, y_train = self.part("train")
        return Dataset(self.X, self.y / target_scale(y_train), self.columns,
                       self.splits, self.seed)


def _check_splits(splits: dict, n: int) -> None:
    want = {"train", "val", "test"}
    if set(splits) != want:
        raise ValueError(f"splits must have keys {sorted(want)}")
    merged = np.concatenate([np.asarray(splits[k], dtype=int) for k in sorted(want)])
    if merged.shape != (n,) or np.any(np.sort(merged) != np.arange(n)):
        raise ValueError("split indices must be disjoint and cover every row")


def train_val_test_split(n: int, seed: int) -> dict:
    """Seeded shuffled index split by SPLIT_FRACTIONS; sizes floor(train),
    floor(val), remainder."""
    if n < 3:
        raise ValueError(f"need at least 3 rows to split, got {n}")
    f_train, f_val, _ = SPLIT_FRACTIONS
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(np.floor(f_train * n))
    n_val = int(np.floor(f_val * n))
    if min(n_train, n_val, n - n_train - n_val) < 1:
        raise ValueError(f"{n} rows cannot fill a {SPLIT_FRACTIONS} split")
    return {
        "train": perm[:n_train],
        "val": perm[n_train:n_train + n_val],
        "test": perm[n_train + n_val:],
    }


def generate(equation_id: str, n_samples: int = DEFAULT_N_SAMPLES,
             seed: int = 0) -> Dataset:
    """Sample a registered equation uniformly over its declared ranges."""
    if equation_id not in EQUATIONS:
        known = ", ".join(sorted(EQUATIONS))
        raise LookupError(f"unknown equation {equation_id!r}; known ids: {known}")
    check_count("n_samples", n_samples, 1)
    check_count("seed", seed, 0)
    eq = EQUATIONS[equation_id]
    rng = np.random.default_rng(seed)
    X = np.empty((n_samples, eq.arity))
    for j, (_, lo, hi) in enumerate(eq.variables):
        X[:, j] = rng.uniform(lo, hi, n_samples)
    y = eq.evaluate(X)
    cols = tuple(name for name, _, _ in eq.variables) + ("y",)
    return Dataset(X, y, columns=cols, seed=seed)


def resolve_univariate(target):
    """Name (or alias) -> (canonical_name, callable); callables pass through."""
    if callable(target):
        return getattr(target, "__name__", "custom"), target
    name = UNIVARIATE_ALIASES.get(target, target)
    if name not in UNIVARIATE_TARGETS:
        known = ", ".join(sorted(UNIVARIATE_TARGETS) + sorted(UNIVARIATE_ALIASES))
        raise LookupError(f"unknown univariate target {target!r}; known: {known}")
    return name, UNIVARIATE_TARGETS[name]


def generate_univariate(target, n_samples: int = DEFAULT_N_SAMPLES,
                        x_range=DEFAULT_UNIVARIATE_RANGE, seed: int = 0) -> Dataset:
    """1-D dataset for the activation-vs-spline comparisons.

    ``target`` is a registered name ("exp_sin_poly", "sin"), an alias, or any
    callable f(x).
    """
    lo, hi = float(x_range[0]), float(x_range[1])
    if not lo < hi:
        raise ValueError(f"empty range {x_range}")
    check_count("n_samples", n_samples, 1)
    check_count("seed", seed, 0)
    name, fn = resolve_univariate(target)
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, n_samples)
    y = np.asarray(fn(x), dtype=np.float64)
    return Dataset(x[:, None], y, columns=(name, "y"), seed=seed)


def target_scale(y_train: np.ndarray) -> float:
    """max |y| over a training split; the divisor for unit-scale targets."""
    s = float(np.max(np.abs(np.asarray(y_train, dtype=np.float64))))
    return s if s > 0 else 1.0


# --- CSV dialect -------------------------------------------------------------


def write_csv_rows(path, header, rows) -> None:
    """One shared CSV dialect: comma separated, no quoting, repr-printed
    floats (exact round-trip), trailing newline."""
    def cell(v):
        if isinstance(v, float) or isinstance(v, np.floating):
            return repr(float(v))
        s = str(v)
        if "," in s or "\n" in s:
            raise ValueError(f"cell {s!r} would need quoting; dialect forbids it")
        return s

    with open(path, "w") as fh:
        fh.write(",".join(str(h) for h in header) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")


def read_csv_rows(path):
    """Inverse of write_csv_rows: (header, rows-of-strings); rejects ragged
    rows with the offending row number."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CSVFormatError("empty file, missing header")
    header = lines[0].split(",")
    rows = []
    for rowno, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        cells = ln.split(",")
        if len(cells) != len(header):
            raise CSVFormatError(
                f"row {rowno}: {len(cells)} cells, header has {len(header)}")
        rows.append(cells)
    return header, rows


# --- line-record files -------------------------------------------------------
# A format's table maps each record name to its token pattern, or to patterns
# separated by ``|``: ``#`` is an index (indices come first and key the
# record), ``int``, ``flag`` (0 or 1), ``float``, ``hex`` (float.hex) and
# ``str`` are values, ``<type>*`` takes the rest of the line, any other word
# is a keyword.


def finite(tok: str, parse=float) -> float:
    """``parse(tok)``; a ValueError unless it is a finite number."""
    try:
        v = parse(tok)
    except ValueError:
        raise ValueError(f"not a number: {tok!r}") from None
    if not np.isfinite(v):
        raise ValueError(f"non-finite number {tok!r}")
    return v


def _flag(tok: str) -> bool:
    if tok not in ("0", "1"):
        raise ValueError(f"expected a flag 0 or 1, got {tok!r}")
    return tok == "1"


# slot type -> (token to value, value to token)
_SLOTS = {"#": (int, str), "int": (int, lambda v: str(int(v))),
          "flag": (_flag, lambda v: str(int(v))),
          "float": (finite, lambda v: repr(float(v))),
          "hex": (lambda tok: finite(tok, float.fromhex), lambda v: float(v).hex()),
          "str": (str, str)}


def _match(pattern, toks) -> list:
    """The values of ``toks`` read by ``pattern``, a repeat as one list; a
    ValueError or OverflowError unless every token fits."""
    repeat = pattern[-1].endswith("*")
    fixed = pattern[:-1] if repeat else pattern
    if len(toks) < len(fixed) or (len(toks) > len(fixed) and not repeat):
        raise ValueError(f"expected '{' '.join(pattern)}', got {len(toks)} token(s)")
    for word, tok in zip(fixed, toks):
        if word not in _SLOTS and tok != word:
            raise ValueError(f"expected {word!r}, got {tok!r}")
    values = [_SLOTS[word][0](tok) for word, tok in zip(fixed, toks) if word in _SLOTS]
    if repeat:
        values.append([_SLOTS[pattern[-1][:-1]][0](tok) for tok in toks[len(fixed):]])
    return values


def _label(name: str, index: tuple) -> str:
    shown = index[0] if len(index) == 1 else index
    return f"{name} record {shown}" if index else f"{name} record"


def read_records(path, kind: str, version: str, table: dict, fail):
    """Read a ``<kind> <version>`` header, one record ``<name> <tokens...>``
    per line and ``end``, skipping blank lines and ``#`` comments; each
    record must match a pattern of ``table[name]`` token by token.  Returns
    ({name: {index: (values, line)}}, line of ``end``).  ``fail(line,
    message)`` must raise; it gets ``version=True`` on an unsupported
    version, and is also called on a bad header, an unknown name, a record
    fitting no pattern, an index seen twice, no ``end`` or a line after it."""
    with open(path, encoding="utf-8") as fh:
        lines = [(no, ln.split()) for no, ln in enumerate(fh, start=1)
                 if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or len(lines[0][1]) != 2 or lines[0][1][0] != kind:
        fail(lines[0][0] if lines else 1, f"expected '{kind} <version>' header")
    no, (_, got) = lines[0]
    if got != version:
        fail(no, f"unsupported {kind} version {got!r}; this library reads {version}",
             version=True)
    records = {name: {} for name in table}
    for j, (no, (name, *toks)) in enumerate(lines[1:], start=1):
        if name == "end":
            if j + 1 < len(lines):
                fail(lines[j + 1][0], f"record after 'end' on line {no}")
            if toks:
                fail(no, "'end' takes no values")
            return records, no
        if name not in table:
            fail(no, f"unknown record {name!r}")
        misses = []
        for pattern in map(str.split, table[name].split("|")):
            try:
                values = _match(pattern, toks)
                break
            except (ValueError, OverflowError) as exc:
                misses.append(str(exc))
        else:
            fail(no, f"malformed {name} record: {' or '.join(misses)}")
        n = pattern.count("#")
        index, rows = tuple(values[:n]), records[name]
        if index in rows:
            fail(no, f"duplicate record {' '.join([name, *toks[:n]])}, "
                     f"first on line {rows[index][1]}")
        rows[index] = (values[n:], no)
    fail(lines[-1][0], "missing 'end' record")


def write_records(path, kind: str, version: str, table: dict, records) -> None:
    """Write (name, values) ``records`` for ``read_records``, each by the
    pattern of ``table[name]`` with one slot per value."""
    lines = [f"{kind} {version}"]
    for name, values in records:
        pattern = next(p for p in map(str.split, table[name].split("|"))
                       if sum(w.rstrip("*") in _SLOTS for w in p) == len(values))
        toks, values = [name], iter(values)
        for word in pattern:
            slot = word.rstrip("*")
            if slot not in _SLOTS:
                toks.append(word)
            else:
                value = next(values)
                toks += map(_SLOTS[slot][1], value if slot != word else [value])
        lines.append(" ".join(toks))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines + ["end"]) + "\n")


def _bound(bounds, index: tuple) -> int:
    b = bounds[len(index)]
    return b(*index) if callable(b) else b


def _walk(bounds, index=()):
    if len(index) == len(bounds):
        yield index
    else:
        for v in range(_bound(bounds, index)):
            yield from _walk(bounds, index + (v,))


def check_records(records, want: dict, where: str, no: int, fail) -> None:
    """Fail unless ``records[name]`` holds exactly the indices ``want[name]``
    spans: a positive bound per index position, an int or a function of the
    positions before it (``(n, lambda k: m[k])`` spans each (k, i) with k < n,
    i < m[k]).  A record outside its span fails at its line, earliest first;
    then the first missing one fails at ``no``, found by a walk that stops at
    the first gap, so the work is bounded by the records present."""
    extra = [(line, name, index) for name, bounds in want.items()
             for index, (_, line) in records[name].items()
             if len(index) != len(bounds) or not all(
                 0 <= v < _bound(bounds, index[:j]) for j, v in enumerate(index))]
    if extra:
        line, name, index = min(extra)
        fail(line, f"{_label(name, index)} does not fit {where}")
    for name, bounds in want.items():
        for index in _walk(bounds):
            if index not in records[name]:
                fail(no, f"{where} needs {_label(name, index)}")


def read_record(records, name: str, index: tuple, parse, fail):
    """``parse(values)`` of one record, for checks beyond its pattern: a
    ValueError it raises becomes ``fail`` at the record's line."""
    values, no = records[name][index]
    try:
        return parse(values)
    except ValueError as exc:
        fail(no, f"malformed {name} record: {exc}")


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset as x1,...,xn,y (split indices are not stored)."""
    n_in = dataset.input_dim
    header = [f"x{j + 1}" for j in range(n_in)] + ["y"]
    rows = [list(dataset.X[i]) + [dataset.y[i]] for i in range(dataset.n)]
    write_csv_rows(path, header, rows)


def load_csv(path) -> Dataset:
    """Read a x1,...,xn,y file; every body cell must parse as a float."""
    header, rows = read_csv_rows(path)
    n_in = len(header) - 1
    want = [f"x{j + 1}" for j in range(n_in)] + ["y"]
    if header != want or n_in < 1:
        raise CSVFormatError(
            f"bad header {header!r}; expected x1,...,xn,y")
    if not rows:
        raise CSVFormatError("no data rows")
    body = np.empty((len(rows), len(header)))
    for r, cells in enumerate(rows):
        for c, cell in enumerate(cells):
            try:
                body[r, c] = float(cell)
            except ValueError:
                raise CSVFormatError(
                    f"row {r + 2}: column {header[c]!r}: not a number: {cell!r}")
    return Dataset(body[:, :-1], body[:, -1], columns=tuple(header))
