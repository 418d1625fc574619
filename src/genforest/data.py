"""Tabular datasets: CSV ingestion, feature typing, domains, MCAR masking,
and the 2D synthetic Gaussian benchmark domains."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

CATEGORICAL = "categorical"
INTEGER = "integer"
REAL = "real"

MISSING_CODE = -1  # categorical columns store int codes, -1 = missing


class DataError(Exception):
    """Unreadable, ragged or otherwise malformed input data."""


@dataclass(frozen=True)
class FeatureDomain:
    """Learned value domain of one feature.

    Categorical features carry an ordered, duplicate-free modality list;
    numeric features carry the closed interval [lo, hi] observed in training.
    """

    kind: str
    categories: tuple[str, ...] | None = None
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.kind == CATEGORICAL:
            if not self.categories or len(set(self.categories)) != len(self.categories):
                raise DataError("categorical domain needs a non-empty, duplicate-free modality list")
        elif self.kind in (INTEGER, REAL):
            if self.lo is None or self.hi is None or self.lo > self.hi:
                raise DataError(f"bad numeric domain [{self.lo}, {self.hi}]")
        else:
            raise DataError(f"unknown feature kind {self.kind!r}")

    def n_values(self) -> int:
        """Cardinality for counting-measure features (categorical / integer)."""
        if self.kind == CATEGORICAL:
            return len(self.categories)
        if self.kind == INTEGER:
            return int(self.hi) - int(self.lo) + 1
        raise ValueError("real features have no finite cardinality")


@dataclass(frozen=True)
class Schema:
    names: tuple[str, ...]
    domains: tuple[FeatureDomain, ...]

    def __post_init__(self):
        if len(self.names) != len(self.domains):
            raise DataError("names/domains length mismatch")
        if len(set(self.names)) != len(self.names):
            raise DataError("duplicate feature names")

    @property
    def d(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(zip(self.names, self.domains))

    def check_row(self, values, complete: bool = False) -> None:
        """Raise ValueError unless ``values`` holds one raw value per feature
        inside its learned domain, or None where it is missing and the row
        need not be ``complete``: a known category code, or a number in
        [lo, hi] that is integer-valued for an integer feature."""
        if len(values) != self.d:
            raise ValueError(f"expected a row of {self.d} values, got {len(values)}")
        for name, dom, x in zip(self.names, self.domains, values):
            if x is None:
                if complete:
                    raise ValueError(f"{name} is missing: a density needs every value")
            elif not (x in range(len(dom.categories)) if dom.kind == CATEGORICAL
                      else dom.lo <= x <= dom.hi and (dom.kind != INTEGER or float(x).is_integer())):
                raise ValueError(f"{name}={x!r} lies outside the learned domain")


class Dataset:
    """Immutable column-major dataset bound to a Schema.

    Numeric columns are float64 with NaN for missing cells; categorical
    columns are int32 modality codes with -1 for missing.
    """

    def __init__(self, schema: Schema, columns: list[np.ndarray]):
        if len(columns) != schema.d:
            raise DataError("column count does not match schema")
        m = len(columns[0]) if columns else 0
        for c in columns:
            if len(c) != m:
                raise DataError("ragged columns")
        self.schema = schema
        self.columns = [np.asarray(c) for c in columns]
        for c in self.columns:
            c.setflags(write=False)
        self.m = m
        self._hash: int | None = None
        self._routing: list[np.ndarray] | None = None

    @property
    def d(self) -> int:
        return self.schema.d

    def missing_mask(self) -> np.ndarray:
        """Boolean (m, d) array, True where a cell is missing."""
        out = np.zeros((self.m, self.d), dtype=bool)
        for j, dom in enumerate(self.schema.domains):
            if dom.kind == CATEGORICAL:
                out[:, j] = self.columns[j] == MISSING_CODE
            else:
                out[:, j] = np.isnan(self.columns[j])
        return out

    def value(self, i: int, j: int):
        """Python value of cell (i, j): str / int / float, or None if missing."""
        dom = self.schema.domains[j]
        v = self.columns[j][i]
        if dom.kind == CATEGORICAL:
            return None if v == MISSING_CODE else dom.categories[int(v)]
        if np.isnan(v):
            return None
        return int(v) if dom.kind == INTEGER else float(v)

    def row(self, i: int) -> list:
        return [self.value(i, j) for j in range(self.d)]

    def cell_str(self, i: int, j: int, missing_token: str = "") -> str:
        v = self.value(i, j)
        if v is None:
            return missing_token
        if isinstance(v, float):
            return repr(v)
        return str(v)

    def to_csv(self, path, missing_token: str = "") -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.schema.names)
            for i in range(self.m):
                w.writerow([self.cell_str(i, j, missing_token) for j in range(self.d)])

    def canonical_bytes(self) -> bytes:
        lines = [",".join(self.schema.names)]
        for i in range(self.m):
            lines.append(",".join(self.cell_str(i, j) for j in range(self.d)))
        return ("\n".join(lines) + "\n").encode("utf-8")

    def content_hash(self) -> int:
        if self._hash is None:
            self._hash = fnv1a64(self.canonical_bytes())
        return self._hash

    def routing_columns(self) -> list[np.ndarray]:
        """Columns with each missing cell filled by a draw from the column's
        observed empirical marginal. Training routes rows one way at every
        split; a single surrogate value per missing cell keeps a row's routing
        consistent across all trees (its cell always contains the surrogate
        point). Seeded from the data content, so every consumer fills alike."""
        if self._routing is not None:
            return self._routing
        base = self.content_hash()
        out = []
        for j, dom in enumerate(self.schema.domains):
            col = self.columns[j].copy()
            miss = (col == MISSING_CODE) if dom.kind == CATEGORICAL else np.isnan(col)
            if miss.any():
                obs = col[~miss]
                if len(obs) == 0:
                    raise DataError(f"column {self.schema.names[j]!r} is entirely missing")
                rng = np.random.default_rng(np.random.SeedSequence(entropy=(base, j)))
                col[miss] = obs[rng.integers(len(obs), size=int(miss.sum()))]
            col.setflags(write=False)
            out.append(col)
        self._routing = out
        return out

    def with_columns(self, columns: list[np.ndarray]) -> "Dataset":
        return Dataset(self.schema, columns)

    def take_rows(self, rows, relearn_numeric: bool = True) -> "Dataset":
        """Row subset. Numeric domains are re-learned from the subset by
        default (categorical modality lists are kept so codes stay aligned)."""
        rows = np.asarray(rows)
        columns = [c[rows].copy() for c in self.columns]
        if not relearn_numeric:
            return Dataset(self.schema, columns)
        domains = []
        for j, dom in enumerate(self.schema.domains):
            if dom.kind == CATEGORICAL:
                domains.append(dom)
            else:
                vals = columns[j][~np.isnan(columns[j])]
                if len(vals) == 0:
                    raise DataError(f"column {self.schema.names[j]!r} entirely missing in subset")
                domains.append(FeatureDomain(dom.kind, lo=float(vals.min()), hi=float(vals.max())))
        return Dataset(Schema(self.schema.names, tuple(domains)), columns)


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _parse_int(tok: str):
    try:
        return int(tok)
    except ValueError:
        return None


def _parse_float(tok: str):
    try:
        v = float(tok)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _infer_column(tokens: list[str]) -> str:
    """Type rules: Integer if every token parses as an integer, Real if every
    token parses as a number with at least one non-integer, else Categorical."""
    any_real = False
    for t in tokens:
        if _parse_int(t) is not None:
            continue
        if _parse_float(t) is not None:
            any_real = True
            continue
        return CATEGORICAL
    return REAL if any_real else INTEGER


def _encode_column(name: str, kind: str, categories, raw: list[str], missing: set[str]) -> np.ndarray:
    """One feature's tokens as a column: a categorical token becomes its index
    in ``categories``, a numeric token a finite float (an integer feature
    reads integer tokens only), a missing token MISSING_CODE / NaN."""
    if kind == CATEGORICAL:
        code = {c: k for k, c in enumerate(categories)}
        code.update(dict.fromkeys(missing, MISSING_CODE))
        vals, what = [code.get(t) for t in raw], "a known category"
    else:
        vals = [np.nan if t in missing else _parse_float(t) for t in raw]
        if kind == INTEGER:  # integer tokens only, as the type rules read them
            vals = [None if t not in missing and _parse_int(t) is None else v for t, v in zip(raw, vals)]
        what = "an integer" if kind == INTEGER else "a finite number"
    if None in vals:
        i = vals.index(None)
        raise DataError(f"row {i + 2}, column {name!r}: {raw[i]!r} is not {what}")
    return np.array(vals, dtype=np.int32 if kind == CATEGORICAL else np.float64)


def load_csv(
    path, missing_token: str = "", extra_missing_tokens: tuple[str, ...] = ("?",), schema: Schema | None = None
) -> Dataset:
    """Load a header-ed CSV. Without ``schema``, infer feature types and learn
    domains from the non-missing entries. With ``schema`` (a model's), the
    header must list its features in order and tokens are encoded through it,
    so categorical codes mean what they mean to the model; numeric values
    outside its domains are kept. Cells equal to ``missing_token`` (or any
    token in ``extra_missing_tokens``) become missing."""
    missing = {missing_token, *extra_missing_tokens}
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    if not rows:
        raise DataError("empty file")
    header, body = rows[0], rows[1:]
    d = len(header)
    for i, r in enumerate(body):
        if len(r) != d:
            raise DataError(f"ragged row {i + 2}: expected {d} cells, got {len(r)}")
    if not body:
        raise DataError("no data rows")

    names = tuple(header)
    if schema is not None and names != schema.names:
        raise DataError(f"header {list(names)} does not match the features {list(schema.names)}")
    domains = []
    columns = []
    for j, name in enumerate(names):
        raw = [r[j] for r in body]
        if schema is not None:
            dom = schema.domains[j]
            columns.append(_encode_column(name, dom.kind, dom.categories, raw, missing))
            continue
        present = [t for t in raw if t not in missing]
        if not present:
            raise DataError(f"column {name!r} is entirely missing")
        kind = _infer_column(present)
        cats = tuple(sorted(set(present))) if kind == CATEGORICAL else None
        col = _encode_column(name, kind, cats, raw, missing)
        if kind == CATEGORICAL:
            domains.append(FeatureDomain(CATEGORICAL, categories=cats))
        else:
            vals = col[~np.isnan(col)]
            domains.append(FeatureDomain(kind, lo=float(vals.min()), hi=float(vals.max())))
        columns.append(col)
    return Dataset(Schema(names, domains) if schema is None else schema, columns)


def apply_mcar(ds: Dataset, rate: float, seed: int) -> tuple[Dataset, np.ndarray]:
    """Mask each cell independently with probability ``rate``. Returns the
    masked dataset and the boolean mask; deterministic given the seed."""
    if not 0 <= rate < 1:
        raise ValueError(f"rate must be in [0, 1), got {rate}")
    rng = np.random.default_rng(seed)
    mask = rng.random((ds.m, ds.d)) < rate
    return apply_mask(ds, mask), mask


def apply_mask(ds: Dataset, mask: np.ndarray) -> Dataset:
    """The dataset with every cell set in the boolean (m, d) ``mask`` made
    missing."""
    columns = []
    for j, dom in enumerate(ds.schema.domains):
        col = ds.columns[j].copy()
        if dom.kind == CATEGORICAL:
            col[mask[:, j]] = MISSING_CODE
        else:
            col[mask[:, j]] = np.nan
        columns.append(col)
    return ds.with_columns(columns)


def save_mask(mask: np.ndarray, path) -> None:
    np.savetxt(path, mask.astype(int), fmt="%d", delimiter=",")


def load_mask(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=int, ndmin=2).astype(bool)


SYNTH_SIZES = {"ringGauss": 1600, "circGauss": 2200, "gridGauss": 2500, "randGauss": 3800}


def synth_domain(name: str, seed: int = 0) -> Dataset:
    """The four 2D Gaussian-mixture benchmark domains.

    Shapes follow the usual GAN-benchmark constructions: a ring of 8 modes,
    a 5x5 grid of 25 modes (centre-weighted), a centre mode inside a circle,
    and a randomized 16-mode ring. Unspecified shape parameters are fixed
    here: ring radius 1, mode sigma 0.1, grid spacing 1, binomial-style grid
    mode weights.
    """
    if name not in SYNTH_SIZES:
        raise DataError(f"unknown synthetic domain {name!r}")
    rng = np.random.default_rng(seed)
    m = SYNTH_SIZES[name]
    if name == "ringGauss":
        k = 8
        angles = 2 * np.pi * np.arange(k) / k
        centers = np.c_[np.cos(angles), np.sin(angles)]
        per = m // k
        pts = np.concatenate([c + 0.1 * rng.standard_normal((per, 2)) for c in centers])
    elif name == "gridGauss":
        # binomial-style per-axis mode weights: the centre of the grid is
        # denser than the rim, so the mixture has a well-defined density peak
        axis_w = np.array([1.0, 2.0, 4.0, 2.0, 1.0])
        axis_w /= axis_w.sum()
        centers, weights = [], []
        for xi, x in enumerate(range(-2, 3)):
            for yi, y in enumerate(range(-2, 3)):
                centers.append((float(x), float(y)))
                weights.append(axis_w[xi] * axis_w[yi])
        sizes = np.floor(np.array(weights) * m).astype(int)
        sizes[: m - sizes.sum()] += 1
        pts = np.concatenate(
            [c + 0.1 * rng.standard_normal((n, 2)) for c, n in zip(centers, sizes)]
        )
    elif name == "circGauss":
        n_center = m // 3
        n_ring = m - n_center
        center = 0.1 * rng.standard_normal((n_center, 2))
        theta = rng.uniform(0, 2 * np.pi, n_ring)
        radius = 1.0 + 0.05 * rng.standard_normal(n_ring)
        ring = np.c_[radius * np.cos(theta), radius * np.sin(theta)]
        pts = np.concatenate([center, ring])
    else:  # randGauss
        k = 16
        angles = 2 * np.pi * np.arange(k) / k
        radii = rng.uniform(0.5, 1.5, k)
        sigmas = rng.uniform(0.05, 0.2, k)
        weights = rng.dirichlet(np.ones(k))
        sizes = np.floor(weights * m).astype(int)
        sizes[: m - sizes.sum()] += 1
        parts = []
        for i in range(k):
            c = radii[i] * np.array([np.cos(angles[i]), np.sin(angles[i])])
            parts.append(c + sigmas[i] * rng.standard_normal((sizes[i], 2)))
        pts = np.concatenate(parts)
    rng.shuffle(pts)
    domains = tuple(
        FeatureDomain(REAL, lo=float(pts[:, j].min()), hi=float(pts[:, j].max())) for j in range(2)
    )
    schema = Schema(("x0", "x1"), domains)
    return Dataset(schema, [pts[:, 0].copy(), pts[:, 1].copy()])
