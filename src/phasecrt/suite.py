"""The full identity-verification suite and its report types.

Every numbered construction in the package is exercised per dimension M and
per coprime split: exact integer identities (CRT, operator algebra) at zero
tolerance, dense-linear-algebra identities at the scaled float tolerance, and
the cross-basis phase tables against their claimed closed forms. A claimed
closed form that disagrees with brute force while the table itself is clean
(delta structure, unit-modulus phases at exact roots of unity) is recorded as
a "discrepancy" and does not fail the suite; the constructed linear algebra
is the truth source. Each check is one batched array expression over a
bounded block: the kernel check takes one q1 at a time, a split keeps two of
its bases alive at a time, and products stream in blocks of labels.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    FOURIER_SIGN,
    StateVector,
    _apply_rows,
    clock,
    compose,
    default_tolerance,
    fourier_matrix,
    global_phase_exponent,
    omega_power,
    operator_order,
    translate,
)
from .lattice import NotVN, VNLattice, classify_vn_state
from .numtheory import chi, crt_compose, crt_decompose, crt_grid, enumerate_splits, factorize
from .reps import (
    BasisKind,
    RepBasis,
    _eigen_worst,
    _label_blocks,
    _scan,
    build_basis,
    build_pls,
    compare_cross_phases,
    eigen_residuals,
    factor_kernel,
)


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    description: str
    status: str  # "pass" | "fail" | "discrepancy"
    measured: float | int
    expected: float | int
    tolerance: float | int
    note: str = ""


@dataclass
class VerificationReport:
    M: int
    splits: list[str]
    tolerance: float
    checks: list[CheckRecord] = field(default_factory=list)
    duration_seconds: float = 0.0

    @property
    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "discrepancy": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def passed(self) -> bool:
        return self.counts["fail"] == 0

    def to_dict(self) -> dict:
        return {
            "M": self.M,
            "splits": list(self.splits),
            "tolerance": _round12(self.tolerance),
            "checks": [
                {
                    "id": c.check_id,
                    "description": c.description,
                    "status": c.status,
                    "measured": _round12(c.measured),
                    "expected": _round12(c.expected),
                    "tolerance": _round12(c.tolerance),
                    "note": c.note,
                }
                for c in self.checks
            ],
            "counts": self.counts,
            "passed": self.passed,
            "duration_seconds": self.duration_seconds,
        }


def _round12(x):
    """Fix floats at 12 significant digits so reports are byte-reproducible."""
    if isinstance(x, bool) or isinstance(x, int):
        return x
    return float(f"{float(x):.11e}")


def _add(checks, check_id, description, measured, expected, tolerance,
         note="", status=None):
    if status is None:
        status = "pass" if abs(measured - expected) <= tolerance else "fail"
    checks.append(CheckRecord(check_id, description, status, measured, expected,
                              tolerance, note))


# ----------------------------------------------------------------- M-level --

def _check_mub(checks, M, F):
    err, tol = np.abs(np.abs(F) - 1.0 / math.sqrt(M)), 1e-12 * math.sqrt(M)
    q, k = divmod(int(np.argmax(err)), M)  # F[q, k] = <q|k>
    _add(checks, "fourier.mub", "every |<q|k>| equals 1/sqrt(M)", float(err[q, k]), 0.0, tol,
         note=f"worst at (q={q}, k={k})" if err[q, k] > tol else "")


def _check_periods(checks, M):
    _add(checks, "operators.period.clock",
         "smallest n with clock(M,M)**n = 1 is exactly M",
         operator_order(clock(M, M)), M, 0)
    _add(checks, "operators.period.translate",
         "smallest n with translate(M,1)**n = 1 is exactly M",
         operator_order(translate(M, 1)), M, 0)


def _check_commutator(checks, M):
    u, v = clock(M, M), translate(M, 1)
    exponent = global_phase_exponent(compose(u, v), compose(v, u))
    _add(checks, "operators.commutator",
         "UV = VU * omega**(-1): global phase exponent is -1 mod M",
         exponent, (M - 1) % M, 0)


def _check_shift_relations(checks, M, tol, F):
    # a block of rows at a time: row k of F is the momentum ket |k>, of the identity |q>
    clock_dev, bad = 0.0, 0
    for r in _label_blocks(M):
        got = _apply_rows(clock(M, M), F[r])
        got -= F[(r + 1) % M]  # np.roll(F, -1, axis=0)
        clock_dev = max(clock_dev, float(np.max(np.abs(got))))
        kets = (r[:, None] == np.arange(M)).astype(np.complex128)
        lowered = ((r[:, None] - 1) % M == np.arange(M)).astype(np.complex128)  # the kets |q - 1>
        bad += int(np.count_nonzero(np.any(_apply_rows(translate(M, 1), kets) != lowered, axis=1)))
    _add(checks, "operators.shift.momentum-raise",
         "clock(M,M) maps |k> to |k+1>", clock_dev, 0.0, tol)
    _add(checks, "operators.shift.position-lower",
         "translate(M,1) maps |q> to |q-1> exactly", bad, 0, 0)


def _check_split_count(checks, M, splits):
    expected = chi(M) - 1
    _add(checks, "splits.count",
         "number of coprime bipartitions is 2**(N-1) - 1",
         len(splits), expected, 0,
         note=f"chi({M}) = {chi(M)}, N = {factorize(M).num_primes}")


# ------------------------------------------------------------- split-level --

def _check_crt(checks, split, d):
    M = split.M
    bad = sum(int(crt_compose(split, *crt_decompose(split, q)) != q) for q in range(M))
    _add(checks, f"crt.roundtrip[{d}]",
         "compose(decompose(q)) = q for every q", bad, 0, 0)
    _add(checks, f"crt.bijection[{d}]",
         "compose maps the label grid onto [0, M)", len(np.unique(crt_grid(split))), M, 0)
    q, q1, q2 = np.ix_(np.arange(M), np.arange(split.M1), np.arange(split.M2))
    lhs = (q - q1 * split.N1 * split.L1 - q2 * split.N2 * split.L2) % M == 0
    rhs = ((q - q1) % split.M1 == 0) & ((q - q2) % split.M2 == 0)
    _add(checks, f"crt.delta-identity[{d}]",
         "Delta_M(q - q1*N1*L1 - q2*N2*L2) = Delta_M1(q - q1) * Delta_M2(q - q2)",
         int(np.count_nonzero(lhs != rhs)), 0, 0)


def _check_split_invariants(checks, split, d):
    bad = 0
    bad += int(split.M1 * split.M2 != split.M)
    bad += int(math.gcd(split.M1, split.M2) != 1)
    bad += int(split.L1 != split.M2 or split.L2 != split.M1)
    bad += int((split.N1 * split.L1) % split.M1 != 1)
    bad += int((split.N2 * split.L2) % split.M2 != 1)
    bad += int(not (1 <= split.N1 < split.M1 and 1 <= split.N2 < split.M2))
    _add(checks, f"split.invariants[{d}]",
         "M = M1*M2 coprime; L = co-factors; N = inverse co-factors",
         bad, 0, 0)


def _check_operator_splitting(checks, split, d):
    M = split.M
    u_product = compose(clock(M, split.M1) ** split.N1, clock(M, split.M2) ** split.N2)
    v_product = compose(translate(M, split.L1) ** split.N1,
                        translate(M, split.L2) ** split.N2)
    bad = int(u_product != clock(M, M)) + int(v_product != translate(M, 1))
    plain = compose(clock(M, split.M1), clock(M, split.M2))
    relabeled = plain == clock(M, M) ** ((split.M1 + split.M2) % M)
    bad += int(not relabeled) + int(operator_order(plain) != M)
    _add(checks, f"operators.splitting[{d}]",
         "inverse-dressed factor products reproduce clock(M,M) and translate(M,1)",
         bad, 0, 0,
         note="plain product clock(M,M1)*clock(M,M2) equals clock(M,M)**(M1+M2), "
              "a relabeled generator of the same period, not clock(M,M) itself")


def _check_bases(checks, split, d, tol):
    """Gram, eigen and C1-C2 identity records; returns the comparison of each pair
    of _PHASE_PAIRS. The pairs form a cycle: walking it, with C2 (the cheapest
    builder) built again to close it, keeps two bases alive at a time."""
    records = {kind: [] for kind in (BasisKind.C1, BasisKind.C2, BasisKind.E_POS, BasisKind.E_MOM)}
    comparisons, previous = {}, None
    for kind in (BasisKind.C2, BasisKind.E_POS, BasisKind.E_MOM, BasisKind.C1, BasisKind.C2):
        basis = build_basis(kind, split.M, split.M1)
        if not records[kind]:
            residual = basis.gram_residual()
            # a failing record names its worst label pair, from a second streamed Gram
            _add(records[kind], f"basis.gram.{kind.value}[{d}]",
                 f"{kind.value} Gram matrix equals the identity", residual, 0.0, tol,
                 note="" if residual <= tol else _scan(basis, basis, modulus=False)[2])
            residual = eigen_residuals(basis)
            _add(records[kind], f"basis.eigen.{kind.value}[{d}]",
                 f"every {kind.value} vector satisfies both eigen-relations",
                 residual, 0.0, tol, note="" if residual <= tol else _eigen_worst(basis))
        if previous is not None:
            a, b = (previous, basis) if (previous.kind, kind) in _PHASE_PAIRS else (basis, previous)
            overlap = _scan(a, b, modulus=True) if (a.kind, b.kind) == _PHASE_PAIRS[0] else None
            comparisons[a.kind, b.kind] = compare_cross_phases(a, b, tol=tol, overlap=overlap)
            del a, b  # else they keep the previous pair alive through the next build
        previous = basis
    checks.extend(record for kind_records in records.values() for record in kind_records)
    err = np.abs(overlap[0] - 1.0)  # the C1-C2 diagonal, labels in row-major (q1, k2) order
    at = int(np.argmax(err))
    _add(checks, f"basis.c1c2-identity[{d}]",
         "C1 and C2 agree vector for vector (overlap exactly 1)", float(err[at]), 0.0, tol,
         note=f"worst at (q1={at // split.M2}, k2={at % split.M2})" if err[at] > tol else "")
    return comparisons


def _check_kernel(checks, split, d, tol):
    M, M1, M2 = split.M, split.M1, split.M2
    grid = crt_grid(split)
    r1, r2 = np.arange(M1), np.arange(M2)
    kernel1 = factor_kernel(split, r1, r1[:, None])  # [q1, k1]
    kernel2 = factor_kernel(split.swapped(), r2, r2[:, None])  # [q2, k2]
    q2, k1, k2 = np.ix_(r2, r1, r2)
    dev_inv, dev_plain, worst = 0.0, 0.0, ""
    for q1 in range(M1):  # one (M2, M1, M2) block of [q2, k1, k2] at a time
        # <k|q> = conj(F[q, k]) at CRT-composed labels, without a dense F
        brute = np.conj(omega_power(M, FOURIER_SIGN * grid[q1, :, None, None] * grid)
                        / math.sqrt(M))
        err = np.abs(brute - kernel1[q1, None, :, None] * kernel2[:, None, :])
        at = np.unravel_index(int(np.argmax(err)), err.shape)  # (q2, k1, k2)
        if err[at] > dev_inv:  # the worst point so far, in CRT-composed labels
            dev_inv, worst = float(err[at]), f"(q={grid[q1, at[0]]}, k={grid[at[1], at[2]]})"
        del err  # the dels keep at most two blocks alive at a time
        plain = (np.exp(-2j * np.pi * (q1 * k1 * split.L1 + q2 * k2 * split.L2) / M)
                 / math.sqrt(M))
        dev_plain = max(dev_plain, float(np.max(np.abs(brute - plain))))
        del brute, plain
    _add(checks, f"kernel.product[{d}]",
         "<k|q> factorizes into the two single-factor kernels under CRT labels",
         dev_inv, 0.0, tol, note=f"worst at {worst}" if dev_inv > tol else "")
    matches = [name for name, dev in
               [("with-inverse-factors", dev_inv), ("inverse-free", dev_plain)]
               if dev < tol]
    _add(checks, f"kernel.label-form[{d}]",
         "which factorized kernel form matches brute force",
         dev_inv, 0.0, tol,
         note=f"matching forms: {matches or ['none']}; "
              f"inverse-free form max deviation {dev_plain:.3e}",
         status="pass" if "with-inverse-factors" in matches else "fail")


_PHASE_PAIRS = (
    (BasisKind.C1, BasisKind.C2),
    (BasisKind.C1, BasisKind.E_MOM),
    (BasisKind.C2, BasisKind.E_POS),
    (BasisKind.E_MOM, BasisKind.E_POS),
)


def _check_cross_phases(checks, split, d, tol, comparisons):
    for kind_a, kind_b in _PHASE_PAIRS:
        cmp = comparisons[kind_a, kind_b]
        notes = [cmp.worst] if cmp.worst else []
        if cmp.discrepancies:
            first = cmp.discrepancies[0]
            notes.append(f"{len(cmp.discrepancies)} labels disagree with the claimed "
                         f"exponent; e.g. (q1={first.label.q1}, k2={first.label.k2}) "
                         f"measured {first.measured_exponent}, "
                         f"claimed {first.claimed_exponent} (mod {split.M})")
        note = "; ".join(notes)
        _add(checks, f"overlap.phase.{kind_a.value}-{kind_b.value}[{d}]",
             f"<{kind_a.value}'|{kind_b.value}> is delta * root-of-unity phase, "
             "checked against its claimed exponent",
             cmp.max_modulus_error, 0.0, tol, note=note, status=cmp.status)


def _check_pls(checks, split, d, tol):
    M, amps = split.M, np.empty((split.M1, split.M2, split.M), dtype=np.complex128)
    bad = wrong_count = 0
    for q1, k2 in np.ndindex(split.M1, split.M2):  # one state alive at a time
        state = build_pls(split, q1, k2)
        amps[q1, k2] = state.amplitudes
        verdict = classify_vn_state(state, split)
        bad += int(verdict != VNLattice(split, q1, k2))
        wrong_count += int(isinstance(verdict, NotVN) and verdict.reason == "wrong count")
    swapped, bad_conjugate = split.swapped(), 0
    for labels in _label_blocks(M):  # conjugated PLS (q1, k2) is vector (k2, q1) of swapped
        block = np.conj(np.fft.fft(amps.reshape(M, M)[labels]) / math.sqrt(M))
        for label, vector in zip(labels.tolist(), block):
            q1, k2 = divmod(label, split.M2)
            verdict = classify_vn_state(StateVector(vector, normalized=True), swapped)
            bad_conjugate += int(verdict != VNLattice(swapped, k2, q1))
    stack = RepBasis(BasisKind.C2, split.M1, split.M2, amps)
    stack._comb = ("position", crt_grid(split), None)  # checked exactly by the product
    _add(checks, f"pls.orthonormal[{d}]",
         "the M partially localized states are orthonormal",
         stack.gram_residual(), 0.0, tol)
    # each wrong verdict leaves its shift unseen and its lattice's cells uncovered
    _add(checks, f"pls.lattice-bijection[{d}]",
         "each PLS sits over exactly its shifted lattice; supports tile the grid",
         bad + 2 * int(bad > 0), 0, 0)
    _add(checks, f"conjugate.duality[{d}]",
         "conjugated PLS sits over the lattice with q/k spacings exchanged",
         bad_conjugate, 0, 0)
    # a state's area is its support count times 2*pi/M: 2*pi unless the count is not M
    _add(checks, f"lattice.area[{d}]",
         "M cells of area 2*pi/M give state area exactly 2*pi",
         wrong_count, 0, 0)


def run_suite(M: int, tolerance: float | None = None) -> VerificationReport:
    """Run every check for one dimension; see the module docstring for scope."""
    t0 = time.perf_counter()
    tol = default_tolerance(M) if tolerance is None else tolerance
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    splits = enumerate_splits(M)
    report = VerificationReport(M=M, splits=[s.describe() for s in splits], tolerance=tol)
    checks = report.checks

    F = fourier_matrix(M)
    _check_mub(checks, M, F)
    _check_periods(checks, M)
    _check_commutator(checks, M)
    _check_shift_relations(checks, M, tol, F)
    del F
    _check_split_count(checks, M, splits)
    if not splits:
        _add(checks, "splits.none",
             "no coprime bipartition exists; only dimension-level checks ran",
             0, 0, 0, note="M is a prime power")

    for split in splits:
        d = split.describe()
        _check_split_invariants(checks, split, d)
        _check_crt(checks, split, d)
        _check_operator_splitting(checks, split, d)
        comparisons = _check_bases(checks, split, d, tol)
        _check_kernel(checks, split, d, tol)
        _check_cross_phases(checks, split, d, tol, comparisons)
        _check_pls(checks, split, d, tol)

    ids = [c.check_id for c in checks]
    if len(ids) != len(set(ids)):
        raise RuntimeError("duplicate check ids in report")
    report.duration_seconds = time.perf_counter() - t0
    return report


def run_suites(Ms: list[int], tolerance: float | None = None) -> list[VerificationReport]:
    return [run_suite(M, tolerance) for M in Ms]


def reports_to_dict(reports: list[VerificationReport]) -> dict:
    return {"reports": [r.to_dict() for r in reports],
            "passed": all(r.passed for r in reports)}


def format_table(reports: list[VerificationReport]) -> str:
    """Fixed-width text rendering; deterministic except the duration lines."""
    lines = []
    for report in reports:
        split_desc = ", ".join(report.splits) if report.splits else "none (prime power)"
        lines.append(f"M = {report.M}   splits: {split_desc}   "
                     f"tolerance = {report.tolerance:.11e}")
        for c in report.checks:
            measured = c.measured if isinstance(c.measured, int) else f"{c.measured:.11e}"
            expected = c.expected if isinstance(c.expected, int) else f"{c.expected:.11e}"
            lines.append(f"  {c.status.upper():<12} {c.check_id:<40} "
                         f"measured={measured} expected={expected}")
            if c.note:
                lines.append(f"               {'':<40} note: {c.note}")
        counts = report.counts
        lines.append(f"  summary: {counts['pass']} pass, {counts['fail']} fail, "
                     f"{counts['discrepancy']} discrepancy")
        lines.append(f"  duration: {report.duration_seconds:.3f} s")
        lines.append("")
    lines.append("RESULT: " + ("PASS" if all(r.passed for r in reports) else "FAIL"))
    return "\n".join(lines) + "\n"
