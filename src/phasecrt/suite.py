"""The full identity-verification suite and its report types.

Every numbered construction in the package is exercised per dimension M and
per coprime split: exact integer identities (CRT, operator algebra) at zero
tolerance, dense-linear-algebra identities at the scaled float tolerance, and
the cross-basis phase tables against their claimed closed forms. A claimed
closed form that disagrees with brute force while the table itself is clean
(delta structure, unit-modulus phases at exact roots of unity) is recorded as
a "discrepancy" and does not fail the suite; the constructed linear algebra
is the truth source. Each check is one batched array expression over a
bounded block, and no check holds an (M, M) array: a basis is its comb
coefficients, the eigen relations act on blocks of them, F is read in row blocks
from core._fourier_entries (one walk feeds the mub and shift records, and the kernel
check reads it at CRT labels), and products, the CRT delta identity
and the kernel relation stream in blocks of labels, each folded into its worst
value and location by one rule (reps._worst). The PLS check walks the labels in
the same blocks: build, classify, conjugate, classify the conjugate against the
swapped split. Each PLS costs two transforms, its own and its conjugate's, taken
as one FFT per label block on each side: a state keeps its row, its verdict reads
it, and conjugate_state reads it too. The PLS take no Gram of their own: each must
equal exactly (a NaN is unequal) its vector of the C2 that basis.gram.C2 judged, so
that Gram is theirs.
One rule judges every record, in _add: |measured - expected| <= tolerance, a NaN
failing, and a failing record appends the location its where() reads. The cross-phase
records take compare_cross_phases' status, whose modulus test is that rule.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    _apply_rows,
    _fill_momentum,
    _fourier_entries,
    clock,
    compose,
    default_tolerance,
    global_phase_exponent,
    omega_power,
    operator_order,
    translate,
)
from .lattice import NotVN, VNLattice, classify_vn_state
from .numtheory import (_dimension, chi, crt_compose, crt_decompose, crt_grid, enumerate_splits,
                        factorize)
from .reps import (
    BasisKind,
    _eigen_deviations,
    _label_blocks,
    _rows,
    _scan,
    _worst,
    build_basis,
    build_pls,
    compare_cross_phases,
    conjugate_state,
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
    """Fix floats at 12 significant digits so reports are byte-reproducible; a non-finite
    float, which strict JSON has no token for, is written as null."""
    if isinstance(x, bool) or isinstance(x, int):
        return x
    return float(f"{float(x):.11e}") if math.isfinite(x) else None


def _add(checks, check_id, description, measured, expected, tolerance,
         note="", status=None, where=None):
    """Record one check. It passes iff |measured - expected| <= tolerance (a NaN fails),
    unless status is given; a failing record appends where(), its location, to its note."""
    if status is None:
        status = "pass" if abs(measured - expected) <= tolerance else "fail"
    if status == "fail" and where is not None:
        note = "; ".join(filter(None, (note, where())))
    checks.append(CheckRecord(check_id, description, status, measured, expected,
                              tolerance, note))


# ----------------------------------------------------------------- M-level --

def _walk_fourier(M):
    """One walk over F's row blocks, row k the ket |k>: the _worst of ||<q|k>| - 1/sqrt(M)|
    and of |clock|k> - |k+1>|, and the kets |q> that translate(M, 1) does not lower exactly."""
    mub, raise_, bad, every = None, None, 0, np.arange(M)
    for r in _label_blocks(M):
        F = _fourier_entries(M, np.append(r, r[-1] + 1) % M, every)  # the kets |k> and |k + 1>
        mub = _worst(mub, np.abs(np.abs(F[:-1]) - 1.0 / math.sqrt(M)), r, every)
        got = _apply_rows(clock(M, M), F[:-1])
        got -= F[1:]
        raise_ = _worst(raise_, np.abs(got), r, every)
        kets = (r[:, None] == every).astype(np.complex128)
        lowered = ((r[:, None] - 1) % M == every).astype(np.complex128)  # the kets |q - 1>
        bad += int(np.count_nonzero(np.any(_apply_rows(translate(M, 1), kets) != lowered, axis=1)))
    return mub, raise_, bad


def _check_mub(checks, M, walk):
    (err, (q, k)), tol = walk[0], 1e-12 * math.sqrt(M)
    _add(checks, "fourier.mub", "every |<q|k>| equals 1/sqrt(M)", err, 0.0, tol,
         where=lambda: f"worst at (q={q}, k={k})")


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


def _check_shift_relations(checks, tol, walk):
    (clock_dev, (k, q)), bad = walk[1:]
    _add(checks, "operators.shift.momentum-raise",
         "clock(M,M) maps |k> to |k+1>", clock_dev, 0.0, tol,
         where=lambda: f"worst at (k={k}, q={q})")
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
    M, q = split.M, np.arange(split.M)
    bad = int(np.count_nonzero(crt_compose(split, *crt_decompose(split, q)) != q))
    _add(checks, f"crt.roundtrip[{d}]",
         "compose(decompose(q)) = q for every q", bad, 0, 0)
    _add(checks, f"crt.bijection[{d}]",
         "compose maps the label grid onto [0, M)", len(np.unique(crt_grid(split))), M, 0)
    bad = 0
    for r in _label_blocks(M):  # a block of q at a time
        q, q1, q2 = np.ix_(r, np.arange(split.M1), np.arange(split.M2))
        lhs = (q - q1 * split.N1 * split.L1 - q2 * split.N2 * split.L2) % M == 0
        rhs = ((q - q1) % split.M1 == 0) & ((q - q2) % split.M2 == 0)
        bad += int(np.count_nonzero(lhs != rhs))
    _add(checks, f"crt.delta-identity[{d}]",
         "Delta_M(q - q1*N1*L1 - q2*N2*L2) = Delta_M1(q - q1) * Delta_M2(q - q2)", bad, 0, 0)


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
    of _PHASE_PAIRS and C2, for the PLS to be compared with. A basis holds only its
    comb coefficients, so each kind is built once and all four stay alive."""
    bases = {kind: build_basis(kind, split.M, split.M1)
             for kind in (BasisKind.C1, BasisKind.C2, BasisKind.E_POS, BasisKind.E_MOM)}
    for kind, basis in bases.items():  # a failing record takes a second streamed pass
        _add(checks, f"basis.gram.{kind.value}[{d}]",
             f"{kind.value} Gram matrix equals the identity", basis.gram_residual(), 0.0, tol,
             where=lambda: _scan(basis, basis, modulus=False)[2])
        _add(checks, f"basis.eigen.{kind.value}[{d}]",
             f"every {kind.value} vector satisfies both eigen-relations",
             eigen_residuals(basis), 0.0, tol, where=lambda: _eigen_deviations(basis)[1])
    # the C1-C2 overlap feeds its phase comparison and, through its diagonal, the identity
    c1c2 = _scan(bases[BasisKind.C1], bases[BasisKind.C2], modulus=True)
    comparisons = {pair: compare_cross_phases(*(bases[kind] for kind in pair), tol=tol,
                                              overlap=c1c2 if pair == _PHASE_PAIRS[0] else None)
                   for pair in _PHASE_PAIRS}
    err, (q1, k2) = _worst(None, np.abs(c1c2[0] - 1.0).reshape(split.M1, split.M2),
                           np.arange(split.M1), np.arange(split.M2))
    _add(checks, f"basis.c1c2-identity[{d}]",
         "C1 and C2 agree vector for vector (overlap exactly 1)", err, 0.0, tol,
         where=lambda: f"worst at (q1={q1}, k2={k2})")
    return comparisons, bases[BasisKind.C2]


def _check_kernel(checks, split, d, tol):
    M, M1, M2 = split.M, split.M1, split.M2
    q, every = crt_grid(split).ravel(), np.arange(M)
    n1, n2 = np.arange(M1), np.arange(M2)
    kernel1 = factor_kernel(split, n1, n1[:, None])  # [q1, k1]
    kernel2 = factor_kernel(split.swapped(), n2, n2[:, None])  # [q2, k2]
    r1, r2 = np.divmod(every, M2)  # the (q1, q2) of a row, the (k1, k2) of a column
    found = found_plain = None
    for r in _label_blocks(M, temporaries=8):  # element-wise, so any blocks give its bytes
        brute = np.conj(_fourier_entries(M, q[r], q))  # <k|q> = conj(F[q, k]) at CRT labels
        found = _worst(found, np.abs(brute - kernel1[r1[r, None], r1] * kernel2[r2[r, None], r2]),
                       r, every)
        plain = omega_power(M, -(r1[r, None] * r1 * split.L1 + r2[r, None] * r2 * split.L2))
        found_plain = _worst(found_plain, np.abs(brute - plain / math.sqrt(M)), r, every)
    (dev_inv, (i, j)), dev_plain = found, found_plain[0]
    worst = lambda: f"worst at (q={q[i]}, k={q[j]})"
    _add(checks, f"kernel.product[{d}]",
         "<k|q> factorizes into the two single-factor kernels under CRT labels",
         dev_inv, 0.0, tol, where=worst)
    matches = [name for name, dev in
               [("with-inverse-factors", dev_inv), ("inverse-free", dev_plain)]
               if dev <= tol]
    _add(checks, f"kernel.label-form[{d}]",
         "which factorized kernel form matches brute force", dev_inv, 0.0, tol,
         note=f"matching forms: {matches or ['none']}; "
              f"inverse-free form max deviation {dev_plain:.3e}", where=worst)


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


def _check_pls(checks, split, d, c2):
    """The PLS records; c2 is the C2 basis whose Gram basis.gram.C2 took."""
    swapped = split.swapped()
    bad = bad_conjugate = wrong_count = 0
    unequal = []  # the labels of the PLS that are not exactly their C2 vector
    for block in _label_blocks(split.M):  # each side's DFTs taken as one FFT per block
        labels = [divmod(int(i), split.M2) for i in block]
        states = [build_pls(split, q1, k2) for q1, k2 in labels]
        amps = _fill_momentum(states)
        unequal += [labels[i] for i in np.flatnonzero(np.any(amps != _rows(c2, block), axis=1))]
        for (q1, k2), state in zip(labels, states):
            verdict = classify_vn_state(state, split)
            bad += int(not isinstance(verdict, VNLattice) or verdict.split != split
                       or (verdict.shift_q, verdict.shift_k) != (q1, k2))
            wrong_count += int(isinstance(verdict, NotVN) and verdict.reason == "wrong count")
        states = [conjugate_state(state) for state in states]  # each reads its state's row
        _fill_momentum(states)
        for (q1, k2), state in zip(labels, states):
            verdict = classify_vn_state(state, swapped)
            bad_conjugate += int(not isinstance(verdict, VNLattice) or verdict.split != swapped
                                 or (verdict.shift_q, verdict.shift_k) != (k2, q1))
    _add(checks, f"pls.orthonormal[{d}]",
         "the M partially localized states equal the C2 vectors exactly, "
         "so basis.gram.C2 is their Gram", len(unequal), 0, 0,
         where=lambda: "first at (q1={}, k2={})".format(*unequal[0]))
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
    M = _dimension(M)  # an int, before the tolerance reads it
    splits = enumerate_splits(M)
    tol = default_tolerance(M) if tolerance is None else tolerance
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    report = VerificationReport(M=M, splits=[s.describe() for s in splits], tolerance=tol)
    checks = report.checks

    walk = _walk_fourier(M)  # feeds the mub and shift records, with these two between them
    _check_mub(checks, M, walk)
    _check_periods(checks, M)
    _check_commutator(checks, M)
    _check_shift_relations(checks, tol, walk)
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
        comparisons, c2 = _check_bases(checks, split, d, tol)
        _check_kernel(checks, split, d, tol)
        _check_cross_phases(checks, split, d, tol, comparisons)
        _check_pls(checks, split, d, c2)

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
