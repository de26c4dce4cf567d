"""The two fixed workloads: set-up, task lists and output checks.

A workload's set-up imports fishlab afresh and builds the inputs, and
returns the task list of one pass.  A task calls one public entry point of
fishlab and returns its output; `after` names a task of the same pass
whose output it consumes.  A task calls `lap()` between units of its work
(blocks of inputs, chunks of streamed output), so that the runner can time
units of a few milliseconds.  A check takes the task's output and every
output of the pass, compares against truth.py, and returns None or the
first problem found.  Checks run after the pass timer stops.

`verify` is what a user runs to trust the library; `kernels` runs the
enumerators, the maps and the series engine, each family of tasks built by
its own set-up below.  Sizes are fixed here.  They are never re-seeded: the
seed only permutes task order within a pass and the order of the map
inputs.
"""

import contextlib
import importlib
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import truth

# the layers of fishlab, one per module, in dependency order
LAYERS = ("sequences", "hat", "burge", "fishburn", "dyck", "series", "verify", "cli")


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable  # (outs, lap) -> output
    check: Callable  # (output, outs) -> problem or None
    after: Optional[str] = None


def import_fishlab() -> dict:
    """Drop every fishlab module from the import cache and import the
    package and each layer again; returns the layer modules by name."""
    for name in [m for m in sys.modules if m == "fishlab" or m.startswith("fishlab.")]:
        del sys.modules[name]
    importlib.import_module("fishlab")
    return {layer: importlib.import_module("fishlab." + layer) for layer in LAYERS}


class LapSink(io.StringIO):
    """Captured stdout that calls lap() after every `every` writes."""

    def __init__(self, lap, every):
        super().__init__()
        self.lap, self.every, self.left = lap, every, every

    def write(self, text):
        self.left -= 1
        if not self.left:
            self.left = self.every
            self.lap()
        return super().write(text)


# print() writes each line and its newline separately: a lap every 64 lines
LINES_PER_LAP = 64


def run_cli(cli, argv, lap=None) -> tuple:
    """fishlab.cli.main with stdout and stderr captured in memory."""
    out = io.StringIO() if lap is None else LapSink(lap, 2 * LINES_PER_LAP)
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def _cli_problem(result) -> Optional[str]:
    status, _, err = result
    if status != 0:
        return f"exit status {status}: {err.strip()[-200:]}"
    return None


def blockwise(fn, inputs, lap, block=64) -> list:
    """[fn(x) for x in inputs], calling lap() after every block of inputs."""
    out = []
    for i in range(0, len(inputs), block):
        out += [fn(x) for x in inputs[i : i + block]]
        lap()
    return out


# ---------------------------------------------------------------- verify

# `verify --suite all` runs these suites in this order; one call per suite
# gives eight more timed units and the same rows
VERIFY_SUITES = ("hat", "orbit", "stats", "burge", "phi", "subdiag", "trees", "dyck", "series")
VERIFY_MIN_ROWS = 350  # the rows of `verify --suite all --n-max 6 --d-max 2` at the seed


def check_verify(result, outs) -> Optional[str]:
    problem = _cli_problem(result)
    if problem:
        return problem
    failing = [r for r in map(json.loads, result[1].splitlines()) if r.get("pass") is not True]
    if failing:
        return f"{len(failing)} failing rows, first {failing[0]}"
    rows = sum(out[1].count("\n") for name, out in outs.items()
               if name.startswith("verify-") and isinstance(out, tuple))
    if rows < VERIFY_MIN_ROWS:
        return f"{rows} report rows in all suites, expected at least {VERIFY_MIN_ROWS}"
    return None


def setup_verify(mods, rng) -> list:
    cli = mods["cli"]

    def task(suite):
        argv = ["verify", "--suite", suite, "--n-max", "6", "--d-max", "2"]
        return Task(f"verify-{suite}-n6-d2", lambda outs, lap: run_cli(cli, argv), check_verify)

    return [task(suite) for suite in VERIFY_SUITES]


# -------------------------------------------------------------- families

def _parse(line) -> tuple:
    return tuple(int(ch) for ch in line)


def enumeration_check(name, n, count, member):
    """Exit status 0, `count` distinct lines, each a member of length n,
    and stdout byte-identical to the seed's.  Bytes that passed once are
    not parsed again."""
    verified = set()

    def check(result, outs):
        problem = _cli_problem(result)
        if problem:
            return problem
        text = result[1]
        digest = truth.sha256(text)
        if digest in verified:
            return None
        lines = text.splitlines()
        if len(lines) != count:
            return f"{len(lines)} lines, expected {count}"
        if len(set(lines)) != count:
            return "duplicate lines"
        bad = next((ln for ln in lines if len(ln) != n or not member(_parse(ln))), None)
        if bad is not None:
            return f"non-member {bad!r}"
        if digest != truth.PINNED_SHA256[name]:
            return f"stdout sha256 {digest}, pinned {truth.PINNED_SHA256[name]}"
        verified.add(digest)
        return None

    return check


def serialize(words) -> str:
    return "".join("".join(map(str, w)) + "\n" for w in words)


def setup_families(mods, rng) -> list:
    cli, sequences = mods["cli"], mods["sequences"]

    def enumerate_task(name, argv, n, count, member):
        argv = ["enumerate", "--family"] + argv
        return Task(name, lambda outs, lap: run_cli(cli, argv, lap),
                    enumeration_check(name, n, count, member))

    cayley_check = enumeration_check("cayley-n7", 7, truth.FUBINI[7], truth.is_cayley)

    def check_cayley(words, outs):
        # same rules as an enumeration, applied to the list it returns
        return cayley_check((0, serialize(words), ""), outs)

    return [
        enumerate_task("fishburn-n8-d0", ["fishburn", "--n", "8", "--d", "0"],
                       8, truth.FISHBURN[8], truth.is_permutation),
        enumerate_task("irsub-n8", ["irsub", "--n", "8"],
                       8, truth.FISHBURN[8], truth.is_permutation),
        enumerate_task("modinv-n7", ["modinv", "--n", "7"],
                       7, truth.MODINV[7], truth.is_cayley),
        enumerate_task("modasc-n8-d1", ["modasc", "--n", "8", "--d", "1"],
                       8, truth.count_d_ascent(8, 1), truth.is_cayley),
        Task("cayley-n7", lambda outs, lap: sequences.enumerate_cayley(7), check_cayley),
    ]


# ------------------------------------------------------------------ maps

MAPS_INPUTS = ((8, 0), (7, 2))


def setup_maps(mods, rng) -> list:
    hat, burge, fishburn = mods["hat"], mods["burge"], mods["fishburn"]
    tasks = []
    for n, d in MAPS_INPUTS:
        members = list(hat.enumerate_d_asc(n, d))
        rng.shuffle(members)
        tasks += _map_tasks(hat, burge, fishburn, members, n, d)
    return tasks


def _map_tasks(hat, burge, fishburn, members, n, d) -> list:
    tag = f"-n{n}-d{d}"
    k_hat, k_phi = "hat_d" + tag, "phi_d" + tag
    expected = truth.count_d_ascent(n, d)

    def distinct(out, member):
        if len(members) != expected:
            return f"{len(members)} inputs, expected {expected}"
        if len(set(out)) != expected:
            return f"{len(set(out))} distinct images, expected {expected}"
        bad = next((x for x in out if len(x) != n or not member(x)), None)
        return None if bad is None else f"bad image {bad}"

    def check_hat_inv(out, outs):
        bad = next((w for w, v in zip(members, out) if w != v), None)
        if len(out) != len(members) or bad is not None:
            return f"hat_inv(hat_d(w)) != w, first w = {bad}"
        return None

    def check_burget(out, outs):
        bad = next((w for w, a, b in zip(members, out, outs[k_phi]) if a != b), None)
        if len(out) != len(members) or bad is not None:
            return f"burget(hat_d(w)) != phi_d(w), first w = {bad}"
        return None

    def check_active(out, outs):
        for p, active in zip(outs[k_phi], out):
            if not truth.ascent_bottoms(p) <= active or not active <= set(p) or 1 not in active:
                return f"active set {sorted(active)} of {p}"
        return None if len(out) == len(members) else "missing active sets"

    return [
        Task(k_hat, lambda outs, lap: blockwise(lambda w: hat.hat_d(w, d), members, lap),
             lambda out, outs: distinct(out, truth.is_cayley)),
        Task("hat_inv" + tag, lambda outs, lap: blockwise(hat.hat_inv, outs[k_hat], lap),
             check_hat_inv, after=k_hat),
        Task("hat_max" + tag, lambda outs, lap: blockwise(hat.hat_max, members, lap),
             lambda out, outs: distinct(out, truth.is_permutation)),
        Task("burget" + tag, lambda outs, lap: blockwise(burge.burget, outs[k_hat], lap),
             check_burget, after=k_hat),
        Task(k_phi, lambda outs, lap: blockwise(lambda w: fishburn.phi_d(w, d), members, lap),
             lambda out, outs: distinct(out, truth.is_permutation)),
        Task("d_active" + tag,
             lambda outs, lap: blockwise(lambda p: fishburn.d_active_elements(p, d),
                                         outs[k_phi], lap),
             check_active, after=k_phi),
    ]


# ---------------------------------------------------------------- series

SERIES_INTEGER = [(d, -1, 32) for d in range(6)]
SERIES_RATIONAL = [(d, Fraction(1, 2), 24) for d in (1, 2)]
BRUTE_FORCE_N = 10


def series_check(d, q, order):
    def check(result, outs):
        coeffs = [Fraction(c) for c in result.coeffs]
        if len(coeffs) != order + 1:
            return f"{len(coeffs)} coefficients, expected {order + 1}"
        if q == -1:
            if any(c.denominator != 1 for c in coeffs):
                return "non-integer coefficient"
            ints = [int(c) for c in coeffs]
            if ints[:13] != truth.TABLE_213[d]:
                return f"first 13 coefficients {ints[:13]} differ from the table"
            if d == 0 and ints[1:] != [2 ** (n - 1) for n in range(1, order + 1)]:
                return "d = 0 coefficients are not 2^(n-1)"
            if d in truth.ALGEBRAIC and not truth.algebraic_residual_holds(ints, d):
                return "algebraic residual is not zero"
            if not all(0 < c <= truth.catalan(n) for n, c in enumerate(ints)):
                return "a coefficient is outside (0, Catalan(n)]"
        else:
            for n in range(BRUTE_FORCE_N + 1):
                expected = truth.factor_weight_sum(n, d, q + 1)
                if coeffs[n] != expected:
                    return f"coefficient {n} is {coeffs[n]}, brute force gives {expected}"
        return None

    return check


def setup_series(mods, rng) -> list:
    series = mods["series"]
    tasks = []
    for d, q, order in SERIES_INTEGER + SERIES_RATIONAL:
        qname = "qneg1" if q == -1 else "qhalf"
        tasks.append(Task(f"series_Q-d{d}-{qname}-N{order}",
                          lambda outs, lap, d=d, q=q, order=order: series.series_Q(d, q, order),
                          series_check(d, q, order)))
    return tasks


def coefficients_requested() -> int:
    return sum(order + 1 for _, _, order in SERIES_INTEGER + SERIES_RATIONAL)


def _lines(out) -> int:
    return out[1].count("\n") if isinstance(out, tuple) else 0


def setup_kernels(mods, rng) -> list:
    return setup_families(mods, rng) + setup_maps(mods, rng) + setup_series(mods, rng)


def derived_metrics(workload, outs, self_s, task_calls) -> dict:
    """Ratios measured where the work happens, from one traced pass;
    task_calls maps each task to its calls per 'layer.function'."""
    if workload != "kernels":
        return {}
    # generation without a filter examines only what it emits
    emitted = _lines(outs["fishburn-n8-d0"]) + _lines(outs["irsub-n8"])
    examined = (task_calls["fishburn-n8-d0"]["fishburn.is_d_fishburn"]
                + task_calls["irsub-n8"]["fishburn.subdiagonal"])
    orbit = _lines(outs["modinv-n7"])
    hats = task_calls["modinv-n7"]["hat.hat_d"]
    kernel = self_s["series"] + self_s["fractions"]
    return {
        "fishburn.filter_yield": emitted / examined if examined else 1.0,
        "hat.orbit_yield": orbit / hats if hats else 1.0,
        "series.ns_per_coeff": kernel * 1e9 / coefficients_requested(),
    }


SETUPS = {
    "verify": setup_verify,
    "kernels": setup_kernels,
}
