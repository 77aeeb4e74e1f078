"""The three benchmark workloads.

Each workload draws its inputs from its own seeded generator (never from the
library's samplers), runs one operation at a time through the library's
public functions, and checks every output afterwards against the
independent oracles in :mod:`oracles`.

* ``toda-n4``: per seeded Toda point at n = 4, ``in_flow_domain``, ``toda_flow``
  for labels 1..3 at real times in [-1, 1], ``embed`` and ``embed_inverse``.
* ``cjl-n6``: ``cjl_pullback_deviation`` at fd_step 1e-6 on seeded chart
  points at n = 6.
* ``check-n2-4``: the ``check`` command for n = 2, 3, 4 at seed 42 and the
  default sample count, in process through ``cli.main``, one command per
  operation.

``reference_calls`` is how many runs of the reference kernel are timed
between two operations: one where operations take milliseconds, more
between commands of seconds.  ``threaded`` workloads spread over every
CPU, and their reference is timed on each CPU in turn.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import oracles
from centralizer_lab import centralizer, cli, suites, toda
from centralizer_lab.lie_core import build_chevalley

# Oracle agreement bounds, taken from the library's pinned acceptance
# tolerances: conservation and flows 1e-8, embedding triangle 1e-9,
# roundtrips 1e-8, chart pullback 1e-4 at n >= 4.
FLOW_TOL = 1e-8
EMBED_TOL = 1e-9
ROUNDTRIP_TOL = 1e-8
CJL_TOL = 1e-4
# Toda points whose real-part gap is this small are not drawn: the domain
# verdict there depends on rounding, not on the point.
DOMAIN_MARGIN = 1e-6


def _complex_box(rng, size) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size) + 1j * rng.uniform(-1.0, 1.0, size)


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b)))


class TodaN4:
    """The factorization pipeline on seeded Toda points at n = 4."""

    n = 4
    round_size = 8
    reference_calls = 1
    threaded = False

    def __init__(self, seed: int, out_dir: Path):
        self.chev = build_chevalley(self.n)
        self.rng = np.random.default_rng(seed)

    def draw(self):
        """A point in the unit box inside the flow domain, and one real time
        in [-1, 1] per flow label."""
        while True:
            diag = _complex_box(self.rng, self.n)
            diag -= diag.mean()
            coords = _complex_box(self.rng, self.n - 1)
            if oracles.real_part_gap(oracles.toda_matrix(diag, coords)) > DOMAIN_MARGIN:
                break
        times = self.rng.uniform(-1.0, 1.0, self.n - 1)
        return toda.make_toda_point(diag, coords), times

    def run(self, item):
        p, times = item
        chev = self.chev
        inside = toda.in_flow_domain(chev, p)
        flows = [toda.toda_flow(chev, i, t, p) for i, t in enumerate(times, start=1)]
        zp = toda.embed(chev, p)
        back = toda.embed_inverse(chev, zp)
        return inside, flows, zp, back

    def first_call(self):
        self.run(self.draw())

    def check(self, items, outputs) -> list:
        errors = []
        x0 = np.stack([oracles.toda_matrix(p.diag, p.root_coords) for p, _ in items])
        inv0 = oracles.invariants(x0)
        times = np.stack([t for _, t in items])
        for k, (inside, flows, zp, back) in enumerate(outputs):
            if inside is not True:
                errors.append(f"point {k}: in_flow_domain is {inside!r}, oracle gap says inside")
            inv_x = oracles.invariants(zp.x)
            scale = 1.0 + np.linalg.norm(inv0[k])
            checks = {
                "embed invariants": np.linalg.norm(inv_x - inv0[k]) / scale,
                "embed section membership": oracles.section_residual(zp.x),
                "embed stabilizer": oracles.stabilizer_residual(zp.g, zp.x),
            }
            for what, dev in checks.items():
                if not dev <= EMBED_TOL:
                    errors.append(f"point {k}: {what} off by {dev:.3e}")
            dev = _rel(oracles.toda_matrix(back.diag, back.root_coords), x0[k])
            if not dev <= ROUNDTRIP_TOL:
                errors.append(f"point {k}: embed_inverse roundtrip off by {dev:.3e}")
        for i in range(1, self.n):
            expected = oracles.lax_flow(x0, i, times[:, i - 1])
            for k, out in enumerate(outputs):
                flow = out[1][i - 1]
                got = oracles.toda_matrix(flow.diag, flow.root_coords)
                dev_lax = _rel(got, expected[k])
                dev_inv = (np.linalg.norm(oracles.invariants(got) - inv0[k])
                           / (1.0 + np.linalg.norm(inv0[k])))
                if not max(dev_lax, dev_inv) <= FLOW_TOL:
                    errors.append(f"point {k}: flow {i} off the Lax oracle by {dev_lax:.3e}, "
                                  f"invariants by {dev_inv:.3e}")
        return errors

    def busy_seconds(self, outputs) -> float:
        return 0.0


class CjlN6:
    """The chart pullback check on seeded chart points at n = 6."""

    n = 6
    round_size = 4
    reference_calls = 1
    threaded = False
    fd_step = 1e-6

    def __init__(self, seed: int, out_dir: Path):
        self.chev = build_chevalley(self.n)
        self.rng = np.random.default_rng(seed)
        self.etas = oracles.eta_powers(self.n)

    def draw(self):
        """Section coordinates damped by |eta^k| and flow times by
        |grad f_i(s)|, as the command line's sampler does."""
        r = self.n - 1
        coords = _complex_box(self.rng, r) * [0.8 / max(1.0, np.linalg.norm(b))
                                               for b in self.etas]
        s = oracles.xi(self.n) + np.einsum("k,kab->ab", coords, np.stack(self.etas))
        lam = _complex_box(self.rng, r) * [
            0.4 / max(1.0, np.linalg.norm(oracles.gradient(s, i))) for i in range(1, r + 1)]
        return centralizer.CJLPoint(lam=lam, s=s)

    def run(self, item):
        return centralizer.cjl_pullback_deviation(self.chev, item, fd_step=self.fd_step)

    def first_call(self):
        self.run(self.draw())

    def check(self, items, outputs) -> list:
        errors = []
        for k, (c, res) in enumerate(zip(items, outputs)):
            got = (res.flow_flow, res.flow_section, res.section_section)
            exact = oracles.cjl_pullback_blocks(c.lam, c.s)
            if not max(got) <= CJL_TOL:
                errors.append(f"point {k}: pullback deviation {max(got):.3e} above {CJL_TOL:.0e}")
            if not max(exact) <= 1e-9:
                errors.append(f"point {k}: oracle pullback deviation {max(exact):.3e}")
            g = centralizer.cjl_chart(self.chev, c).g
            dev = np.linalg.norm(g - oracles.chart(c.lam, c.s)) / np.linalg.norm(g)
            if not dev <= 1e-10:
                errors.append(f"point {k}: chart off the exp oracle by {dev:.3e}")
        return errors

    def busy_seconds(self, outputs) -> float:
        return 0.0


class CheckN2to4:
    """``centralizer-lab check`` for n = 2, 3, 4; one operation is one
    command, one round four sweeps."""

    sizes = (2, 3, 4)
    seed = 42
    # Four sweeps per round: repeated reports to compare, and enough
    # commands that the run-to-run spread of their mean stays small.
    round_size = 4 * len(sizes)
    reference_calls = 100
    # The command's worker pool runs on every CPU, so the reference does too.
    threaded = True

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.drawn = 0

    def draw(self) -> int:
        n = self.sizes[self.drawn % len(self.sizes)]
        self.drawn += 1
        return n

    def run(self, n: int):
        path = self.out_dir / f"check-n{n}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["check", "--n", str(n), "--seed", str(self.seed),
                             "--out", str(path)])
        return code, json.loads(path.read_text())

    def first_call(self):
        for n in self.sizes:
            result = suites.run_check("kostant_stabilizer_lift", n, self.seed, 1,
                                      suites.Tolerances())
            if not result.passed:
                raise RuntimeError(f"set-up check failed at n={n}: {result}")

    def check(self, items, outputs) -> list:
        errors = []
        names = list(suites.CHECKS)
        first = {}
        for k, (n, (code, report)) in enumerate(zip(items, outputs)):
            config = report["config"]
            if code != 0 or report["passed"] is not True:
                failing = [c["name"] for c in report["checks"] if not c["passed"]]
                errors.append(f"command {k}: check --n {n} exited {code}, failing {failing}")
            if (config["n"], config["seed"], config["samples"]) != (n, self.seed, 25):
                errors.append(f"command {k}: report config {config} is not n={n}, seed 42, 25")
            if [c["name"] for c in report["checks"]] != names:
                errors.append(f"command {k}: check --n {n} did not run every check")
            stripped = json.dumps([{key: v for key, v in c.items() if key != "seconds"}
                                   for c in report["checks"]], sort_keys=True)
            if first.setdefault(n, stripped) != stripped:
                errors.append(f"command {k}: check --n {n} report differs from the "
                              "first one apart from seconds")
        return errors

    def busy_seconds(self, outputs) -> float:
        """Summed per-check wall times of one sweep, averaged over sweeps."""
        sweeps = len(outputs) / len(self.sizes)
        return sum(c["seconds"] for _, report in outputs for c in report["checks"]) / sweeps


WORKLOADS = {"toda-n4": TodaN4, "cjl-n6": CjlN6, "check-n2-4": CheckN2to4}
