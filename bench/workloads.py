"""The benchmark's four workloads: inputs, timed jobs and their checks.

A workload is a list of jobs.  ``Job.run`` is the timed call into coxlow;
it builds every root system, small-root set and automaton it needs, so no
pass reuses the caches coxlow keeps on a root system.  ``Job.checks``
turn the job's answer into (observed, expected) pairs after the timed
region.  Every coxlow function is looked up on its module at call time,
so that the tracer's wrappers are the ones called when it is installed.
"""

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import coxlow
import coxlow.cli

from expected import (
    CROSS_CHECK,
    FINITE_ORDER,
    GBIP_ELEMENTS,
    GBIP_LENGTH,
    LAMBDA,
    RECORDED,
    SHI_REGIONS,
    SIGMA,
    THEOREM,
    VERIFY_GBIP_ELEMENTS,
)


@dataclass
class Check:
    label: str
    source: str
    # answer -> (observed, expected); the check passes when they are equal
    compare: object


@dataclass
class Job:
    label: str
    run: object
    checks: list = field(default_factory=list)


class Oracle:
    """Cross-check values, computed once per group with fresh root systems
    that no job ever sees."""

    def __init__(self, load):
        self._load = load          # group name -> new root system
        self._memo = {}

    def _get(self, kind, name, fn):
        key = (kind, name)
        if key not in self._memo:
            self._memo[key] = fn(self._load(name))
        return self._memo[key]

    def walk_counts(self, name, length):
        """Element counts per length from the matrix walk."""
        return self._get(("walk", length), name, lambda rs: [
            len(entries) for _, entries in coxlow.elements_by_length(rs, length)])

    def shortlex_counts(self, name, length):
        """Element counts per length from the ShortLex automaton."""
        return self._get(("shortlex", length), name, lambda rs: coxlow.count_elements(
            rs, coxlow.small_roots(rs), length))

    def low_and_realizes(self, name, built):
        """Is every built element low, with the small inversion set asked for?"""
        def verdict(rs):
            sigma = coxlow.small_roots(rs)
            return all(coxlow.is_low(rs, sigma, coxlow.Element(word))
                       and coxlow.small_inversion_mask(
                           rs, sigma, coxlow.Element(word)) == mask
                       for mask, word in built)
        return self._get(("builder", built), name, verdict)


def _shuffled(jobs, rng):
    rng.shuffle(jobs)
    return jobs


# -- CLI calls ----------------------------------------------------------

def call_cli(argv):
    """coxlow.cli.main with its output captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = coxlow.cli.main(argv)
    return code, out.getvalue()


def cli_json(text):
    """The JSON document a command prints after its text lines."""
    return json.loads(text[text.index("\n{\n") + 1:])


def _cli_job(label, argv, checks):
    return Job(label, lambda: call_cli(argv), checks)


def _exit_check(expected_code):
    return Check("exit code", RECORDED, lambda a: (a[0], expected_code))


# -- verify-cli ---------------------------------------------------------

VERIFY_FILES = ("hyperbolic-3-3-4", "universal", "affine-3-3-3")


def verify_cli(root, workdir, seed):
    """`coxlow verify --max-length 12 --polytopes` on three demo groups;
    affine-3-3-3's file selects the rational backend."""
    groups = root / "demos" / "groups"
    oracle = Oracle(lambda name: coxlow.load_root_system(
        (groups / (name + ".json")).read_text()))
    jobs = []
    for name in VERIFY_FILES:
        path = str(groups / (name + ".json"))
        checks = [
            _exit_check(0),
            Check("|Sigma|", RECORDED,
                  lambda a, n=name: (cli_json(a[1])["n_sigma"], SIGMA[n])),
            Check("|Lambda|", RECORDED,
                  lambda a, n=name: (cli_json(a[1])["n_lambda"], LAMBDA[n])),
            Check("n_low = |Lambda|", CROSS_CHECK, lambda a: (
                cli_json(a[1])["n_low"], cli_json(a[1])["n_lambda"])),
            Check("bijective", CROSS_CHECK,
                  lambda a: (cli_json(a[1])["bijective"], True)),
            Check("G_bip elements", RECORDED, lambda a, n=name: (
                cli_json(a[1])["gbip"]["elements_checked"],
                VERIFY_GBIP_ELEMENTS[n])),
            Check("G_bip elements = element count", CROSS_CHECK,
                  lambda a, n=name: (
                      cli_json(a[1])["gbip"]["elements_checked"],
                      sum(oracle.shortlex_counts(n, 8)))),
            Check("G_bip violations", RECORDED, lambda a: (
                cli_json(a[1])["gbip"]["violations"], 0)),
            Check("polytopes matched", RECORDED, lambda a: (
                cli_json(a[1])["polytopes"]["matched"],
                cli_json(a[1])["polytopes"]["total"])),
        ]
        if name in SHI_REGIONS:
            checks.append(Check("n_low = (h+1)^2", THEOREM, lambda a, n=name: (
                cli_json(a[1])["n_low"], SHI_REGIONS[n])))
        argv = ["verify", path, "--max-length", "12", "--polytopes"]
        jobs.append(_cli_job("verify " + name, argv, checks))
    return _shuffled(jobs, random.Random(seed))


# -- battery-proof ------------------------------------------------------

def _stable_job(name):
    def run():
        rs = coxlow.battery_root_system(name)
        sigma = coxlow.small_roots(rs)
        aut = coxlow.build_automaton(rs, sigma)
        lows, report, reached = coxlow.enumerate_low_stable(rs, sigma, cap=25)
        bij = coxlow.verify_bijection(rs, sigma, aut, reached)
        return {"n_sigma": len(sigma), "n_lambda": bij.n_lambda,
                "n_low": bij.n_low, "bijective": bij.bijective,
                "complete": report.complete, "n_stable": len(lows)}

    checks = [
        Check("|Sigma|", RECORDED, lambda a: (a["n_sigma"], SIGMA[name])),
        Check("|Lambda|", RECORDED, lambda a: (a["n_lambda"], LAMBDA[name])),
        Check("n_low = |Lambda|", CROSS_CHECK,
              lambda a: (a["n_low"], a["n_lambda"])),
        Check("bijective", CROSS_CHECK, lambda a: (a["bijective"], True)),
        Check("stable search complete", CROSS_CHECK,
              lambda a: ((a["complete"], a["n_stable"]), (True, a["n_low"]))),
    ]
    if name in FINITE_ORDER:
        checks.append(Check("n_low = |W|", THEOREM,
                            lambda a: (a["n_low"], FINITE_ORDER[name])))
    if name in SHI_REGIONS:
        checks.append(Check("n_low = (h+1)^2", THEOREM,
                            lambda a: (a["n_low"], SHI_REGIONS[name])))
    return Job("stable " + name, run, checks)


def _builder_job(name, oracle):
    def run():
        rs = coxlow.battery_root_system(name)
        sigma = coxlow.small_roots(rs)
        aut = coxlow.build_automaton(rs, sigma)
        memo = {}
        return tuple(
            (mask, coxlow.construct_low_from_lambda(rs, sigma, mask,
                                                    _memo=memo).word)
            for mask in aut.states)

    checks = [
        Check("built |Lambda|", RECORDED, lambda a: (len(a), LAMBDA[name])),
        Check("built elements low and realize lambda", CROSS_CHECK,
              lambda a: (oracle.low_and_realizes(name, a), True)),
    ]
    return Job("builder " + name, run, checks)


def _gbip_job(name, oracle):
    def run():
        rs = coxlow.battery_root_system(name)
        checked = violations = 0
        for _, entries in coxlow.elements_by_length(rs, GBIP_LENGTH):
            for elem, _, _ in entries:
                graph = coxlow.build_gbip(rs, elem)
                acyclic, _ = coxlow.check_acyclic(graph)
                ok = acyclic and set(coxlow.source_generators(graph)) <= \
                    coxlow.left_descents(rs, elem)
                checked += 1
                violations += 0 if ok else 1
        return checked, violations

    checks = [
        Check("G_bip elements", RECORDED,
              lambda a: (a[0], GBIP_ELEMENTS[name])),
        Check("G_bip elements = element count", CROSS_CHECK, lambda a: (
            a[0], sum(oracle.shortlex_counts(name, GBIP_LENGTH)))),
        Check("G_bip violations", RECORDED, lambda a: (a[1], 0)),
    ]
    return Job("gbip " + name, run, checks)


def battery_proof(root, workdir, seed, names=None):
    """The rank-3 proof apparatus over the battery, one fresh group per job:
    the bijection at the stable length, the constructive builder for every
    automaton state, and the G_bip checks on all elements of length <= 10."""
    oracle = Oracle(coxlow.battery_root_system)
    names = names or [name for name, _, _ in coxlow.BATTERY]
    jobs = []
    for name in names:
        jobs += [_stable_job(name), _builder_job(name, oracle),
                 _gbip_job(name, oracle)]
    return _shuffled(jobs, random.Random(seed))


# -- light-cli ----------------------------------------------------------

DEMO_FILES = ("hyperbolic-3-3-4", "universal", "affine-3-3-3",
              "universal-override", "infinite-dihedral")
RANDOM_BONDS = (2, 3, 4, 5, 6, 7, coxlow.INF)
RANDOM_GROUPS = 8
GROWTH_TERMS = 200
GROWTH_CHECKED = 8      # lengths cross-checked against the matrix walk
_DOT_NODE = re.compile(r'^  n(\d+) \[shape=circle', re.M)
_DOT_EDGE = re.compile(r'^  n(\d+) -> n(\d+) ', re.M)
_DOT_PRINTED = re.compile(r'automaton: (\d+) states')
DOMINANCE = json.loads((Path(__file__).parent / "dominance.json").read_text())


def bond_key(bonds):
    """Key of a rank-3 group in dominance.json."""
    return "-".join("inf" if b == coxlow.INF else str(b) for b in sorted(bonds))


@dataclass
class GroupFile:
    path: Path
    rank: int
    known: str = None      # name under which expected values are recorded
    bonds: tuple = None    # bond labels of a seed-drawn group


def light_inputs(root, workdir, rng, n_random=RANDOM_GROUPS):
    """Group files for light-cli: the demo files, the battery written out
    with group_to_json, and seed-drawn rank-3 groups.  Returns
    {label: GroupFile}."""
    inputs = {}
    for name in DEMO_FILES:
        path = root / "demos" / "groups" / (name + ".json")
        inputs[name] = GroupFile(path, json.loads(path.read_text())["rank"],
                                 name)
    workdir.mkdir(parents=True, exist_ok=True)
    groups = [("battery-" + name, bonds, overrides, name)
              for name, bonds, overrides in coxlow.BATTERY]
    for i in range(n_random):
        bonds = tuple(rng.choice(RANDOM_BONDS) for _ in range(3))
        label = "-".join("inf" if b == coxlow.INF else str(b) for b in bonds)
        groups.append(("random%d-%s" % (i, label), bonds, None, None))
    for label, bonds, overrides, known in groups:
        path = workdir / (label + ".json")
        path.write_text(coxlow.group_to_json(coxlow.triangle_matrix(*bonds),
                                             overrides))
        inputs[label] = GroupFile(path, 3, known, None if known else bonds)
    return inputs


def _dot_summary(dot, answer):
    """(states in the DOT file, every edge joins two states, printed count)."""
    text = dot.read_text()
    nodes = {int(n) for n in _DOT_NODE.findall(text)}
    edges_ok = all(int(u) in nodes and int(v) in nodes
                   for u, v in _DOT_EDGE.findall(text))
    return len(nodes), edges_ok, int(_DOT_PRINTED.search(answer[1]).group(1))


def _light_jobs(label, group, workdir, oracle):
    path = str(group.path)
    dot = workdir / (label + ".dot")
    known = group.known

    if known:
        sigma_checks = [Check("|Sigma|", RECORDED, lambda a: (
            cli_json(a[1])["count"], SIGMA[known]))]
    else:
        sigma_checks = [Check("Sigma depths = dominance oracle", CROSS_CHECK,
                              lambda a: (sorted(r["depth"] for r in cli_json(
                                  a[1])["roots"]),
                                  DOMINANCE[bond_key(group.bonds)]))]

    automaton_checks = [
        Check("DOT states = printed count", CROSS_CHECK, lambda a: (
            _dot_summary(dot, a)[0], _dot_summary(dot, a)[2])),
        Check("DOT edges join states", CROSS_CHECK,
              lambda a: (_dot_summary(dot, a)[1], True)),
    ]
    if known:
        automaton_checks.append(Check("|Lambda|", RECORDED, lambda a: (
            _dot_summary(dot, a)[0], LAMBDA[known])))

    growth_checks = [
        Check("terms", RECORDED, lambda a: (
            [len(cli_json(a[1])[k]) for k in ("reduced_words", "elements")],
            [GROWTH_TERMS + 1] * 2)),
        Check("elements = matrix walk", CROSS_CHECK, lambda a: (
            cli_json(a[1])["elements"][:GROWTH_CHECKED + 1],
            _padded(oracle.walk_counts(label, GROWTH_CHECKED),
                    GROWTH_CHECKED + 1))),
        Check("words >= elements", THEOREM, lambda a: (all(
            w >= e for w, e in zip(cli_json(a[1])["reduced_words"],
                                   cli_json(a[1])["elements"])), True)),
    ]
    if known in FINITE_ORDER:
        growth_checks.append(Check("sum of elements = |W|", THEOREM, lambda a: (
            sum(cli_json(a[1])["elements"]), FINITE_ORDER[known])))

    if group.rank == 3:
        render_checks = [_exit_check(0), Check("SVG document", RECORDED, lambda a: (
            (a[1].startswith("<svg "), a[1].endswith("</svg>\n")), (True, True)))]
    else:
        render_checks = [_exit_check(2)]

    return [
        _cli_job("small-roots " + label, ["small-roots", path],
                 [_exit_check(0)] + sigma_checks),
        _cli_job("automaton " + label, ["automaton", path, "--dot", str(dot)],
                 [_exit_check(0)] + automaton_checks),
        _cli_job("growth " + label, ["growth", path, "--terms",
                                     str(GROWTH_TERMS), "--elements"],
                 [_exit_check(0)] + growth_checks),
        _cli_job("render " + label, ["render", path, "--depth", "6",
                                     "--lambdas"], render_checks),
    ]


def _padded(counts, n):
    return counts + [0] * (n - len(counts))


def light_cli(root, workdir, seed, n_random=RANDOM_GROUPS):
    """Many short `coxlow` calls (small-roots, automaton --dot, growth
    --elements, render) over demo, battery and seed-drawn groups."""
    rng = random.Random(seed)
    inputs = light_inputs(root, workdir, rng, n_random)
    oracle = Oracle(lambda label: coxlow.load_root_system(
        inputs[label].path.read_text()))
    jobs = []
    for label, group in inputs.items():
        jobs += _light_jobs(label, group, workdir, oracle)
    return _shuffled(jobs, rng)


# -- deep-walk ----------------------------------------------------------

DEEP_GROUP = "hyperbolic-2-3-7"
DEEP_LENGTH = 59


def deep_walk(root, workdir, seed, length=DEEP_LENGTH):
    """The matrix walk to length 59 on hyperbolic-2-3-7 (float), each
    level's size compared with the ShortLex automaton's count."""
    oracle = Oracle(coxlow.battery_root_system)

    def run():
        rs = coxlow.battery_root_system(DEEP_GROUP)
        return [len(entries)
                for _, entries in coxlow.elements_by_length(rs, length)]

    checks = [Check("level %d size" % k, CROSS_CHECK, lambda a, k=k: (
        a[k] if k < len(a) else None,
        oracle.shortlex_counts(DEEP_GROUP, length)[k]))
        for k in range(length + 1)]
    return [Job("walk %s to %d" % (DEEP_GROUP, length), run, checks)]


WORKLOADS = {
    "verify-cli": verify_cli,
    "battery-proof": battery_proof,
    "light-cli": light_cli,
    "deep-walk": deep_walk,
}
