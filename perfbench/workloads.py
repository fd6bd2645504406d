"""Seeded op lists for the four workloads, and the known answer each op must print.

An op is the argv of one `qnarayana` invocation.  Ops are generated in
blocks.  Every block of a workload holds the same strata (which verb, which
family, which slice of the order/depth/n range), and which identity or
family gets which slice depends on the block's index only; the seed picks
the exact value inside each stratum and the order of the block.  So runs
of the same number of blocks see the same mix of work, and the median does
not jump with the draw, while a second seed still feeds the program
different argv.

The answers are computed here from the closed forms, never read from the
program's fixtures.
"""

from __future__ import annotations

import itertools
import json
import random
from math import comb

IDENTITIES = ("eq15", "eq16", "eq18", "eq19", "eq20", "eq23",
              "eq24", "eq25", "eq27", "eq28", "g_at_1", "g_at_m1")

GATE_CHECKS = 31
BARE_VERIFY_CHECKS = 19
ORACLE_CHECKS = 3

# The op list is at least this long; a run that gets through it starts over.
MIN_LIST_OPS = 400


def _sliced(rng, lo, hi, count):
    """`count` integers in [lo, hi], the k-th drawn from the k-th of `count` equal slices."""
    width = hi - lo + 1
    return [lo + int((k + rng.random()) * width / count) for k in range(count)]


def _gate_blocks(rng):
    # The same two ops alternate, one per block; the seed picks which leads.
    # They cost the same, so a block of one op wastes no op of a run (only
    # whole blocks are timed, and a run holds 8 to 12 of these ops).
    ops = [("verify", "--all"), ("verify", "--all", "--json")]
    if rng.random() < 0.5:
        ops.reverse()
    for b in itertools.count():
        yield [ops[b % 2]]


def _cfrac_blocks(rng):
    # One family per block, the two alternating; the seed picks which leads.
    # Depth 12 holds half of each block, with a quarter of the ops below it
    # and a quarter above, so the median falls in the middle of the depth-12
    # cluster, not on its edge next to the cheaper depths.
    families = ("c", "g") if rng.random() < 0.5 else ("g", "c")
    for b in itertools.count():
        ops = [("cfrac", "--family", families[b % 2], "--depth", str(depth))
               for depth in (10, 11, 12, 12, 12, 12, 13, 13)]
        rng.shuffle(ops)
        yield ops


def _ring_blocks(rng):
    # 12 identity ops (60%) and 8 Hankel ops (40%).  In block b, identity k
    # takes its order from slice (k + b) mod 12 and Hankel config k its max-n
    # from slice (k + b) mod 8, so every seed sends the same mix of costs and
    # only the values inside the slices and the op order follow the seed.
    configs = [(family, shift) for family in ("c", "C") for shift in ("0", "1")] * 2
    for b in itertools.count():
        orders = _sliced(rng, 70, 90, 12)
        max_ns = _sliced(rng, 16, 20, 8)
        ops = [("verify", "--identity", name, "--order", str(orders[(k + b) % 12]), "--json")
               for k, name in enumerate(IDENTITIES)]
        ops += [("hankel", "--family", family, "--shift", shift, "--max-n", str(max_ns[(k + b) % 8]))
                for k, (family, shift) in enumerate(configs)]
        rng.shuffle(ops)
        yield ops


def _routes_blocks(rng):
    # In block b, oracle k pairs q slice k with sym slice (k + b) mod 6.
    for b in itertools.count():
        ops = [("verify", "--order", str(order)) for order in _sliced(rng, 20, 40, 6)]
        qs, syms = _sliced(rng, 8, 10, 6), _sliced(rng, 12, 14, 6)
        ops += [("oracle", "--q-max-n", str(qs[k]), "--sym-max-n", str(syms[(k + b) % 6]))
                for k in range(6)]
        rng.shuffle(ops)
        yield ops


BLOCKS = {
    "gate": _gate_blocks,
    "cfrac-deep": _cfrac_blocks,
    "ring-deep": _ring_blocks,
    "routes-oracle": _routes_blocks,
}


def generate(workload: str, seed: int) -> tuple[list[tuple[str, ...]], int]:
    """The op list for one workload and seed, and the length of its first block."""
    blocks = BLOCKS[workload](random.Random(f"{workload}:{seed}"))
    ops = next(blocks)
    first_block = len(ops)
    while len(ops) < MIN_LIST_OPS:
        ops = ops + next(blocks)
    return ops, first_block


def _monomial(coeff: int, power: int) -> str:
    """coeff * t^power in the program's canonical form, coeff = +-1."""
    body = "1" if power == 0 else "t" if power == 1 else f"t^{power}"
    return body if coeff > 0 else "-" + body


def _hankel_lines(family: str, shift: int, max_n: int) -> list[str]:
    # det H_n = t^C(n,2); negated for the shifted c family when C(n,2) is odd.
    lines = []
    for n in range(1, max_n + 1):
        e = comb(n, 2)
        want = _monomial(-1 if family == "c" and shift == 1 and e % 2 else 1, e)
        lines.append(f"n={n} det={want} expected={want} match")
    return lines


def _jfraction_s(family: str, k: int) -> str:
    if family == "g":  # s_k = (-1)^k (1+t)
        return "1+t" if k % 2 == 0 else "-1-t"
    if k == 0:         # family c: s_0 = 1, s_k = (-1)^k (1-t)
        return "1"
    return "1-t" if k % 2 == 0 else "-1+t"


def _cfrac_lines(family: str, depth: int) -> list[str]:
    t_k = "-t" if family == "g" else "t"
    lines = [f"s_{k} extracted={_jfraction_s(family, k)} expected={_jfraction_s(family, k)} match"
             for k in range(depth + 1)]
    lines += [f"t_{k} extracted={t_k} expected={t_k} match" for k in range(depth)]
    return lines


def _registry_text_ok(lines: list[str], count: int) -> bool:
    return (len(lines) == count + 1
            and all(line.startswith("PASS ") for line in lines[:-1])
            and lines[-1] == f"{count}/{count} checks passed")


def _option(op, flag):
    return op[op.index(flag) + 1]


def check(op: tuple[str, ...], stdout: str) -> str | None:
    """None when stdout is the known answer for op, else what is wrong with it."""
    try:
        return _check(op, stdout)
    except ValueError as exc:  # stdout is not the JSON the op promises
        return f"unreadable output: {exc}"


def _check(op, stdout):
    lines = stdout.splitlines()
    verb = op[0]
    if verb == "verify" and "--all" in op:
        if "--json" in op:
            payload = json.loads(stdout)
            checks = payload.get("checks", [])
            ok = (payload.get("status") == "pass" and len(checks) == GATE_CHECKS
                  and all(c.get("status") == "pass" for c in checks))
        else:
            ok = _registry_text_ok(lines, GATE_CHECKS)
    elif verb == "verify" and "--identity" in op:
        want = {"status": "pass", "reports": [
            {"identity": _option(op, "--identity"), "order": int(_option(op, "--order")), "status": "pass"}]}
        ok = json.loads(stdout) == want
    elif verb == "verify":
        ok = _registry_text_ok(lines, BARE_VERIFY_CHECKS)
    elif verb == "oracle":
        ok = _registry_text_ok(lines, ORACLE_CHECKS)
    elif verb == "hankel":
        ok = lines == _hankel_lines(_option(op, "--family"), int(_option(op, "--shift")),
                                    int(_option(op, "--max-n")))
    elif verb == "cfrac":
        ok = lines == _cfrac_lines(_option(op, "--family"), int(_option(op, "--depth")))
    else:
        return f"no known answer for verb {verb!r}"
    return None if ok else "output differs from the known answer"
