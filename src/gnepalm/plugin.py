"""Declarative polynomial problem files.

The format is line oriented; ``#`` starts a comment and blank lines are
ignored::

    name duopoly_shared
    players 2
    dims 1 1
    shared
    x0 origin 0 0
    x0 ones 1 1

    player 1
    theta 1 (2 0)  -2 (1 0)  1 (0 0)
    g 1 (1 0)  1 (0 1)  -1 (0 0)

    player 2
    theta 1 (0 2)  -1 (0 1)  0.25 (0 0)
    g 1 (1 0)  1 (0 1)  -1 (0 0)

Header lines declare the player count, per-player dimensions, optional
``shared`` flag, and named start vectors.  Inside a ``player k`` section
(1-based), ``theta`` gives the objective and each ``g`` line one constraint
``g(x) <= 0``, all as monomial sums ``coefficient (e1 ... en)`` with one
nonnegative integer exponent per variable.  Every constraint is penalized:
an ``h`` line, which would keep a constraint out of the penalty, is
rejected.  Polynomials have exact first and second derivatives, so loaded
problems satisfy the full callback contract and pass the finite-difference
validator.  The ``shared`` flag is verified by structural equality of the
players' constraint lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import ConstraintBundle, GnepProblem, ObjectiveBundle, PlayerSpec

__all__ = ["PluginError", "Polynomial", "Monomial", "load_problem_plugin", "parse_problem_text"]


class PluginError(ValueError):
    """Problem-file parse or validation error, located by line."""

    def __init__(self, source: str, line: int | None, message: str) -> None:
        where = source if line is None else f"{source}, line {line}"
        super().__init__(f"{where}: {message}")
        self.source = source
        self.line = line


@dataclass(frozen=True)
class Monomial:
    coeff: float
    exponents: tuple[int, ...]


class Polynomial:
    """Sum of monomials in ``n`` variables with exact derivatives."""

    def __init__(self, monomials: list[Monomial], n: int) -> None:
        self.monomials = tuple(monomials)
        self.n = n

    def value(self, x: np.ndarray) -> float:
        total = 0.0
        for mono in self.monomials:
            total += mono.coeff * _power_product(x, mono.exponents)
        return total

    def grad(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n)
        for mono in self.monomials:
            for j, e in enumerate(mono.exponents):
                if e == 0:
                    continue
                out[j] += mono.coeff * e * _power_product(x, mono.exponents, drop={j: 1})
        return out

    def hess(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for mono in self.monomials:
            exps = mono.exponents
            for j, ej in enumerate(exps):
                if ej == 0:
                    continue
                for k, ek in enumerate(exps):
                    if j == k:
                        if ej >= 2:
                            out[j, j] += (
                                mono.coeff * ej * (ej - 1)
                                * _power_product(x, exps, drop={j: 2})
                            )
                    elif ek >= 1:
                        out[j, k] += (
                            mono.coeff * ej * ek
                            * _power_product(x, exps, drop={j: 1, k: 1})
                        )
        return out

    def canonical(self) -> tuple:
        """Merged, sorted monomial list; the structural-equality key."""
        merged: dict[tuple[int, ...], float] = {}
        for mono in self.monomials:
            merged[mono.exponents] = merged.get(mono.exponents, 0.0) + mono.coeff
        return tuple(
            (exps, coeff) for exps, coeff in sorted(merged.items()) if coeff != 0.0
        )


def _power_product(x: np.ndarray, exponents: tuple[int, ...], drop: dict[int, int] | None = None) -> float:
    prod = 1.0
    for i, e in enumerate(exponents):
        if drop and i in drop:
            e -= drop[i]
        if e:
            prod *= float(x[i]) ** e
    return prod


def _int(tok: str) -> int | None:
    """``tok`` as an integer if it is decimal digits after an optional '-', else None."""
    # str.isdigit() also passes superscripts such as '²', which int() rejects,
    # and int() rejects digit strings longer than its conversion limit.
    if tok.removeprefix("-").isdecimal():
        try:
            return int(tok)
        except ValueError:
            pass
    return None


def _split_tokens(line: str) -> list[str]:
    return line.replace("(", " ( ").replace(")", " ) ").split()


def _parse_polynomial(tokens: list[str], n: int, source: str, lineno: int) -> Polynomial:
    monomials = []
    i = 0
    while i < len(tokens):
        try:
            coeff = float(tokens[i])
        except ValueError:
            raise PluginError(source, lineno, f"expected a coefficient, found '{tokens[i]}'")
        i += 1
        if i >= len(tokens) or tokens[i] != "(":
            raise PluginError(source, lineno, "expected '(' opening an exponent tuple")
        i += 1
        exps = []
        while i < len(tokens) and tokens[i] != ")":
            e = _int(tokens[i])
            if e is None:
                raise PluginError(source, lineno, f"exponent '{tokens[i]}' is not an integer")
            if e < 0:
                raise PluginError(source, lineno, "exponents must be nonnegative")
            exps.append(e)
            i += 1
        if i >= len(tokens):
            raise PluginError(source, lineno, "unterminated exponent tuple")
        i += 1
        if len(exps) != n:
            raise PluginError(
                source, lineno,
                f"exponent tuple has {len(exps)} entries, expected {n} (one per variable)",
            )
        monomials.append(Monomial(coeff, tuple(exps)))
    if not monomials:
        raise PluginError(source, lineno, "empty polynomial")
    return Polynomial(monomials, n)


def _build_player(
    dims: list[int], nu: int, theta: Polynomial | None, g_polys: list[Polynomial], n: int
) -> PlayerSpec:
    start = sum(dims[:nu])
    rows = slice(start, start + dims[nu])

    if theta is None:
        objective = ObjectiveBundle(
            value=lambda x: 0.0,
            grad=lambda x: np.zeros(dims[nu]),
            hess=lambda x: np.zeros((dims[nu], n)),
        )
    else:
        objective = ObjectiveBundle(
            value=theta.value,
            grad=lambda x, p=theta: p.grad(x)[rows],
            hess=lambda x, p=theta: p.hess(x)[rows, :],
        )

    if not g_polys:
        return PlayerSpec(dims[nu], objective)
    g = ConstraintBundle(
        count=len(g_polys),
        value=lambda x: np.array([p.value(x) for p in g_polys]),
        grad=lambda x: np.column_stack([p.grad(x) for p in g_polys]),
        hess=lambda x: np.stack([p.hess(x)[rows, :] for p in g_polys]),
    )
    return PlayerSpec(dims[nu], objective, g=g)


def parse_problem_text(text: str, source: str = "<string>") -> GnepProblem:
    """Parse the declarative format into a :class:`GnepProblem`."""
    name = ""
    n_players: int | None = None
    dims: list[int] | None = None
    shared = False
    presets: dict[str, list[float]] = {}
    thetas: dict[int, Polynomial] = {}
    gs: dict[int, list[Polynomial]] = {}
    current: int | None = None
    n = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = _split_tokens(line)
        key = tokens[0]
        if key == "name":
            name = " ".join(tokens[1:])
        elif key == "players":
            n_players = _int(tokens[1]) if len(tokens) == 2 else None
            if n_players is None or n_players < 1:
                raise PluginError(source, lineno, "players takes one positive integer")
        elif key == "dims":
            if n_players is None:
                raise PluginError(source, lineno, "declare players before dims")
            if len(tokens) != n_players + 1:
                raise PluginError(source, lineno, f"dims needs {n_players} integers")
            try:
                dims = [int(t) for t in tokens[1:]]
            except ValueError:
                raise PluginError(source, lineno, "dims must be integers")
            if any(d < 1 for d in dims):
                raise PluginError(source, lineno, "dims must be positive")
            n = sum(dims)
        elif key == "shared":
            shared = True
        elif key == "x0":
            if dims is None:
                raise PluginError(source, lineno, "declare dims before x0 presets")
            if len(tokens) < 2:
                raise PluginError(source, lineno, "x0 needs a label and values")
            label = tokens[1]
            try:
                vec = [float(t) for t in tokens[2:]]
            except ValueError:
                raise PluginError(source, lineno, "x0 values must be numbers")
            if len(vec) != n:
                raise PluginError(source, lineno, f"x0 '{label}' needs {n} values")
            presets[label] = vec
        elif key == "player":
            if dims is None:
                raise PluginError(source, lineno, "declare players and dims before sections")
            idx = _int(tokens[1]) if len(tokens) == 2 else None
            if idx is None:
                raise PluginError(source, lineno, "player takes one index")
            if not 1 <= idx <= (n_players or 0):
                raise PluginError(source, lineno, f"player index {idx} out of range")
            current = idx - 1
            gs.setdefault(current, [])
        elif key == "h":
            raise PluginError(
                source, lineno,
                "'h' (kept) constraints are not supported; write the constraint as a 'g' line",
            )
        elif key in ("theta", "g"):
            if current is None or dims is None:
                raise PluginError(source, lineno, f"'{key}' must appear inside a player section")
            poly = _parse_polynomial(tokens[1:], n, source, lineno)
            if key == "theta":
                if current in thetas:
                    raise PluginError(source, lineno, "duplicate theta for this player")
                thetas[current] = poly
            else:
                gs[current].append(poly)
        else:
            raise PluginError(source, lineno, f"unknown directive '{key}'")

    if n_players is None or dims is None:
        raise PluginError(source, None, "missing players/dims header")
    missing = [i + 1 for i in range(n_players) if i not in gs]
    if missing:
        raise PluginError(source, None, f"missing sections for players {missing}")

    if shared:
        ref_g = [p.canonical() for p in gs[0]]
        for nu in range(1, n_players):
            if [p.canonical() for p in gs[nu]] != ref_g:
                raise PluginError(
                    source, None,
                    f"shared flag set but player {nu + 1}'s constraints differ "
                    "from player 1's",
                )

    players = [
        _build_player(dims, nu, thetas.get(nu), gs[nu], n)
        for nu in range(n_players)
    ]
    return GnepProblem(
        players, shared_constraints=shared, name=name or source, x0_presets=presets
    )


def load_problem_plugin(path: str | Path) -> GnepProblem:
    """Load a problem from a declarative polynomial file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise PluginError(str(path), None, f"cannot read file: {exc}") from None
    return parse_problem_text(text, source=str(path))
