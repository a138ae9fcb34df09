"""Feasibility theories: axiom schemas plus an equality oracle.

A theory bundles a signature, named axiom schemas (tuples of antecedent
formulas and one succedent formula over schema variables), an oracle
deciding term equality where this is safely possible, and an optional
instantiation validator.  The rational theory's validator rejects an
instance when a closed substitution term, or the closed term under its
succedent F(...), hits an undefined operation (inv(0), inf in a sum or a
negation).  It decides this modulo a prime, so checking a short proof of
F(huge) never computes the huge value; only a residue of 0 under inv or
times inf falls back to exact evaluation, and verdicts and messages are
those of exact evaluation.

Oracle verdicts are "equal", "unequal" or "undecided"; proofs may only
rely on "equal".  For open terms the oracles stay sound and answer
"undecided" unless a term-level law applies:

  * arithmetic: exp(exp(t, a), b) = exp(t, c) whenever c is literally a*b,
    and u*u = exp(u, 2), both valid over the naturals,
  * free groups: identical reduced words (variables as letters),
  * BS(1,2): closed normal forms only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from . import semantics
from .lang import (
    App,
    Const,
    Formula,
    Signature,
    Term,
    app,
    arith_signature,
    atom,
    conj,
    const,
    fold,
    free_vars,
    group_signature,
    int_term,
    mul,
    plus,
    rational_signature,
    subst_formula,
    var,
)
from .semantics import (
    EvalBudgetError,
    SemanticsError,
    UndefinedOperation,
    bs_eq,
    check_rat_defined,
    eval_group_bs,
    eval_group_free,
    eval_nat,
    eval_rat,
    nat_eq,
)


class TheoryError(Exception):
    pass


class UnsupportedPresentation(TheoryError):
    pass


@dataclass(frozen=True)
class AxiomSchema:
    name: str
    vars: tuple
    antecedent: tuple  # formulas over the schema variables
    succedent: Formula


class Theory:
    """Signature + axiom schemas + equality oracle.

    A theory keeps the instances it has built: `instantiate` stores the
    (antecedent, succedent) of each successful instantiation under the
    axiom name and the substituted terms in the schema's variable order,
    and a repeated instantiation returns the stored pair.  Terms and
    formulas are interned, so the pair is the one a fresh theory would
    build.  The table holds formulas and terms, never proofs.
    """

    def __init__(
        self,
        name: str,
        signature: Signature,
        schemas: Iterable[AxiomSchema],
        oracle: Callable[[Term, Term], str],
        evaluate: Optional[Callable[[Term], object]] = None,
        validate: Optional[Callable[[str, dict, Formula], None]] = None,
    ):
        self.name = name
        self.signature = signature
        self.axioms = {s.name: s for s in schemas}
        self._oracle = oracle
        self._evaluate = evaluate
        self._validate = validate
        self._instances: dict = {}

    def oracle(self, lhs: Term, rhs: Term) -> str:
        if lhs is rhs:
            return "equal"
        return self._oracle(lhs, rhs)

    def evaluate(self, t: Term):
        if self._evaluate is None:
            raise TheoryError(f"theory {self.name} has no evaluator")
        return self._evaluate(t)

    def instantiate(self, name: str, subst: dict):
        """(antecedent formulas, succedent formula) of an instance.

        A stored instance is found before the arguments are validated:
        only valid arguments are stored, so a hit whose subst has exactly
        the schema's variables is valid.  Every other call validates, so
        a bad instantiation raises TheoryError each time."""
        schema = self.axioms.get(name)
        if schema is None:
            raise TheoryError(f"theory {self.name} has no axiom {name!r}")
        try:
            # one flat tuple, the smallest key that names the instance
            key = (name, *map(subst.__getitem__, schema.vars))
            out = self._instances.get(key)
        except (KeyError, TypeError):  # a variable missing, a value unhashable
            out = None
        if out is not None and len(subst) == len(schema.vars):
            return out
        if set(subst) != set(schema.vars):
            raise TheoryError(
                f"axiom {name} expects variables {schema.vars}, got {tuple(sorted(subst))}"
            )
        for v, t in subst.items():
            if not isinstance(t, Term):
                raise TheoryError(f"instantiation for {v} is not a term")
        ant = tuple(subst_formula(f, subst) for f in schema.antecedent)
        out = self._instances[key] = (ant, subst_formula(schema.succedent, subst))
        return out

    def validate_instantiation(self, name: str, subst: dict, succedent: Formula):
        """Raise TheoryError for an inadmissible instance; succedent is
        the instance's succedent, as `instantiate` built it."""
        if self._validate is not None:
            self._validate(name, subst, succedent)


# ---------------------------------------------------------------------------
# Arithmetic feasibility


def _nat_oracle(lhs: Term, rhs: Term) -> str:
    if not free_vars(lhs) and not free_vars(rhs):
        return _closed_verdict(lhs, rhs)
    return "equal" if _congruent(lhs, rhs) else "undecided"


def _closed_verdict(lhs: Term, rhs: Term) -> str:
    try:
        return "equal" if nat_eq(eval_nat(lhs), eval_nat(rhs)) else "unequal"
    except EvalBudgetError:
        return "undecided"


def _exp_law(lhs: Term, rhs: Term) -> bool:
    # exp(exp(t, a), b) = exp(t, c) with c literally a * b
    if not (isinstance(lhs, App) and lhs.sym == "exp"):
        return False
    inner = lhs.args[0]
    if not (isinstance(inner, App) and inner.sym == "exp"):
        return False
    if not (isinstance(rhs, App) and rhs.sym == "exp"):
        return False
    if rhs.args[0] is not inner.args[0]:
        return False
    c = rhs.args[1]
    return isinstance(c, App) and c.sym == "*" and c.args == (inner.args[1], lhs.args[1])


def _numeral_value(t: Term) -> Optional[int]:
    n = 0
    while isinstance(t, App) and t.sym == "s":
        n += 1
        t = t.args[0]
    return n if isinstance(t, Const) and t.sym == "0" else None


def _square_law(lhs: Term, rhs: Term) -> bool:
    # u * u = exp(u, 2)
    if not (isinstance(lhs, App) and lhs.sym == "*" and lhs.args[0] is lhs.args[1]):
        return False
    if not (isinstance(rhs, App) and rhs.sym == "exp" and rhs.args[0] is lhs.args[0]):
        return False
    return _numeral_value(rhs.args[1]) == 2


def _congruent(lhs: Term, rhs: Term) -> bool:
    """Whether lhs = rhs is shown: a closed pair by evaluation, an open one
    by identity, the exp law, the square law, or congruence on argument
    pairs.  Every pair on the stack must be shown, so one seen before is
    skipped, and shared terms cost one visit per distinct pair."""
    seen = set()
    todo = [(lhs, rhs)]
    while todo:
        pair = todo.pop()
        if pair in seen:
            continue
        seen.add(pair)
        a, b = pair
        if not free_vars(a) and not free_vars(b):
            if _closed_verdict(a, b) != "equal":
                return False
        elif a is b or _exp_law(a, b) or _exp_law(b, a) or _square_law(a, b) or _square_law(b, a):
            continue
        elif isinstance(a, App) and isinstance(b, App) and a.sym == b.sym:
            todo.extend(zip(a.args, b.args))
        else:
            return False
    return True


def _schemas_arith():
    x, y = var("x"), var("y")
    Fx, Fy = atom("F", x), atom("F", y)
    return [
        AxiomSchema("F(0)", (), (), atom("F", const("0"))),
        AxiomSchema("F:equality", ("x", "y"), (atom("=", x, y), Fx), Fy),
        AxiomSchema("F:successor", ("x",), (Fx,), atom("F", app("s", x))),
        AxiomSchema("F:plus", ("x", "y"), (Fx, Fy), atom("F", plus(x, y))),
        AxiomSchema("F:times", ("x", "y"), (Fx, Fy), atom("F", mul(x, y))),
    ]


def arith_feasibility() -> Theory:
    return Theory(
        "arith",
        arith_signature(),
        _schemas_arith(),
        _nat_oracle,
        evaluate=eval_nat,
    )


# ---------------------------------------------------------------------------
# Group feasibility (free groups and BS(1,2))


def _free_oracle(lhs: Term, rhs: Term) -> str:
    closed = not free_vars(lhs) and not free_vars(rhs)
    try:
        wl = eval_group_free(lhs, vars_as_letters=True)
        wr = eval_group_free(rhs, vars_as_letters=True)
    except SemanticsError:
        return "undecided"
    if wl == wr:
        return "equal"  # equal as words, hence under every substitution
    return "unequal" if closed else "undecided"


def _bs_oracle(lhs: Term, rhs: Term) -> str:
    if free_vars(lhs) or free_vars(rhs):
        return "undecided"
    try:
        return "equal" if bs_eq(eval_group_bs(lhs), eval_group_bs(rhs)) else "unequal"
    except EvalBudgetError:
        return "undecided"


def _schemas_group(generators, pred="F"):
    x, y = var("x"), var("y")
    Px, Py = atom(pred, x), atom(pred, y)
    out = [AxiomSchema(f"{pred}(e)", (), (), atom(pred, const("e")))]
    for g in generators:
        out.append(AxiomSchema(f"{pred}({g})", (), (), atom(pred, const(g))))
    out += [
        AxiomSchema(f"{pred}:equality", ("x", "y"), (atom("=", x, y), Px), Py),
        AxiomSchema(f"{pred}:composition", ("x", "y"), (Px, Py), atom(pred, mul(x, y))),
        AxiomSchema(f"{pred}:inverse", ("x",), (Px,), atom(pred, app("inv", x))),
    ]
    return out


def group_feasibility(generators: Iterable[str], presentation: str = "free") -> Theory:
    gens = tuple(generators)
    if not gens:
        raise TheoryError("a group theory needs at least one generator")
    if presentation == "free":
        oracle, evaluate = _free_oracle, lambda t: eval_group_free(t)
    elif presentation == "bs12":
        if not set(gens) <= {"x", "y"}:
            raise UnsupportedPresentation("bs12 uses the generators x and y")
        oracle, evaluate = _bs_oracle, eval_group_bs
    else:
        raise UnsupportedPresentation(f"unknown presentation {presentation!r}")
    return Theory(
        f"group:{presentation}",
        group_signature(gens),
        _schemas_group(gens),
        oracle,
        evaluate=evaluate,
    )


def word_term(word) -> Term:
    """Group term for a run-length word like ((x, 3), (y, -1))."""
    parts = []
    for g, e in word:
        base = const(g)
        if e == 0:
            continue
        t = base if e > 0 else app("inv", base)
        parts.extend([t] * abs(e))
    if not parts:
        return const("e")
    out = parts[0]
    for t in parts[1:]:
        out = mul(out, t)
    return out


def triviality_theory(
    relators,
    generators: Optional[Iterable[str]] = None,
    presentation: str = "free",
    restricted_conjugation: bool = False,
) -> Theory:
    """Group feasibility extended with a triviality predicate T.

    T holds of the relators and is closed under composition, inverse,
    equality transport, and conjugation.  By default conjugation by an
    arbitrary (not necessarily feasible) element is allowed; the
    restricted variant additionally demands F of the conjugator.
    """
    rel_terms = []
    letters = set()
    for r in relators:
        t = r if isinstance(r, Term) else word_term(r)
        rel_terms.append(t)
        letters |= free_vars(t)
        for sym in _constants_of(t):
            letters.add(sym)
    gens = tuple(generators) if generators is not None else tuple(sorted(letters - {"e"}))
    if not gens:
        raise TheoryError("triviality theory needs generators")
    if presentation != "free":
        raise UnsupportedPresentation("triviality layers sit over a free presentation")
    sig = group_signature(gens, with_triviality=True)
    x, y, w, u, v = (var(n) for n in ("x", "y", "w", "u", "v"))
    Tw, Tu = atom("T", w), atom("T", u)
    schemas = _schemas_group(gens)
    schemas.append(AxiomSchema("T(e)", (), (), atom("T", const("e"))))
    for i, t in enumerate(rel_terms, start=1):
        schemas.append(AxiomSchema(f"T(r{i})", (), (), atom("T", t)))
    schemas += [
        AxiomSchema("T:equality", ("w", "u"), (atom("=", w, u), Tw), Tu),
        AxiomSchema("T:composition", ("w", "u"), (Tw, Tu), atom("T", mul(w, u))),
        AxiomSchema("T:inverse", ("w",), (Tw,), atom("T", app("inv", w))),
    ]
    conj_ant = (Tw, atom("F", v)) if restricted_conjugation else (Tw,)
    conj_vars = ("w", "v")
    schemas.append(
        AxiomSchema(
            "T:conjugation", conj_vars, conj_ant, atom("T", mul(mul(v, w), app("inv", v)))
        )
    )
    schemas += [
        AxiomSchema("FT:absorb-right", ("w", "u"), (atom("F", w), Tu), atom("F", mul(w, u))),
        AxiomSchema("FT:absorb-left", ("w", "u"), (atom("F", w), Tu), atom("F", mul(u, w))),
    ]
    return Theory(
        "group:triviality",
        sig,
        schemas,
        _free_oracle,
        evaluate=lambda t: eval_group_free(t),
    )


def _constants_step(t, syms):
    return frozenset((t.sym,)) if t.__class__ is Const else frozenset().union(*syms)


def _constants_of(t: Term) -> frozenset:
    return fold(t, _constants_step, {})


# ---------------------------------------------------------------------------
# Rational feasibility


def _rat_oracle(lhs: Term, rhs: Term) -> str:
    if free_vars(lhs) or free_vars(rhs):
        return "undecided"
    try:
        return "equal" if eval_rat(lhs) == eval_rat(rhs) else "unequal"
    except UndefinedOperation:
        return "undecided"


def _rat_validator() -> Callable[[str, dict, Formula], None]:
    """A validator rejecting instances whose closed substitution terms, or
    the closed terms under whose succedent F(...), hit an undefined
    operation.  Definedness is decided modulo semantics.MODULAR_PRIME with
    an exact fallback (`check_rat_defined`); the residues live as long as
    the validator, that is, as long as its theory."""
    residues: dict = {}

    def validate(name: str, subst: dict, succedent: Formula):
        for t in (*subst.values(), *succedent.args):
            if free_vars(t):
                continue
            try:
                check_rat_defined(t, residues)
            except UndefinedOperation as exc:
                raise TheoryError(f"undefined operation in instantiation of {name}: {exc}")

    return validate


def _schemas_rat():
    x, y = var("x"), var("y")
    Fx, Fy = atom("F", x), atom("F", y)
    return [
        AxiomSchema("F(0)", (), (), atom("F", const("0"))),
        AxiomSchema("F(1)", (), (), atom("F", const("1"))),
        AxiomSchema("F:equality", ("x", "y"), (atom("=", x, y), Fx), Fy),
        AxiomSchema("F:plus", ("x", "y"), (Fx, Fy), atom("F", plus(x, y))),
        AxiomSchema("F:times", ("x", "y"), (Fx, Fy), atom("F", mul(x, y))),
        AxiomSchema("F:negate", ("x",), (Fx,), atom("F", app("neg", x))),
        AxiomSchema("F:invert", ("x",), (Fx,), atom("F", app("inv", x))),
    ]


def rational_feasibility() -> Theory:
    return Theory(
        "rat",
        rational_signature(),
        _schemas_rat(),
        _rat_oracle,
        evaluate=eval_rat,
        validate=_rat_validator(),
    )


def rational_term(q) -> Term:
    """A closed term over {0, 1, +, *, neg, inv} denoting the rational q."""
    q = Fraction(q)
    sig = rational_signature()
    if q < 0:
        return app("neg", rational_term(-q))
    if q.denominator == 1:
        return int_term(q.numerator, sig)
    num = int_term(q.numerator, sig)
    den = int_term(q.denominator, sig)
    return mul(num, app("inv", den))


def matrix_entry_terms(A: "semantics.Mat2") -> tuple:
    return (
        rational_term(A.a),
        rational_term(A.b),
        rational_term(A.c),
        rational_term(A.d),
    )


def feasibility_formula(terms) -> Formula:
    """phi = F(a) /\\ (F(b) /\\ (F(c) /\\ F(d))) over four entry terms."""
    a, b, c, d = terms
    return conj(atom("F", a), conj(atom("F", b), conj(atom("F", c), atom("F", d))))


def matrix_phi(A: "semantics.Mat2") -> Formula:
    return feasibility_formula(matrix_entry_terms(A))


# ---------------------------------------------------------------------------
# Selectors used by the command line and proof files


def theory_from_selector(selector: str) -> Theory:
    if selector == "arith":
        return arith_feasibility()
    if selector == "rat":
        return rational_feasibility()
    if selector == "group:bs12":
        return group_feasibility(("x", "y"), presentation="bs12")
    if selector.startswith("group:free:"):
        gens = tuple(g for g in selector[len("group:free:") :].split(",") if g)
        return group_feasibility(gens, presentation="free")
    if selector == "group:free":
        return group_feasibility(("x",), presentation="free")
    raise TheoryError(
        f"unknown theory selector {selector!r} "
        "(use arith, rat, group:bs12, or group:free:<g1,g2,...>)"
    )
