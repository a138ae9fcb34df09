"""Feasibility theories: axiom schemas plus an equality oracle.

A theory bundles a signature, named axiom schemas (tuples of antecedent
formulas and one succedent formula over schema variables), an oracle
deciding term equality where this is safely possible, and an optional
instantiation validator.  The rational theory's validator rejects an
instance when a closed substitution term, or the closed term under its
succedent F(...), hits an undefined operation (inv(0), inf in a sum or a
negation).  It decides this with `semantics.check_rat_defined`, the
package's one modular test, modulo each of three primes in turn, so
checking a short proof of F(huge) never computes the huge value: only a
residue of 0 under inv or times inf sends a term to the next prime, and
only a term inconclusive modulo all three falls back to exact evaluation.
Verdicts and messages are those of exact evaluation.

An axiom schema compiles itself into construction steps when it is made
(see `AxiomSchema`), so an instance costs one `app` or `atom` call per
subterm that mentions a schema variable.  A theory finds an instance by
the axiom name and the (variable, term) pairs a TheoryAxiom rule holds,
and keeps every instance it builds under them.  The arithmetic and
rational theories keep the values of the closed terms their oracles have
evaluated (the rational theory's evaluator shares its oracle's), as the
rational validator keeps its residues: these caches live exactly as long
as their theory.

Oracle verdicts are "equal", "unequal" or "undecided"; proofs may only
rely on "equal".  For open terms the oracles stay sound and answer
"undecided" unless a term-level law applies:

  * arithmetic: exp(exp(t, a), b) = exp(t, c) whenever c is literally a*b,
    and u*u = exp(u, 2), both valid over the naturals,
  * free groups: identical reduced words (variables as letters),
  * BS(1,2): closed normal forms only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Optional

from . import semantics
from .kernel import Rule, TheoryError
from .lang import (
    App,
    Atom,
    Const,
    Formula,
    Record,
    Signature,
    Term,
    app,
    arith_signature,
    atom,
    conj,
    const,
    free_vars,
    group_signature,
    int_term,
    mul,
    plus,
    rational_signature,
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


class UnsupportedPresentation(TheoryError):
    pass


class AxiomSchema(Record):
    """A named axiom schema: antecedent formulas and one succedent formula
    over the schema variables vars, each an atom.

    A schema compiles itself when it is made (see `_compile`), and raises
    TheoryError when a formula is not an atom.  Schemas are immutable, so
    the package makes its fixed ones once and every theory shares them.
    The compiled steps take no part in equality, hash or repr."""

    _fields = ("name", "vars", "antecedent", "succedent")
    __slots__ = _fields + ("steps",)

    def __init__(self, name: str, vars: tuple, antecedent: tuple, succedent: Formula):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "antecedent", antecedent)  # formulas over vars
        object.__setattr__(self, "succedent", succedent)
        object.__setattr__(self, "steps", _compile(self))


class Theory:
    """Signature + axiom schemas + equality oracle.

    Building an instance runs the schema's compiled steps over the
    substituted terms: no generic substitution, and, since terms and
    formulas are interned, the very objects `subst_formula` would build.

    A theory keeps the instances it has built in one table, keyed by the
    axiom name and the (variable, term) pairs of the instance's rule:
    `instance` finds an instance there or builds and stores it, with the
    one Rule that every proof node of the instance shares.  The table
    holds formulas, terms and rules, never proofs.
    """

    def __init__(
        self,
        name: str,
        signature: Signature,
        schemas: Iterable[AxiomSchema],
        oracle: Callable[[Term, Term], str],
        evaluate: Optional[Callable[[Term], object]] = None,
        validate: Optional[Callable[[str, tuple, Formula], None]] = None,
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

    def instance(self, name: str, pairs: tuple) -> tuple:
        """(antecedent formulas, succedent, rule) of the instance of axiom
        name whose (variable, term) pairs are pairs: each of the schema's
        variables once, in sorted order, as a TheoryAxiom rule holds them.

        The table holds the instances of valid arguments only, so a hit
        needs no validation; every miss validates, and raises TheoryError
        each time for arguments that name no instance."""
        try:
            found = self._instances.get((name, pairs))
        except TypeError:  # pairs in lists, or a value that does not hash
            found, pairs = None, tuple(map(tuple, pairs))
        if found is not None:
            return found
        schema = self.axioms.get(name)
        if schema is None:
            raise TheoryError(f"unknown axiom {name!r}")
        names = tuple(v for v, _ in pairs)
        if names != schema.steps[0]:  # the schema's variables in sorted order
            if set(names) != set(schema.vars):
                raise TheoryError(f"instantiation must cover exactly {schema.vars}")
            raise TheoryError("instantiation must name each variable once, in sorted order")
        terms = tuple(t for _, t in pairs)
        for v, t in pairs:
            if not isinstance(t, Term):
                raise TheoryError(f"instantiation for {v} is not a term")
        ant, succ = _build(schema.steps, terms)
        rule = Rule("TheoryAxiom", axiom=name, subst=pairs)
        found = self._instances[name, pairs] = (ant, succ, rule)
        return found

    def validate_instantiation(self, name: str, pairs: tuple, succedent: Formula):
        """Raise TheoryError for an inadmissible instance: the axiom name,
        its rule's pairs and its succedent, as `instance` built it."""
        if self._validate is not None:
            self._validate(name, pairs, succedent)


def _compile(schema: AxiomSchema) -> tuple:
    """(variables, constants, steps, antecedent registers, succedent
    register): the construction of an instance of schema.

    An instance is built in a list of registers that holds first the
    substituted terms, in the sorted order of the variables, then the
    constants, the subterms that mention no schema variable, as they are;
    each step (factory, symbol, argument registers) appends one node, its
    arguments first, one `app` or `atom` call per subterm that mentions a
    schema variable."""
    formulas = (*schema.antecedent, schema.succedent)
    for f in formulas:
        if f.__class__ is not Atom:
            raise TheoryError(f"axiom {schema.name}: schema formula {f!r} is not an atom")
    names = frozenset(schema.vars)
    order = tuple(sorted(schema.vars))  # as a rule's pairs name them
    reg = {var(v): i for i, v in enumerate(order)}  # nodes seen, variables numbered
    consts, nodes = [], []
    stack = list(formulas)
    while stack:  # post-order: a node goes back under its children
        x = stack.pop()
        if x in reg:
            continue
        if names.isdisjoint(free_vars(x)):
            reg[x] = None
            consts.append(x)
            continue
        todo = [c for c in x.args if c not in reg]
        if todo:
            stack.append(x)
            stack += todo
            continue
        reg[x] = None
        nodes.append(x)
    for i, x in enumerate(consts + nodes, len(schema.vars)):
        reg[x] = i
    steps = []
    for x in nodes:
        args = tuple(map(reg.__getitem__, x.args))
        steps.append((app, x.sym, args) if x.__class__ is App else (atom, x.pred, args))
    ant = tuple(map(reg.__getitem__, schema.antecedent))
    return order, tuple(consts), tuple(steps), ant, reg[schema.succedent]


def _build(compiled: tuple, terms: tuple) -> tuple:
    """(antecedent, succedent) of the instance whose terms for the
    schema's variables, in sorted order, are terms, by the compiled steps."""
    _, consts, steps, ant, succ = compiled
    regs = [*terms, *consts]
    get = regs.__getitem__
    for make, head, args in steps:
        regs.append(make(head, *map(get, args)))
    return tuple(map(get, ant)), regs[succ]


# ---------------------------------------------------------------------------
# Arithmetic feasibility


def _nat_oracle(lhs: Term, rhs: Term, memo: Optional[dict] = None) -> str:
    """The arithmetic verdict on lhs = rhs.  memo maps closed terms to
    their values (see `eval_nat`); a call without one uses its own."""
    if memo is None:
        memo = {}
    if not free_vars(lhs) and not free_vars(rhs):
        return _closed_verdict(lhs, rhs, memo)
    return "equal" if _congruent(lhs, rhs, memo) else "undecided"


def _closed_verdict(lhs: Term, rhs: Term, memo: dict) -> str:
    try:
        return "equal" if nat_eq(eval_nat(lhs, memo), eval_nat(rhs, memo)) else "unequal"
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


def _congruent(lhs: Term, rhs: Term, memo: dict) -> bool:
    """Whether lhs = rhs is shown: a closed pair by evaluation (values in
    memo), an open one by identity, the exp law, the square law, or
    congruence on argument pairs.  Every pair on the stack must be shown,
    so one seen before is skipped, and shared terms cost one visit per
    distinct pair."""
    seen = set()
    todo = [(lhs, rhs)]
    while todo:
        pair = todo.pop()
        if pair in seen:
            continue
        seen.add(pair)
        a, b = pair
        if not free_vars(a) and not free_vars(b):
            if _closed_verdict(a, b, memo) != "equal":
                return False
        elif a is b or _exp_law(a, b) or _exp_law(b, a) or _square_law(a, b) or _square_law(b, a):
            continue
        elif isinstance(a, App) and isinstance(b, App) and a.sym == b.sym:
            todo.extend(zip(a.args, b.args))
        else:
            return False
    return True


def _schemas_arith() -> tuple:
    x, y = var("x"), var("y")
    Fx, Fy = atom("F", x), atom("F", y)
    return (
        AxiomSchema("F(0)", (), (), atom("F", const("0"))),
        AxiomSchema("F:equality", ("x", "y"), (atom("=", x, y), Fx), Fy),
        AxiomSchema("F:successor", ("x",), (Fx,), atom("F", app("s", x))),
        AxiomSchema("F:plus", ("x", "y"), (Fx, Fy), atom("F", plus(x, y))),
        AxiomSchema("F:times", ("x", "y"), (Fx, Fy), atom("F", mul(x, y))),
    )


_ARITH_SCHEMAS = _schemas_arith()


def arith_feasibility() -> Theory:
    values: dict = {}  # closed term -> value, for as long as the theory
    return Theory(
        "arith",
        arith_signature(),
        _ARITH_SCHEMAS,
        lambda lhs, rhs: _nat_oracle(lhs, rhs, values),
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


def _group_rules() -> tuple:
    x, y = var("x"), var("y")
    Fx, Fy = atom("F", x), atom("F", y)
    return (
        AxiomSchema("F:equality", ("x", "y"), (atom("=", x, y), Fx), Fy),
        AxiomSchema("F:composition", ("x", "y"), (Fx, Fy), atom("F", mul(x, y))),
        AxiomSchema("F:inverse", ("x",), (Fx,), atom("F", app("inv", x))),
    )


_GROUP_RULES = _group_rules()
_F_E = AxiomSchema("F(e)", (), (), atom("F", const("e")))


def _schemas_group(generators) -> list:
    gens = [AxiomSchema(f"F({g})", (), (), atom("F", const(g))) for g in generators]
    return [_F_E, *gens, *_GROUP_RULES]


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


# ---------------------------------------------------------------------------
# Rational feasibility


def _rat_oracle(lhs: Term, rhs: Term, memo: dict) -> str:
    """The rational verdict on lhs = rhs; memo maps closed terms to their
    values (see `eval_rat`)."""
    if free_vars(lhs) or free_vars(rhs):
        return "undecided"
    try:
        return "equal" if eval_rat(lhs, memo) == eval_rat(rhs, memo) else "unequal"
    except (UndefinedOperation, EvalBudgetError):
        return "undecided"


def _rat_validator() -> Callable[[str, tuple, Formula], None]:
    """A validator rejecting instances whose closed substitution terms, or
    the closed terms under whose succedent F(...), hit an undefined
    operation.  Definedness is decided modulo the primes of
    semantics.MODULAR_PRIMES in turn, with an exact fallback
    (`check_rat_defined`); the residues, one table per prime, live as long
    as the validator, that is, as long as its theory.  An instance whose
    exact fallback passes `semantics.RAT_BIT_BUDGET` is rejected too."""
    residues: dict = {}

    def validate(name: str, pairs: tuple, succedent: Formula):
        for t in (*(t for _, t in pairs), *succedent.args):
            if free_vars(t):
                continue
            try:
                check_rat_defined(t, residues)
            except UndefinedOperation as exc:
                raise TheoryError(f"undefined operation in instantiation of {name}: {exc}")
            except EvalBudgetError as exc:
                raise TheoryError(f"undecided instantiation of {name}: {exc}")

    return validate


def _schemas_rat() -> tuple:
    x, y = var("x"), var("y")
    Fx, Fy = atom("F", x), atom("F", y)
    return (
        AxiomSchema("F(0)", (), (), atom("F", const("0"))),
        AxiomSchema("F(1)", (), (), atom("F", const("1"))),
        AxiomSchema("F:equality", ("x", "y"), (atom("=", x, y), Fx), Fy),
        AxiomSchema("F:plus", ("x", "y"), (Fx, Fy), atom("F", plus(x, y))),
        AxiomSchema("F:times", ("x", "y"), (Fx, Fy), atom("F", mul(x, y))),
        AxiomSchema("F:negate", ("x",), (Fx,), atom("F", app("neg", x))),
        AxiomSchema("F:invert", ("x",), (Fx,), atom("F", app("inv", x))),
    )


_RAT_SCHEMAS = _schemas_rat()


def rational_feasibility() -> Theory:
    values: dict = {}  # closed term -> value, for as long as the theory
    return Theory(
        "rat",
        rational_signature(),
        _RAT_SCHEMAS,
        lambda lhs, rhs: _rat_oracle(lhs, rhs, values),
        evaluate=lambda t: eval_rat(t, values),
        validate=_rat_validator(),
    )


def rational_term(q) -> Term:
    """A closed term over {0, 1, +, *, neg, inv} denoting the rational q."""
    q = Fraction(q)
    sig = rational_signature()
    m = abs(q)
    t = int_term(m.numerator, sig)
    if m.denominator != 1:
        t = mul(t, app("inv", int_term(m.denominator, sig)))
    return app("neg", t) if q < 0 else t


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
