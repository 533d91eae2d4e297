"""The simlint rule catalog.

Every rule targets a hazard class this simulator has actually been bitten
by (see git history: stale-PFN shootdowns, cross-page stale locals, epoch
invalidation misses) or that the bit-identical determinism contract makes
structurally dangerous.  Rules are deliberately narrow: a lint pass that
cries wolf gets suppressed wholesale and enforces nothing.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .core import FileContext, Rule

#: Packages whose arithmetic and iteration order feed cycle accounting.
DET_PACKAGES = frozenset({"core", "memory", "npu"})

#: Packages holding the translation-engine fault paths.
FAULT_PACKAGES = frozenset({"core", "npu"})

#: Layering contract, from the import graph at the time this linter was
#: written: ``memory`` is the bottom layer (pure hardware models), ``core``
#: sits on it, ``npu``/``workloads``/``sparse`` compose those, ``analysis``
#: and the CLI sit on top and may import anything.
FORBIDDEN_IMPORTS: Dict[str, frozenset] = {
    "memory": frozenset({"core", "npu", "analysis", "sparse", "workloads",
                         "energy", "cli"}),
    "core": frozenset({"npu", "analysis", "sparse", "workloads", "cli"}),
    "energy": frozenset({"npu", "analysis", "sparse", "workloads", "cli"}),
    "npu": frozenset({"analysis", "cli"}),
    "workloads": frozenset({"analysis", "sparse", "cli"}),
    "sparse": frozenset({"analysis", "cli"}),
}

_CYCLE_NAME = re.compile(
    r"(?:^|_)(cycle|cycles|cyc|latency|latencies)(?:$|_)", re.IGNORECASE
)

Triple = Tuple[int, int, str]


def _dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _leaf_names(node: ast.AST) -> Iterator[str]:
    """Every Name id and Attribute attr under *node* (identifier leaves)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _is_cycle_named(name: Optional[str]) -> bool:
    return name is not None and _CYCLE_NAME.search(name) is not None


# --------------------------------------------------------------------------
# det-set-iter: iteration order of sets is hash-layout dependent
# --------------------------------------------------------------------------

_SET_TYPE_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet"}
)


def _is_set_expr(node: ast.AST) -> bool:
    """Expressions that are certainly a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "setdefault"
            and len(node.args) >= 2
            and _is_set_expr(node.args[1])
        ):
            # d.setdefault(k, set()) returns the (possibly fresh) set.
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd,
                                                            ast.Sub)):
        # s1 | s2 etc. — only a set if an operand is known; too deep, skip.
        return False
    return False


def _is_set_annotation(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in _SET_TYPE_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_TYPE_NAMES
    if isinstance(node, ast.Subscript):
        return _is_set_annotation(node.value)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        head = node.value.split("[", 1)[0].strip()
        return head.rsplit(".", 1)[-1] in _SET_TYPE_NAMES
    return False


_DICT_TYPE_NAMES = frozenset(
    {"dict", "Dict", "DefaultDict", "defaultdict", "Mapping", "MutableMapping"}
)


def _is_dict_of_set_annotation(node: Optional[ast.AST]) -> bool:
    """``Dict[K, Set[V]]``-shaped annotations (values are sets)."""
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = (
            head.id if isinstance(head, ast.Name)
            else head.attr if isinstance(head, ast.Attribute) else None
        )
        if head_name in _DICT_TYPE_NAMES:
            sl = node.slice
            if isinstance(sl, ast.Tuple) and len(sl.elts) == 2:
                return _is_set_annotation(sl.elts[1])
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.replace(" ", "")
        return any(f",{t}[" in text or f",{t}]" in text
                   for t in _SET_TYPE_NAMES)
    return False


def _self_set_attrs(cls: ast.ClassDef) -> Tuple[Set[str], Set[str]]:
    """(set-typed attrs, dict-of-set attrs) assigned in the class's methods."""
    attrs: Set[str] = set()
    dictset_attrs: Set[str] = set()
    for node in ast.walk(cls):
        target: Optional[ast.AST] = None
        value: Optional[ast.AST] = None
        annotation: Optional[ast.AST] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value, annotation = node.target, node.value, node.annotation
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            if (value is not None and _is_set_expr(value)) or _is_set_annotation(
                annotation
            ):
                attrs.add(target.attr)
            if _is_dict_of_set_annotation(annotation):
                dictset_attrs.add(target.attr)
    return attrs, dictset_attrs


def _pulls_from_dict_of_set(value: ast.AST, dictset_attrs: Set[str]) -> bool:
    """``self.X.get(k)`` / ``self.X[k]`` / ``self.X.setdefault(k, ...)``
    where ``X`` is a known dict-of-set attribute — the result is a set."""
    def is_dictset_attr(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in dictset_attrs
        )

    if isinstance(value, ast.Subscript):
        return is_dictset_attr(value.value)
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
        if value.func.attr in {"get", "setdefault", "pop"}:
            return is_dictset_attr(value.func.value)
    return False


def _iter_unit_nodes(unit: ast.AST) -> Iterator[ast.AST]:
    """Walk *unit* without descending into nested function/class bodies."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(unit))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def check_det_set_iter(ctx: FileContext) -> Iterator[Triple]:
    if ctx.package not in DET_PACKAGES:
        return

    def scan(unit: ast.AST, inherited: Set[str], class_attrs: Set[str],
             class_dictset: Set[str]) -> Iterator[Triple]:
        known = set(inherited)
        # Collect set-typed names bound in this scope (assignment order does
        # not matter: collection precedes flagging).
        for node in _iter_unit_nodes(unit):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and (
                    _is_set_expr(node.value)
                    or _pulls_from_dict_of_set(node.value, class_dictset)
                ):
                    known.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _is_set_annotation(node.annotation) or (
                    node.value is not None and _is_set_expr(node.value)
                ):
                    known.add(node.target.id)
        if isinstance(unit, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = unit.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                if _is_set_annotation(arg.annotation):
                    known.add(arg.arg)

        def is_known_set(expr: ast.AST) -> Optional[str]:
            if isinstance(expr, ast.Name) and expr.id in known:
                return expr.id
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in class_attrs
            ):
                return f"self.{expr.attr}"
            if _is_set_expr(expr):
                return ast.unparse(expr) if hasattr(ast, "unparse") else "<set>"
            return None

        def flag(expr: ast.AST) -> Iterator[Triple]:
            name = is_known_set(expr)
            if name is not None:
                yield (
                    expr.lineno,
                    expr.col_offset,
                    f"iteration over set {name!r} follows hash-table layout, "
                    f"not a deterministic order; wrap in sorted(...) or prove "
                    f"order-independence in a suppression justification",
                )

        for node in _iter_unit_nodes(unit):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from flag(node.iter)
            elif isinstance(node, (ast.ListComp, ast.DictComp,
                                   ast.GeneratorExp)):
                # SetComp is exempt: a set built from a set is order-erasing.
                for gen in node.generators:
                    yield from flag(gen.iter)
            elif isinstance(node, ast.Starred):
                yield from flag(node.value)
            elif isinstance(node, ast.Call):
                # list(s) / tuple(s) / iter(s) materialize hash order; the
                # order-erasing consumers (sorted, len, set, sum-of-ints is
                # NOT safe for floats) are exempt.
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in {"list", "tuple", "iter", "enumerate"}
                    and len(node.args) == 1
                ):
                    yield from flag(node.args[0])

        for node in _iter_unit_nodes(unit):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from scan(node, known, class_attrs, class_dictset)
            elif isinstance(node, ast.ClassDef):
                attrs, dictset = _self_set_attrs(node)
                yield from scan(node, known, attrs, dictset)

    yield from scan(ctx.tree, set(), set(), set())


# --------------------------------------------------------------------------
# det-banned-call: wall clocks, unseeded RNGs, environment reads,
# hash-order pops
# --------------------------------------------------------------------------

_TIME_CALLS = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
     "perf_counter_ns", "process_time", "process_time_ns", "clock"}
)
_NP_GLOBAL_RNG = frozenset(
    {"rand", "randn", "random", "randint", "random_integers", "random_sample",
     "choice", "shuffle", "permutation", "seed", "normal", "uniform", "poisson"}
)

_ENV_READS = frozenset({"os.environ", "os.getenv"})


def check_det_banned_call(ctx: FileContext) -> Iterator[Triple]:
    if ctx.package not in DET_PACKAGES:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Attribute):
            name = _dotted(node)
            if name in _ENV_READS:
                yield (node.lineno, node.col_offset,
                       f"{name} in a simulation layer: a setting read from "
                       f"the environment changes results without appearing "
                       f"in any config, cache key or manifest")
            continue
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        msg: Optional[str] = None
        if dotted is not None:
            parts = dotted.split(".")
            if parts[0] == "random" and len(parts) == 2:
                if parts[1] == "Random":
                    if not node.args and not node.keywords:
                        msg = ("random.Random() without a seed is "
                               "nondeterministic; pass an explicit seed")
                elif parts[1] != "SystemRandom":
                    msg = (f"module-level random.{parts[1]}() shares global "
                           f"hidden state; use a seeded random.Random(seed) "
                           f"instance")
                else:
                    msg = "random.SystemRandom draws OS entropy; never in " \
                          "simulation paths"
            elif parts[0] == "time" and len(parts) == 2 and parts[1] in _TIME_CALLS:
                msg = (f"wall-clock time.{parts[1]}() in a cycle-accurate "
                       f"model; derive timing from simulated cycles")
            elif dotted in {"os.urandom", "uuid.uuid1", "uuid.uuid4"} or (
                parts[0] == "secrets"
            ):
                msg = f"{dotted}() draws OS entropy; simulation must be " \
                      f"reproducible from config alone"
            elif len(parts) >= 2 and parts[-2:-1] == ["random"] and (
                parts[-1] in _NP_GLOBAL_RNG
            ):
                msg = (f"global numpy RNG {dotted}(); use "
                       f"np.random.default_rng(seed) / Generator instances")
            elif parts[-1] == "default_rng" and not node.args and not node.keywords:
                msg = "default_rng() without a seed is nondeterministic; " \
                      "pass an explicit seed"
        if (
            msg is None
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "popitem"
            and not node.args
            and not node.keywords
        ):
            msg = ("bare .popitem() pops in hash/LIFO order; use "
                   "OrderedDict.popitem(last=...) or pop an explicit key")
        if msg is not None:
            yield node.lineno, node.col_offset, msg


# --------------------------------------------------------------------------
# det-hash-order: hash()/id() values leak interpreter layout
# --------------------------------------------------------------------------

def check_det_hash_order(ctx: FileContext) -> Iterator[Triple]:
    if ctx.package not in DET_PACKAGES:
        return
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"hash", "id"}
            and node.args
        ):
            yield (
                node.lineno,
                node.col_offset,
                f"{node.func.id}() values vary across runs/interpreters; "
                f"anything ordered or accounted by them diverges — key by a "
                f"stable field, or justify that the value is never ordered",
            )


# --------------------------------------------------------------------------
# cyc-true-div / cyc-float-cast: cycle-type discipline
# --------------------------------------------------------------------------

def check_cyc_true_div(ctx: FileContext) -> Iterator[Triple]:
    if ctx.package not in DET_PACKAGES:
        return
    for node in ast.walk(ctx.tree):
        is_div = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
        if not is_div:
            # `cycle /= x` contaminates an integer cycle count in place.
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                target = node.target
                name = target.id if isinstance(target, ast.Name) else (
                    target.attr if isinstance(target, ast.Attribute) else None
                )
                if _is_cycle_named(name):
                    yield (
                        node.lineno, node.col_offset,
                        f"true division into cycle-typed {name!r}; use //= "
                        f"to stay in the integer cycle domain",
                    )
            continue
        if not any(_is_cycle_named(leaf) for leaf in _leaf_names(node)):
            continue
        # Context 1: int(<div over cycles>) — silent truncation.
        parent = ctx.parents.get(node)
        while isinstance(parent, ast.BinOp):
            parent = ctx.parents.get(parent)
        if (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id == "int"
        ):
            yield (
                node.lineno, node.col_offset,
                "int(...) over a true division of cycle quantities truncates; "
                "use floor division (//) or justify the truncation semantics",
            )
            continue
        # Context 2: cycles = a / b — float contaminating a cycle name.
        parent = ctx.parents.get(node)
        if isinstance(parent, ast.Assign):
            for target in parent.targets:
                name = target.id if isinstance(target, ast.Name) else (
                    target.attr if isinstance(target, ast.Attribute) else None
                )
                if _is_cycle_named(name):
                    yield (
                        node.lineno, node.col_offset,
                        f"true division of cycle quantities assigned to "
                        f"{name!r}; use // (or justify the float domain)",
                    )
                    break


def check_cyc_float_cast(ctx: FileContext) -> Iterator[Triple]:
    if ctx.package not in DET_PACKAGES:
        return
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and len(node.args) == 1
            and isinstance(node.args[0], (ast.Name, ast.Attribute))
        ):
            arg = node.args[0]
            name = arg.id if isinstance(arg, ast.Name) else arg.attr
            if _is_cycle_named(name):
                yield (
                    node.lineno, node.col_offset,
                    f"float({name}) pushes a cycle count into the float "
                    f"domain; keep cycle arithmetic integral",
                )


# --------------------------------------------------------------------------
# epoch-raw-write: FAST-cache invalidation discipline
# --------------------------------------------------------------------------

_EPOCH_WRITE_OK = ("bump", "_bump", "invalidate", "_invalidate", "reset",
                   "_reset", "clear", "_clear")


def check_epoch_raw_write(ctx: FileContext) -> Iterator[Triple]:
    for node in ast.walk(ctx.tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            attr = target.attr
            if attr != "epoch" and not attr.endswith("_epoch"):
                continue
            func = ctx.enclosing_function(target)
            fname = getattr(func, "name", "")
            if fname in {"__init__", "__post_init__", "__setstate__"}:
                continue
            if fname.startswith(_EPOCH_WRITE_OK):
                continue
            yield (
                node.lineno, node.col_offset,
                f"raw write to {attr!r} outside a bump/invalidate method; "
                f"epoch state feeds FAST timing caches — route the write "
                f"through the designated bump method so every invalidation "
                f"site stays auditable",
            )


# --------------------------------------------------------------------------
# cyc-calendar-retire: completion-calendar bucket discipline
# --------------------------------------------------------------------------

#: The only methods allowed to touch ``cal_*`` bucket columns: the
#: planners materialize a bucket (``plan_stretch`` for the FIFO path's
#: regimes, ``plan_streak`` for the PRMB kernel's merge streak), the
#: matching drains retire it, construction and reset-style helpers empty
#: it.  Anything else retiring entries out of band would bypass the
#: drain's telescoped stall accounting and PTS replay, silently diverging
#: from the heap-based per-event path.
_CALENDAR_WRITE_OK = ("plan_stretch", "drain_stretch", "plan_streak",
                      "drain_streak", "reset", "_reset", "clear", "_clear")


def check_cyc_calendar_retire(ctx: FileContext) -> Iterator[Triple]:
    for node in ast.walk(ctx.tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            attr = target.attr
            if not attr.startswith("cal_"):
                continue
            func = ctx.enclosing_function(target)
            fname = getattr(func, "name", "")
            if fname in {"__init__", "__post_init__", "__setstate__"}:
                continue
            if fname.startswith(_CALENDAR_WRITE_OK):
                continue
            yield (
                node.lineno, node.col_offset,
                f"raw write to calendar bucket column {attr!r} outside the "
                f"designated plan/drain methods; buckets retire only via "
                f"drain_stretch/drain_streak so the stall sums and PTS replay "
                f"stay bit-identical to the per-event heap discipline",
            )


# --------------------------------------------------------------------------
# layer-import: the package DAG
# --------------------------------------------------------------------------

def _import_targets(node: ast.AST, module: str) -> Iterator[Tuple[str, int, int]]:
    """Yield (resolved top-level repro subpackage, line, col) per import."""
    mod_parts = module.split(".")
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1], node.lineno, node.col_offset
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            if parts and parts[0] == "repro" and len(parts) > 1:
                yield parts[1], node.lineno, node.col_offset
        else:
            # Resolve `from ..pkg import x` against this module's package.
            if "repro" not in mod_parts:
                return
            pkg = mod_parts[:-1] if mod_parts[-1] != "" else mod_parts
            base = pkg[: len(pkg) - (node.level - 1)]
            head = base + (node.module or "").split(".") if node.module else base
            head = [p for p in head if p]
            if "repro" in head:
                i = head.index("repro")
                if i + 1 < len(head):
                    yield head[i + 1], node.lineno, node.col_offset


def check_layer_import(ctx: FileContext) -> Iterator[Triple]:
    forbidden = FORBIDDEN_IMPORTS.get(ctx.package)
    if not forbidden:
        return
    # Relative imports resolve against the containing package; for an
    # __init__.py the module name *is* the package, so re-append a stem.
    module = ctx.module
    if ctx.path.endswith("__init__.py"):
        module = module + ".__init__"
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for target, line, col in _import_targets(node, module):
                if target in forbidden and target != ctx.package:
                    yield (
                        line, col,
                        f"layering violation: {ctx.package!r} may not import "
                        f"repro.{target} (dependency DAG: memory < core < "
                        f"npu/workloads < sparse < analysis/cli)",
                    )


# --------------------------------------------------------------------------
# fault-swallow: broad excepts on engine paths
# --------------------------------------------------------------------------

def _is_broad(type_node: Optional[ast.expr]) -> bool:
    if type_node is None:
        return True
    if isinstance(type_node, ast.Name):
        return type_node.id in {"Exception", "BaseException"}
    if isinstance(type_node, ast.Tuple):
        return any(_is_broad(elt) for elt in type_node.elts)
    return False


def check_fault_swallow(ctx: FileContext) -> Iterator[Triple]:
    if ctx.package not in FAULT_PACKAGES:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad(node.type):
            continue
        reraises = any(
            isinstance(sub, ast.Raise) and sub.exc is None
            for sub in ast.walk(node)
        )
        if reraises:
            continue
        what = "bare except" if node.type is None else "broad except"
        yield (
            node.lineno, node.col_offset,
            f"{what} on an engine path can swallow TranslationFault and "
            f"convert a modelling bug into silent timing skew; catch the "
            f"specific exception or re-raise",
        )


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

RULES: Tuple[Rule, ...] = (
    Rule(
        id="det-set-iter",
        severity="error",
        summary="no iteration over sets in cycle-accounting code",
        rationale="set order follows hash-table layout; any cycle total or "
                  "victim choice derived from it diverges across runs",
        check=check_det_set_iter,
    ),
    Rule(
        id="det-banned-call",
        severity="error",
        summary="no wall clocks, unseeded RNGs, environment reads, or "
                "bare popitem() in core/memory/npu",
        rationale="time.time()/global random/os.environ/dict.popitem() "
                  "inject state the simulation config does not control",
        check=check_det_banned_call,
    ),
    Rule(
        id="det-hash-order",
        severity="error",
        summary="hash()/id() values must not feed ordering or accounting",
        rationale="both vary across interpreter runs (PYTHONHASHSEED, heap "
                  "layout); ordering by them breaks bit-identity",
        check=check_det_hash_order,
    ),
    Rule(
        id="cyc-true-div",
        severity="error",
        summary="cycle/latency arithmetic uses // not /",
        rationale="true division silently promotes cycle counts to floats; "
                  "int() truncation then rounds differently than floor",
        check=check_cyc_true_div,
    ),
    Rule(
        id="cyc-float-cast",
        severity="warning",
        summary="no float(...) casts of cycle-named values",
        rationale="float cycle counts accumulate representation error that "
                  "golden diffs register as engine divergence",
        check=check_cyc_float_cast,
    ),
    Rule(
        id="epoch-raw-write",
        severity="error",
        summary="epoch counters change only via bump/invalidate methods",
        rationale="FAST timing caches trust epochs for invalidation; a raw "
                  "write is an invalidation site the audit trail misses",
        check=check_epoch_raw_write,
    ),
    Rule(
        id="cyc-calendar-retire",
        severity="error",
        summary="calendar bucket columns change only in plan/drain methods",
        rationale="an out-of-band bucket write retires walks without the "
                  "drain's stall telescoping and PTS replay, diverging "
                  "from the per-event heap bit-for-bit contract",
        check=check_cyc_calendar_retire,
    ),
    Rule(
        id="layer-import",
        severity="error",
        summary="package imports respect the dependency DAG",
        rationale="memory < core < npu/workloads < sparse < analysis/cli; "
                  "back-edges couple hot paths to presentation code",
        check=check_layer_import,
    ),
    Rule(
        id="fault-swallow",
        severity="error",
        summary="no bare/broad except on engine paths",
        rationale="the PR 1 oracle bug: a broad except swallowed "
                  "TranslationFault and faulted pages were never paid for",
        check=check_fault_swallow,
    ),
    # meta-bare-suppress is implemented by the suppression layer in core.py;
    # registered here so --list-rules and --select know it.
    Rule(
        id="meta-bare-suppress",
        severity="error",
        summary="every suppression carries a written justification",
        rationale="a disable comment without a why is a latent bug report; "
                  "the justification is the review artifact",
        check=lambda ctx: iter(()),
    ),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in RULES}
