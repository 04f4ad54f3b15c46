"""AST determinism audit over the repository's own source.

The auditor parses every Python file under the given roots, builds a
name-resolution map per module (imports, local definitions), and
extracts *effect occurrences* (ambient RNG, clock reads, environment
reads, unordered iteration, ...) per function.  Every occurrence in
every scanned function is then judged against the closed-world policy:

* covered by a catalogue :class:`~repro.analysis.sanitizer.effects.Allowance`
  — sanctioned library-wide;
* covered by an inline ``# repro: allow[DTnnn] -- reason`` pragma —
  suppressed, and the justification is recorded in the report;
* otherwise — an :class:`~repro.analysis.sanitizer.report.AuditFinding`.

No call graph decides which functions count: a clock read entered
through a ``with`` block or a function handed to ``map`` is judged like
any other, so the policy table is the one place an effect is accepted.
A path that names nothing to read (missing, not Python, or a file that
does not parse) raises :class:`~repro.errors.AnalysisError` rather than
passing unread.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ...errors import AnalysisError
from .effects import (
    ALLOWANCES,
    EFFECT_AMBIENT_RNG,
    EFFECT_BUILTIN_HASH,
    EFFECT_ENTROPY,
    EFFECT_ENV_READ,
    EFFECT_FORK_UNSAFE,
    EFFECT_MODULE_STATE,
    EFFECT_NONATOMIC_WRITE,
    EFFECT_UNORDERED_ITER,
    EFFECT_WALL_CLOCK,
    SHARED_DISK_MODULES,
    Allowance,
)
from .report import AuditFinding, AuditReport, Suppression
from .rules import DT_REGISTRY, PRAGMA_RULE_ID, rule_for_effect

__all__ = ["audit_paths", "discover_files"]

#: Pseudo-qualname for module-level code.
MODULE_UNIT = "<module>"

#: Clock-reading calls policed by DT002.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Entropy-reading calls policed by DT010.
_ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
        "random.SystemRandom",
    }
)

#: ``numpy.random`` attributes that are deterministic when given an
#: explicit seed argument (constructors, not global-state draws).
_NP_RANDOM_SEEDED_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)

#: Mutable-container constructors recognised by DT005.
_MUTABLE_FACTORIES = frozenset({"dict", "list", "set", "defaultdict", "OrderedDict"})

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[^\]]*)\]\s*(?:--\s*(?P<reason>.*\S))?\s*$"
)
_RULE_ID_RE = re.compile(r"^DT\d{3}$")


@dataclass(frozen=True)
class _Pragma:
    lineno: int
    rules: frozenset[str]
    reason: str
    problems: tuple[str, ...]


@dataclass
class _Occurrence:
    effect: str
    lineno: int
    detail: str
    qualname: str


@dataclass
class _Unit:
    """One analysed code unit: a function, method or the module body."""

    qualname: str
    lineno: int
    calls_dotted: set[str] = field(default_factory=set)
    occurrences: list[_Occurrence] = field(default_factory=list)


@dataclass
class _Module:
    name: str
    path: Path
    units: dict[str, _Unit] = field(default_factory=dict)
    pragmas: dict[int, _Pragma] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)
    comment_lines: set[int] = field(default_factory=set)


def discover_files(paths: Iterable[str | Path]) -> list[Path]:
    """All ``.py`` files under ``paths`` (files pass through), sorted.

    Raises :class:`~repro.errors.AnalysisError` for a path that is
    missing, is neither a directory nor a ``.py`` file, or is a
    directory holding no ``.py`` file: an audit of nothing is no audit.
    """
    found: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            below = set(p.rglob("*.py"))
            if not below:
                raise AnalysisError(f"cannot audit {p}: no Python files under it")
            found.update(below)
        elif p.is_file() and p.suffix == ".py":
            found.add(p)
        elif p.exists():
            raise AnalysisError(f"cannot audit {p}: not a Python file or directory")
        else:
            raise AnalysisError(f"cannot audit {p}: no such file or directory")
    return sorted(found)


def _module_name(path: Path) -> str:
    """Dotted module name from the package layout around ``path``."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _scan_pragmas(module: _Module, source: str) -> None:
    if "repro:" not in source:
        # Tokenisation is the audit's single hottest phase and
        # `comment_lines` is only ever consulted next to a pragma in the
        # same module, so pragma-free files skip it wholesale.
        return
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        lineno, col = tok.start
        line = lines[lineno - 1] if lineno <= len(lines) else ""
        if not line[:col].strip():
            module.comment_lines.add(lineno)
        match = _PRAGMA_RE.search(tok.string)
        if match is None:
            continue
        ids = frozenset(
            token.strip() for token in match.group("rules").split(",") if token.strip()
        )
        reason = (match.group("reason") or "").strip()
        problems: list[str] = []
        if not ids:
            problems.append("names no rule IDs")
        unknown = sorted(i for i in ids if not _RULE_ID_RE.match(i) or i not in DT_REGISTRY)
        if unknown:
            problems.append(f"unknown rule ID(s) {', '.join(unknown)}")
        if not reason:
            problems.append("carries no `-- justification`")
        module.pragmas[lineno] = _Pragma(lineno, ids, reason, tuple(problems))


class _Scanner(ast.NodeVisitor):
    """Extracts units, imports and effect occurrences."""

    def __init__(self, module: _Module) -> None:
        self.module = module
        self._class_stack: list[str] = []
        self._unit_stack: list[_Unit] = []
        # The functions defined inside each function, by its qualname.
        self._local_functions: dict[str, set[str]] = {}
        root = _Unit(MODULE_UNIT, 1)
        module.units[MODULE_UNIT] = root
        self._unit_stack.append(root)

    # -- helpers -------------------------------------------------------
    @property
    def unit(self) -> _Unit:
        return self._unit_stack[-1]

    def _resolve_root(self, name: str) -> str:
        return self.module.imports.get(name, name)

    def _dotted(self, node: ast.expr) -> str | None:
        """``a.b.c`` as a dotted string with the root import-resolved."""
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.insert(0, current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.insert(0, self._resolve_root(current.id))
        return ".".join(parts)

    def _record(self, effect: str, node: ast.AST, detail: str) -> None:
        lineno = getattr(node, "lineno", self.unit.lineno)
        self.unit.occurrences.append(
            _Occurrence(effect, int(lineno), detail, self.unit.qualname)
        )

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module.imports[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def _import_base(self, level: int) -> str:
        if level == 0:
            return ""
        is_package = self.module.path.name == "__init__.py"
        parts = self.module.name.split(".")
        if not is_package:
            parts = parts[:-1]
        parts = parts[: len(parts) - (level - 1)]
        return ".".join(parts)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._import_base(node.level)
        source = ".".join(p for p in (base, node.module or "") if p)
        for alias in node.names:
            if alias.name == "*":
                continue
            qualified = f"{source}.{alias.name}" if source else alias.name
            self.module.imports[alias.asname or alias.name] = qualified
        self.generic_visit(node)

    # -- definitions ---------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        for item in node.body:
            self.visit(item)
        self._class_stack.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        prefix = ".".join(self._class_stack)
        if self.unit.qualname != MODULE_UNIT:
            parent = f"{self.unit.qualname}.<locals>"
            qualname = f"{parent}.{node.name}"
            self._local_functions.setdefault(self.unit.qualname, set()).add(node.name)
        else:
            qualname = f"{prefix}.{node.name}" if prefix else node.name
        unit = _Unit(qualname, node.lineno)
        self.module.units[qualname] = unit
        self._unit_stack.append(unit)
        for item in node.body:
            self.visit(item)
        self._unit_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- module-level mutable state (DT005) ----------------------------
    def _check_module_state(self, target: ast.expr, value: ast.expr | None) -> None:
        if self.unit.qualname != MODULE_UNIT or self._class_stack:
            return
        if not isinstance(target, ast.Name) or value is None:
            return
        # Dunder metadata (`__all__`, ...) is never mutated after import.
        if target.id.startswith("__") and target.id.endswith("__"):
            return
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                     ast.ListComp, ast.SetComp))
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_FACTORIES
        ):
            mutable = True
        if mutable:
            self.unit.occurrences.append(
                _Occurrence(
                    EFFECT_MODULE_STATE,
                    value.lineno,
                    f"module-level mutable container `{target.id}`",
                    target.id,
                )
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_module_state(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_module_state(node.target, node.value)
        self.generic_visit(node)

    # -- iteration order (DT004) ---------------------------------------
    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def _check_iteration(self, iter_node: ast.expr) -> None:
        if self._is_set_expr(iter_node):
            self._record(
                EFFECT_UNORDERED_ITER,
                iter_node,
                "iterates a set expression in hash order (wrap in sorted())",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.expr, gens: list[ast.comprehension]) -> None:
        for gen in gens:
            self._check_iteration(gen.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node, node.generators)

    # -- environment reads (DT003) -------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = self._dotted(node)
        if dotted == "os.environ":
            self._record(EFFECT_ENV_READ, node, "reads os.environ")
        self.generic_visit(node)

    # -- calls -----------------------------------------------------------
    def _check_rng_call(self, dotted: str, node: ast.Call) -> bool:
        if dotted.startswith("numpy.random."):
            attr = dotted.removeprefix("numpy.random.")
            if attr in _NP_RANDOM_SEEDED_OK:
                if not node.args and not node.keywords:
                    self._record(
                        EFFECT_AMBIENT_RNG,
                        node,
                        f"`{attr}()` without a seed draws OS entropy; pass a "
                        "seed derived via repro.rng.derive_seed",
                    )
                    return True
                return False
            self._record(
                EFFECT_AMBIENT_RNG,
                node,
                f"`numpy.random.{attr}` uses the global numpy generator",
            )
            return True
        if dotted.startswith("random.") and dotted not in _ENTROPY_CALLS:
            attr = dotted.removeprefix("random.")
            if attr == "Random" and (node.args or node.keywords):
                return False
            self._record(
                EFFECT_AMBIENT_RNG,
                node,
                f"`random.{attr}` uses the global stdlib generator",
            )
            return True
        return False

    def _check_shared_disk_write(self, dotted: str | None, node: ast.Call) -> None:
        if self.module.name not in SHARED_DISK_MODULES:
            return
        mode = _write_mode(node, dotted)
        if mode is not None:
            self._record(
                EFFECT_NONATOMIC_WRITE,
                node,
                f"write-mode file open ({mode}) — requires write-to-temp "
                "+ os.replace in the same function",
            )

    def _check_submit(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "submit"):
            return
        if not node.args:
            return
        target = node.args[0]
        problem: str | None = None
        if isinstance(target, ast.Lambda):
            problem = "a lambda"
        elif isinstance(target, ast.Attribute):
            problem = f"a bound method (`.{target.attr}`)"
        elif isinstance(target, ast.Name):
            enclosing = self.unit.qualname
            if target.id in self._local_functions.get(enclosing, set()):
                problem = f"a nested closure (`{target.id}`)"
        if problem is not None:
            self._record(
                EFFECT_FORK_UNSAFE,
                node,
                f"submits {problem} to a process pool; ship a module-level "
                "function instead",
            )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        dotted: str | None = None
        if isinstance(func, ast.Name):
            name = func.id
            if name == "hash":
                self._record(
                    EFFECT_BUILTIN_HASH, node, "built-in hash() is salted per process"
                )
            dotted = self.module.imports.get(name)
        elif isinstance(func, ast.Attribute):
            dotted = self._dotted(func)
            if dotted is not None and dotted.split(".", 1)[0] in ("self", "cls"):
                dotted = None
        if dotted is not None:
            self.unit.calls_dotted.add(dotted)
            if not self._check_rng_call(dotted, node):
                if dotted in _WALL_CLOCK_CALLS:
                    self._record(EFFECT_WALL_CLOCK, node, f"reads `{dotted}`")
                elif dotted in _ENTROPY_CALLS:
                    self._record(EFFECT_ENTROPY, node, f"reads OS entropy via `{dotted}`")
                elif dotted == "os.getenv":
                    self._record(EFFECT_ENV_READ, node, "reads os.getenv")
        if (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple")
            and node.args
            and self._is_set_expr(node.args[0])
        ):
            self._record(
                EFFECT_UNORDERED_ITER,
                node,
                f"materialises a set with {func.id}() in hash order "
                "(use sorted())",
            )
        self._check_shared_disk_write(dotted, node)
        self._check_submit(node)
        self.generic_visit(node)


def _write_mode(node: ast.Call, dotted: str | None) -> str | None:
    """The write/append mode string of a file-open call, if any."""
    func = node.func
    attr = func.attr if isinstance(func, ast.Attribute) else None
    is_open = (isinstance(func, ast.Name) and func.id == "open") or attr == "open"
    if attr in ("write_text", "write_bytes"):
        return f".{attr}"
    if not is_open:
        return None
    mode_node: ast.expr | None = None
    arg_index = 1 if isinstance(func, ast.Name) else 0
    if len(node.args) > arg_index:
        mode_node = node.args[arg_index]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        mode = mode_node.value
        if any(flag in mode for flag in ("w", "a", "x", "+")):
            return f"mode={mode!r}"
    return None


# ----------------------------------------------------------------------
# Scanning and policy evaluation.


def _scan_module(path: Path) -> _Module:
    module = _Module(_module_name(path), path)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        raise AnalysisError(f"cannot audit {path}: {exc}") from exc
    _scan_pragmas(module, source)
    _Scanner(module).visit(tree)
    return module


def _allowed(
    occ: _Occurrence, module: str, allowances: Sequence[Allowance]
) -> bool:
    for allow in allowances:
        if allow.effect != occ.effect:
            continue
        if module != allow.module and not module.startswith(allow.module + "."):
            continue
        if allow.qualname is None:
            return True
        if occ.qualname == allow.qualname or occ.qualname.startswith(
            allow.qualname + "."
        ):
            return True
    return False


def _pragma_for_line(module: _Module, lineno: int) -> _Pragma | None:
    pragma = module.pragmas.get(lineno)
    if pragma is not None:
        return pragma
    previous = module.pragmas.get(lineno - 1)
    if previous is not None and previous.lineno in module.comment_lines:
        return previous
    return None


def audit_paths(
    paths: Iterable[str | Path],
    allowances: Sequence[Allowance] | None = None,
) -> AuditReport:
    """Audit every Python file under ``paths`` and return the report.

    ``allowances`` is the allowance policy; it defaults to the
    catalogue's :data:`~repro.analysis.sanitizer.effects.ALLOWANCES`.
    Raises :class:`~repro.errors.AnalysisError` when a path cannot be
    read (see :func:`discover_files`) or a file does not parse.
    """
    policy = ALLOWANCES if allowances is None else tuple(allowances)
    files = discover_files(paths)
    findings: list[AuditFinding] = []
    suppressions: list[Suppression] = []
    n_functions = 0
    for path in files:
        module = _scan_module(path)
        findings.extend(_pragma_findings(module))
        for unit in module.units.values():
            if unit.qualname != MODULE_UNIT:
                n_functions += 1
            for occ in unit.occurrences:
                _judge(occ, module, unit, policy, findings, suppressions)
    findings.sort(key=lambda f: (f.rule, f.path, f.lineno))
    suppressions.sort(key=lambda s: (s.rule, s.path, s.lineno))
    return AuditReport(
        findings=tuple(findings),
        suppressions=tuple(suppressions),
        n_files=len(files),
        n_functions=n_functions,
    )


def _pragma_findings(module: _Module) -> list[AuditFinding]:
    rule = DT_REGISTRY[PRAGMA_RULE_ID]
    return [
        AuditFinding(
            rule=rule.rule_id,
            name=rule.name,
            module=module.name,
            qualname=MODULE_UNIT,
            path=str(module.path),
            lineno=pragma.lineno,
            message="malformed allow pragma: " + "; ".join(pragma.problems),
        )
        for pragma in sorted(module.pragmas.values(), key=lambda p: p.lineno)
        if pragma.problems
    ]


def _judge(
    occ: _Occurrence,
    module: _Module,
    unit: _Unit,
    policy: Sequence[Allowance],
    findings: list[AuditFinding],
    suppressions: list[Suppression],
) -> None:
    rule = rule_for_effect(occ.effect)
    if occ.effect == EFFECT_NONATOMIC_WRITE and "os.replace" in unit.calls_dotted:
        return
    if _allowed(occ, module.name, policy):
        return
    pragma = _pragma_for_line(module, occ.lineno)
    if pragma is not None and not pragma.problems and rule.rule_id in pragma.rules:
        suppressions.append(
            Suppression(
                rule=rule.rule_id,
                module=module.name,
                path=str(module.path),
                lineno=occ.lineno,
                reason=pragma.reason,
            )
        )
        return
    findings.append(
        AuditFinding(
            rule=rule.rule_id,
            name=rule.name,
            module=module.name,
            qualname=occ.qualname,
            path=str(module.path),
            lineno=occ.lineno,
            message=occ.detail,
        )
    )
