"""Per-agent namespaces: the class-loader analogue.

Section 5.3, "Domain creation": loading each agent through its own class
loader (1) forces privileged classes to resolve from the local trusted
classpath — an agent cannot install an "impostor" class under a trusted
name — and (2) isolates agents from one another.

:class:`AgentNamespace` reproduces both properties.  Verified agent
source executes in a fresh globals dict seeded with a restricted builtin
set plus the server's *trusted bindings*; top-level definitions that
would shadow a trusted name are rejected (:class:`NamespaceError`), and
every namespace is a separate dict, so nothing an agent defines is
visible to any other agent.

Verification and compilation go through
:func:`~repro.sandbox.codecache.compile_verified`; a namespace given a
server's :class:`~repro.sandbox.codecache.CodeVerificationCache` reuses
code that server already verified, and only executes it into its own
globals.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import NamespaceError
from repro.sandbox.codecache import CodeVerificationCache, compile_verified
from repro.sandbox.instrument import LOOP_CHECK_NAME, LoopBudget
from repro.sandbox.verifier import VerifierPolicy

__all__ = ["AgentNamespace", "SAFE_BUILTINS"]


def _make_safe_builtins() -> dict[str, Any]:
    """The builtin names agent code may use.

    Everything here is either pure computation or an exception type; the
    reflective / IO builtins are absent *and* banned by the verifier
    (defence in depth).
    """
    import builtins

    safe_names = [
        # constructors / conversions
        "bool", "int", "float", "str", "bytes", "bytearray", "list", "dict",
        "set", "frozenset", "tuple", "complex",
        # pure functions
        "abs", "all", "any", "divmod", "enumerate", "filter", "format",
        "hash", "isinstance", "issubclass", "iter", "len", "map", "max",
        "min", "next", "pow", "range", "repr", "reversed", "round", "sorted",
        "sum", "zip", "chr", "ord", "hex", "oct", "bin", "callable", "slice",
        "super",
        # exceptions agents may raise/catch
        "Exception", "BaseException", "ValueError", "TypeError", "KeyError",
        "IndexError", "AttributeError", "RuntimeError", "StopIteration",
        "ZeroDivisionError", "ArithmeticError", "LookupError", "NameError",
        "UnboundLocalError", "NotImplementedError", "OverflowError",
        # constants
        "True", "False", "None", "NotImplemented",
    ]
    table: dict[str, Any] = {}
    for name in safe_names:
        if hasattr(builtins, name):
            table[name] = getattr(builtins, name)
    # class statements need __build_class__ under the hood
    table["__build_class__"] = builtins.__build_class__
    return table


SAFE_BUILTINS = _make_safe_builtins()


class AgentNamespace:
    """An isolated namespace for one agent's code."""

    def __init__(
        self,
        name: str,
        trusted: Mapping[str, Any] | None = None,
        policy: VerifierPolicy | None = None,
        code_cache: CodeVerificationCache | None = None,
    ) -> None:
        self.name = name
        self.policy = policy or VerifierPolicy()
        self._compile = (
            compile_verified if code_cache is None else code_cache.verify
        )
        self._trusted = dict(trusted or {})
        for key in self._trusted:
            if key.startswith("__"):
                raise NamespaceError(f"trusted binding {key!r} may not be a dunder")
        builtins_table = dict(SAFE_BUILTINS)
        builtins_table["__import__"] = self._restricted_import
        self._budget = LoopBudget(self.policy.max_loop_iterations)
        self._globals: dict[str, Any] = {
            "__builtins__": builtins_table,
            "__name__": f"agentns:{name}",
            # The execution-budget hook: a dunder name is unreachable from
            # verified agent code (cannot be called, read, or shadowed).
            LOOP_CHECK_NAME: self._budget.check,
            **self._trusted,
        }
        self._loaded_sources = 0

    def _restricted_import(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Import hook honouring the verifier's allowlist (defence in depth)."""
        import importlib

        root = name.split(".", 1)[0]
        if root not in self.policy.allowed_imports:
            raise NamespaceError(
                f"namespace {self.name!r}: import of {name!r} denied"
            )
        return importlib.import_module(name)

    # -- loading ------------------------------------------------------------

    def load(self, source: str) -> dict[str, Any]:
        """Verify and execute ``source``; returns the new top-level names.

        Raises :class:`CodeVerificationError` if the verifier rejects the
        code and :class:`NamespaceError` if a top-level definition would
        shadow a trusted binding (the impostor-class defence).
        """
        verified = self._compile(source, self.policy)
        impostors = sorted(verified.names & self._trusted.keys())
        if impostors:
            raise NamespaceError(
                f"namespace {self.name!r}: code attempts to shadow trusted"
                f" name(s) {', '.join(impostors)}"
            )
        before = set(self._globals)
        exec(verified.code, self._globals)  # noqa: S102 - verified + restricted globals
        self._loaded_sources += 1
        return {
            key: value
            for key, value in self._globals.items()
            if key not in before
        }

    # -- access ----------------------------------------------------------------

    def get(self, name: str) -> Any:
        """Fetch a name defined by the loaded code (or a trusted binding)."""
        try:
            return self._globals[name]
        except KeyError:
            raise NamespaceError(
                f"namespace {self.name!r} has no binding {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._globals

    @property
    def loaded_sources(self) -> int:
        return self._loaded_sources

    # -- execution budget (Telescript-permit analogue) ---------------------------

    def reset_execution_budget(self) -> None:
        """Refill the loop budget (the server does this per entry method)."""
        self._budget.reset()

    @property
    def loop_iterations_used(self) -> int:
        return self._budget.used
