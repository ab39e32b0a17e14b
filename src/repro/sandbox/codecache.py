"""Verify once, compile once: a per-server cache of shipped agent code.

A Java class loader defines each class once.  Here the expensive part of
loading shipped code is the same three steps for every arrival —
:func:`~repro.sandbox.verifier.verify_source`, then
:func:`~repro.sandbox.instrument.instrument_loops`, then ``compile`` —
and all three are pure functions of the source bytes and the (frozen)
:class:`~repro.sandbox.verifier.VerifierPolicy`.  An agent touring four
servers ships identical source to each; a wave of agents launched from
one class ships identical source to every server it visits.

Two facilities live here:

* :func:`compile_verified` — the one path from source to a loadable
  :class:`VerifiedCode`.  Every namespace load goes through it, with or
  without a cache.
* :class:`CodeVerificationCache` — a bounded LRU mapping
  ``(sha256(source), policy)`` to the :class:`VerifiedCode` that path
  produced.  Only accepted code is stored: a rejected source runs the
  full verifier again on every arrival and raises exactly what it raised
  the first time.

A shared code object shares no agent state.  Code objects are immutable;
``exec`` of one into a namespace's own globals creates fresh functions
and classes bound to those globals.  The loop-budget hook
(:data:`~repro.sandbox.instrument.LOOP_CHECK_NAME`) is a global-name
lookup, so every agent's loops charge that agent's own budget.  The
impostor check depends on the loading namespace's trusted names and is
therefore made per load, never cached.
"""

from __future__ import annotations

import ast
import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from types import CodeType

from repro.errors import CodeVerificationError
from repro.sandbox.instrument import instrument_loops
from repro.sandbox.verifier import VerifierPolicy, check_source_size, verify_source

__all__ = [
    "CODE_CACHE_BYTES",
    "CODE_CACHE_SIZE",
    "CodeVerificationCache",
    "VerifiedCode",
    "compile_verified",
    "source_digest",
]

#: Distinct (source, policy) pairs one server keeps compiled.
CODE_CACHE_SIZE = 256
#: Total source bytes one server keeps compiled.  A compiled module can
#: take some 20x its source (one code object per tiny ``def`` or
#: ``lambda``): by entries alone, 256 such sources at the AST node cap
#: pin ~0.7 GB; under this budget a full cache holds ~23 MB.  A typical
#: agent ships under 4 KiB, so for it the entry count binds first.
CODE_CACHE_BYTES = 1 << 20


@dataclass(frozen=True, slots=True)
class VerifiedCode:
    """Source that passed the verifier, instrumented and compiled."""

    code: CodeType
    names: frozenset[str]  # top-level names the code binds


def source_digest(source: str) -> str:
    """sha256 of the source text; distinct strings never share a digest."""
    # surrogatepass keeps the encoding injective over every str, so a
    # lone surrogate cannot alias the text a lossy encoding would give.
    return hashlib.sha256(source.encode("utf-8", "surrogatepass")).hexdigest()


def compile_verified(source: str, policy: VerifierPolicy) -> VerifiedCode:
    """Verify, instrument and compile ``source``; raise if it is refused.

    The code object is named after the source's digest, so tracebacks
    from agent code say which code raised without naming any one agent.
    """
    tree = verify_source(source, policy)
    names = _top_level_names(tree)
    filename = f"<agent:{source_digest(source)[:12]}>"
    try:
        code = compile(instrument_loops(tree), filename, "exec")
    except SyntaxError as exc:  # parses, but e.g. ``return`` outside a def
        raise CodeVerificationError(f"syntax error: {exc}") from exc
    return VerifiedCode(code, names)


def _top_level_names(tree: ast.Module) -> frozenset[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".", 1)[0])
    return frozenset(names)


class CodeVerificationCache:
    """Bounded LRU of accepted code, keyed by source digest and policy.

    Bounded twice: by :data:`CODE_CACHE_SIZE` entries and by
    :data:`CODE_CACHE_BYTES` of source, whichever binds first.

    Takes no lock: a server's simulated threads run one at a time.
    """

    __slots__ = ("_entries", "_bytes", "hits", "misses")

    def __init__(self) -> None:
        # key -> (entry, source bytes it is charged)
        self._entries: OrderedDict[
            tuple[str, VerifierPolicy], tuple[VerifiedCode, int]
        ] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def verify(self, source: str, policy: VerifierPolicy) -> VerifiedCode:
        """Like :func:`compile_verified`, but each accepted pair is done once.

        The size cap is checked before the source is hashed, so an
        oversized arrival costs no more than it did uncached.
        """
        size = check_source_size(source, policy)
        key = (source_digest(source), policy)
        found = self._entries.get(key)
        if found is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return found[0]
        self.misses += 1
        entry = compile_verified(source, policy)
        if size <= CODE_CACHE_BYTES:  # else returned, never kept
            self._entries[key] = (entry, size)
            self._bytes += size
            while (
                len(self._entries) > CODE_CACHE_SIZE
                or self._bytes > CODE_CACHE_BYTES
            ):
                self._bytes -= self._entries.popitem(last=False)[1][1]
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}
