"""Mapping activity names onto processing elements.

"Activity names, then, define an unbounded namespace.  Names in this space
are mapped dynamically into a finite namespace.  The activity name plus
some mapping information uniquely define the runtime tag and processing
element (PE) number" (§2.2.2).

The hash used here is *stable*: it does not depend on Python's per-process
string seeding, so a simulation is reproducible run to run.
"""

import zlib

__all__ = ["stable_tag_key", "HashMapping", "ByContextMapping"]


def _mix(h, value):
    return (h * 1000003 ^ value) & 0xFFFFFFFF


#: code-block name -> crc32 of its UTF-8 bytes.  A program names only a
#: handful of code blocks, so this stays small, and it saves re-hashing
#: the name at every context level of every key.
_CODE_BLOCK_CRC = {}


def _code_block_crc(code_block):
    crc = _CODE_BLOCK_CRC.get(code_block)
    if crc is None:
        crc = _CODE_BLOCK_CRC[code_block] = zlib.crc32(
            code_block.encode("utf-8"))
    return crc


def stable_tag_key(tag):
    """A deterministic 32-bit key for a tag (recursing through contexts).

    The key is a pure function of the tag's structure, so it is memoized
    on the tag itself (``Tag._map_key``) — with interned tags the mapping
    policy pays the chain walk once per distinct activity name instead of
    once per routed token.  Each level folds in the code block's crc32,
    the statement and the iteration, leaf first (three ``_mix`` steps,
    written out because this runs once per new tag).
    """
    try:
        cached = tag._map_key
    except AttributeError:  # a non-Tag stand-in without the cache slot
        cached = None
    if cached is not None:
        return cached
    crcs = _CODE_BLOCK_CRC
    h = 0x811C9DC5
    node = tag
    while node is not None:
        code_block = node.code_block
        try:
            crc = crcs[code_block]
        except KeyError:
            crc = _code_block_crc(code_block)
        h = (h * 1000003 ^ crc) & 0xFFFFFFFF
        h = (h * 1000003 ^ node.statement) & 0xFFFFFFFF
        h = (h * 1000003 ^ node.iteration) & 0xFFFFFFFF
        node = node.context
    try:
        object.__setattr__(tag, "_map_key", h)
    except AttributeError:  # a non-Tag stand-in without the cache slot
        pass
    return h


class HashMapping:
    """Spread individual activities across all PEs by hashing the full tag.

    Maximizes load balance and exposes the most communication — the
    configuration that stresses latency tolerance hardest.
    """

    def __init__(self, n_pes):
        self.n_pes = n_pes

    def pe_of(self, tag):
        return stable_tag_key(tag) % self.n_pes

    def __repr__(self):
        return f"HashMapping(n_pes={self.n_pes})"


class ByContextMapping:
    """Keep each invocation context on one PE.

    All activities of one procedure call or loop context execute on the
    same PE, so only linkage (CALL/L) and structure traffic cross the
    network.  Loop iterations are spread by folding the iteration number
    in, giving the classic "unfold loops across PEs" behaviour.
    """

    def __init__(self, n_pes, spread_iterations=True):
        self.n_pes = n_pes
        self.spread_iterations = spread_iterations

    def pe_of(self, tag):
        context_key = stable_tag_key(tag.context) if tag.context else 0
        h = _mix(context_key, _code_block_crc(tag.code_block))
        if self.spread_iterations:
            h = _mix(h, tag.iteration)
        return h % self.n_pes

    def __repr__(self):
        return (
            f"ByContextMapping(n_pes={self.n_pes}, "
            f"spread_iterations={self.spread_iterations})"
        )
