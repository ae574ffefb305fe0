"""Token packing: convert between byte buffers and fixed-width token streams.

The Fleet software runtime (paper Section 2) fills a contiguous DRAM buffer
with each processing unit's input stream; the hardware breaks the bitstream
into ``input_token_size``-bit tokens. We pack little-endian-bit-first, so an
8-bit token stream is exactly the byte sequence.
"""

import operator

from ..lang.errors import FleetSimulationError
from ..lang.types import fits, mask


def as_token(token, width):
    """The token rule every engine applies: a token is an integer in
    Python's index sense (``int``, ``bool``, a NumPy integer — never a
    float) in ``[0, 2**width)``, and runs as a plain ``int``."""
    try:
        token = operator.index(token)
    except TypeError:
        pass
    else:
        if 0 <= token <= mask(width):
            return token
    raise FleetSimulationError(
        f"token {token!r} does not fit the declared {width}-bit input width"
    )


def as_tokens(tokens):
    """``tokens`` as a list with every integer token a plain ``int`` (see
    :func:`as_token`); a non-integer token stays as given, so the
    engine's own check rejects it at its position in the stream."""
    if not isinstance(tokens, list):
        tokens = list(tokens)
    try:
        return list(map(operator.index, tokens))
    except TypeError:
        return [_index_or_self(token) for token in tokens]


def _index_or_self(token):
    try:
        return operator.index(token)
    except TypeError:
        return token


def tokens_from_bytes(data, token_width):
    """Split ``data`` (bytes) into ``token_width``-bit tokens.

    The buffer length in bits must be a multiple of the token width — the
    runtime pads streams when it packs them.
    """
    total_bits = len(data) * 8
    if total_bits % token_width:
        raise FleetSimulationError(
            f"buffer of {total_bits} bits is not a whole number of "
            f"{token_width}-bit tokens"
        )
    if token_width == 8:
        return list(data)
    value = int.from_bytes(data, "little")
    return [
        (value >> (i * token_width)) & mask(token_width)
        for i in range(total_bits // token_width)
    ]


def bytes_from_tokens(tokens, token_width):
    """Pack ``token_width``-bit tokens into bytes (zero-padded to a byte
    boundary at the end)."""
    if token_width == 8:
        try:
            return bytes(tokens)
        except ValueError:
            raise FleetSimulationError(
                "token does not fit in 8 bits"
            ) from None
    value = 0
    for i, token in enumerate(tokens):
        if not fits(token, token_width):
            raise FleetSimulationError(
                f"token {token} does not fit in {token_width} bits"
            )
        value |= token << (i * token_width)
    nbytes = (len(tokens) * token_width + 7) // 8
    return value.to_bytes(nbytes, "little")


def words_to_tokens(values, *, value_width, token_width):
    """Serialize fixed-width integers into a token stream (little-endian),
    e.g. 32-bit datapoint coordinates into 8-bit tokens."""
    if value_width % token_width:
        raise FleetSimulationError(
            f"value width {value_width} is not a multiple of token width "
            f"{token_width}"
        )
    per_value = value_width // token_width
    tokens = []
    for value in values:
        if not fits(value, value_width):
            raise FleetSimulationError(
                f"value {value} does not fit in {value_width} bits"
            )
        for i in range(per_value):
            tokens.append((value >> (i * token_width)) & mask(token_width))
    return tokens


def tokens_to_words(tokens, *, value_width, token_width):
    """Inverse of :func:`words_to_tokens`."""
    if value_width % token_width:
        raise FleetSimulationError(
            f"value width {value_width} is not a multiple of token width "
            f"{token_width}"
        )
    per_value = value_width // token_width
    if len(tokens) % per_value:
        raise FleetSimulationError(
            f"{len(tokens)} tokens is not a whole number of "
            f"{value_width}-bit values"
        )
    values = []
    for i in range(0, len(tokens), per_value):
        value = 0
        for j in range(per_value):
            value |= tokens[i + j] << (j * token_width)
        values.append(value)
    return values
