"""``repr`` text of float64 blocks, vectorised.

``_repr_lines(block)`` returns, for a 1-D float64 block of finite values,
exactly the bytes of ``"\\n".join(map(repr, block.tolist())) + "\\n"``.

Most rows take Ryu's common case (Adams, "Ryu: fast float-to-string
conversion", PLDI 2018) in numpy uint64: normal doubles with
2**-14 <= |x| < 2**50, where Ryu takes its e2 < 0, q >= 2 branch and its
125-bit word for 5**i is exact, so each multiply-and-shift is
floor(m * 5**i / 2**q), m < 2**55, 5**i < 2**52.  Ryu and ``repr`` both
give the closest of the shortest digit strings that read back to the same
double; ``repr`` prints them in fixed notation while the decimal point
position lies in (-4, 16].  Zero, subnormals, other magnitudes, values with
Ryu's trailing-zero flag set (its general case) and values below 1e-4 go
through ``repr`` at their own position: 6e-5 of an AR(2) path.  Every
integer constant in the uint64 arithmetic is an ``np.uint64``, so numpy's
value-based promotion (before 2.0) and NEP 50 give the same dtypes.
"""

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)

#: Per biased exponent 1009 + k of the fast binades (k < 64): the value is
#: mv * 2**e2 with mv = 4 * m2 and -e2 = 68 - k; q = floor(-e2 log10 5) - 1
#: and i = -e2 - q, and its digits at 10**-i are mv * 5**i / 2**q.
_LO = 1009
_NEG_E2 = _U(1077 - _LO) - np.arange(64, dtype=_U)
_Q = ((_NEG_E2 * _U(732923)) >> _U(20)) - _U(1)
_I = (_NEG_E2 - _Q).astype(np.int64)
_POW5 = _U(5) ** (_NEG_E2 - _Q)
_POW10 = _U(10) ** np.arange(20, dtype=_U)

#: "0000" ... "9999" as one uint32 word each, in memory order.
_DIGITS4 = np.empty((10, 10, 10, 10, 4), np.uint8)
for _place in range(4):
    _DIGITS4[..., _place] = np.arange(48, 58).reshape((10,) + (1,) * (3 - _place))
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()

#: Row k: two uint64 words that keep the last max(k, 1) of 16 integer-part
#: characters and clear the others to NUL.
_KEEP = np.where(np.arange(16) >= 16 - np.maximum(np.arange(17), 1)[:, None],
                 np.uint8(0xFF), np.uint8(0)).view(_U)

#: A fast row's bytes: sign, 16 integer digits, ".", 20 fraction digits and
#: "\n", any of them NUL; a fallback row holds its repr (at most 24 bytes),
#: NUL-padded.  The NULs are dropped from the block's text.
_WIDTH = 39


def _shift(lo, hi, q):
    """floor((hi * 2**64 + lo) / 2**q) for 2 <= q <= 46, when it fits 64 bits."""
    return (lo >> q) | (hi << (_U(64) - q))


def _shortest(bits):
    """Ryu's common case per row: (digits, fraction length, fast-row mask).

    A row is fast when its value lies in the fast binades and Ryu's
    trailing-zero flag is clear; the other rows' digits are meaningless."""
    exponent = ((bits >> _U(52)) & _U(0x7FF)) - _U(_LO)
    row = exponent & _U(63)
    q, p, i = _Q.take(row), _POW5.take(row), _I.take(row)
    mv = ((bits & _U((1 << 52) - 1)) | _U(1 << 52)) << _U(2)
    fast = (exponent < _U(64)) & ((mv & ((_U(1) << q) - _U(1))) != _U(0))
    # mv * p as hi * 2**64 + lo from 32-bit limbs: mv < 2**55 and p < 2**52
    # keep every partial product and sum below 2**64.  The interval ends
    # (mv -+ 2) * p are that product -+ 2p.
    a0, a1, b0, b1 = mv & _M32, mv >> _U(32), p & _M32, p >> _U(32)
    lo = a0 * b0
    mid = a0 * b1 + a1 * b0
    t = (lo >> _U(32)) + (mid & _M32)
    lo = (t << _U(32)) | (lo & _M32)
    hi = a1 * b1 + (mid >> _U(32)) + (t >> _U(32))
    lo_p, lo_m = lo + (p << _U(1)), lo - (p << _U(1))
    vr = _shift(lo, hi, q)
    vp = _shift(lo_p, hi + (lo_p < lo), q)
    vm = _shift(lo_m, hi - (lo_m > lo), q)
    # Remove two digits where the interval allows, then one at a time while
    # it does: the first single step over every row, later ones over the
    # rows that took the last.  Round by the last digit removed.
    round_up = np.zeros(bits.size, bool)
    removed = np.zeros(bits.size, np.int64)
    for unit, count in ((_U(100), 2), (_U(10), 1)):
        vp_d, vm_d, vr_d = vp // unit, vm // unit, vr // unit
        cut = vp_d > vm_d
        np.copyto(round_up, vr - vr_d * unit >= unit // _U(2), where=cut)
        for v, v_d in ((vr, vr_d), (vp, vp_d), (vm, vm_d)):
            np.copyto(v, v_d, where=cut)
        removed += cut * count
    active = np.flatnonzero(cut)
    while active.size:
        vp10, vm10 = vp[active] // _U(10), vm[active] // _U(10)
        more = vp10 > vm10
        active = active[more]
        vr_a = vr[active]
        vr10 = vr_a // _U(10)
        round_up[active] = vr_a - vr10 * _U(10) >= _U(5)
        vr[active], vp[active], vm[active] = vr10, vp10[more], vm10[more]
        removed[active] += 1
    return vr + ((vr == vm) | round_up), i - removed, fast


def _repr_lines(block: np.ndarray) -> bytes:
    """The bytes of "\\n".join(map(repr, block.tolist())) + "\\n"."""
    bits = block.view(_U)
    digits, frac, fast = _shortest(bits)
    point = np.searchsorted(_POW10, digits, side="right") - frac
    fast &= point > -4  # |x| < 2**50 < 1e16 keeps point <= 16
    frac[~fast] = 1  # any window in range serves a fallback row
    n = bits.size
    # Per row: 16 "0" pads, the digits as 20 zero-padded characters, then
    # NULs.  A window of 40 starting 20 - frac bytes in holds the 16
    # integer-part characters, zero-padded, then the fraction, NUL-padded.
    src = np.zeros((n, 15), np.uint32)
    src[:, :4] = _DIGITS4[0]
    rest = digits
    for col in range(8, 3, -1):
        group, rest = rest, rest // _U(10000)
        src[:, col] = _DIGITS4.take(group - rest * _U(10000))
    windows = np.lib.stride_tricks.sliding_window_view(src.view(np.uint8).ravel(), 40)
    windows = windows[np.arange(0, 60 * n, 60) + (20 - frac)]
    windows.view(_U)[:, :2] &= _KEEP.take(point, axis=0, mode="clip")
    out = np.empty((n, _WIDTH), np.uint8)
    out[:, 0] = (bits >> _U(63)).astype(np.uint8) * ord("-")
    out[:, 1:17] = windows[:, :16]
    out[:, 17] = ord(".")
    out[:, 18:38] = windows[:, 16:36]
    out[:, 38] = ord("\n")
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = "".join(repr(v).ljust(_WIDTH - 1, "\0") + "\n" for v in block[slow].tolist())
        out[slow] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _WIDTH)
    return out.tobytes().translate(None, b"\0")
